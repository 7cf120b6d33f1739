package simweb

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cbfww/internal/core"
)

func newTestWeb(t *testing.T) (*Web, *core.SimClock) {
	t.Helper()
	clock := core.NewSimClock(0)
	w := NewWeb(clock)
	w.AddSite("a.example", 100)
	if err := w.AddPage(&core.Page{
		URL:   "http://a.example/index.html",
		Title: "Kyoto Travel",
		Body:  "travel guide to kyoto station",
		Size:  4 * core.KB,
		Anchors: []core.Anchor{
			{Text: "bus stations", Target: "http://a.example/bus.html"},
		},
		Components: []core.Component{
			{URL: "http://a.example/logo.png", Size: 16 * core.KB},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddPage(&core.Page{
		URL:   "http://a.example/bus.html",
		Title: "List of bus stations",
		Body:  "bus station list",
		Size:  2 * core.KB,
	}); err != nil {
		t.Fatal(err)
	}
	return w, clock
}

func TestFetchReturnsCopy(t *testing.T) {
	w, _ := newTestWeb(t)
	res, err := w.FetchCtx(context.Background(), "http://a.example/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 100 {
		t.Errorf("Latency = %v, want 100", res.Latency)
	}
	if res.Page.Version != 1 {
		t.Errorf("Version = %d", res.Page.Version)
	}
	// Mutating the copy must not affect the web.
	res.Page.Anchors[0].Text = "CLOBBERED"
	res.Page.Body = "CLOBBERED"
	res2, _ := w.FetchCtx(context.Background(), "http://a.example/index.html")
	if res2.Page.Anchors[0].Text != "bus stations" || res2.Page.Body == "CLOBBERED" {
		t.Error("Fetch result aliases web state")
	}
	if got := w.FetchCount("http://a.example/index.html"); got != 2 {
		t.Errorf("FetchCount = %d", got)
	}
	if got := w.TotalFetches(); got != 2 {
		t.Errorf("TotalFetches = %d", got)
	}
}

func TestFetchUnknown(t *testing.T) {
	w, _ := newTestWeb(t)
	if _, err := w.FetchCtx(context.Background(), "http://a.example/nope.html"); err == nil {
		t.Error("Fetch(unknown) succeeded")
	}
	if _, _, err := w.HeadCtx(context.Background(), "http://nowhere/x"); err == nil {
		t.Error("Head(unknown) succeeded")
	}
}

func TestAddPageValidation(t *testing.T) {
	w, _ := newTestWeb(t)
	if err := w.AddPage(&core.Page{URL: "ftp://x/y"}); err == nil {
		t.Error("non-http URL accepted")
	}
	if err := w.AddPage(&core.Page{URL: "http:///path"}); err == nil {
		t.Error("hostless URL accepted")
	}
	if err := w.AddPage(&core.Page{URL: "http://unregistered/x"}); err == nil {
		t.Error("unregistered host accepted")
	}
	if err := w.AddPage(&core.Page{URL: "http://a.example/index.html"}); err == nil {
		t.Error("duplicate URL accepted")
	}
}

func TestUpdateBumpsVersion(t *testing.T) {
	w, clock := newTestWeb(t)
	clock.Advance(50)
	if err := w.Update("http://a.example/index.html", "breaking news festival"); err != nil {
		t.Fatal(err)
	}
	v, mod, err := w.HeadCtx(context.Background(), "http://a.example/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || mod != 50 {
		t.Errorf("Head = v%d @%v, want v2 @50", v, mod)
	}
	res, _ := w.FetchCtx(context.Background(), "http://a.example/index.html")
	if !strings.Contains(res.Page.Body, "festival") {
		t.Error("update text missing from body")
	}
	if err := w.Update("http://a.example/nope", ""); err == nil {
		t.Error("Update(unknown) succeeded")
	}
}

func TestPageHelpers(t *testing.T) {
	w, _ := newTestWeb(t)
	p, ok := w.Lookup("http://a.example/index.html")
	if !ok {
		t.Fatal("Lookup failed")
	}
	if got := p.TotalSize(); got != 20*core.KB {
		t.Errorf("TotalSize = %v", got)
	}
	if w.NumPages() != 2 {
		t.Errorf("NumPages = %d", w.NumPages())
	}
}

func TestAddSiteIdempotent(t *testing.T) {
	w := NewWeb(core.NewSimClock(0))
	s1 := w.AddSite("h", 10)
	s2 := w.AddSite("h", 99)
	if s1 != s2 {
		t.Error("AddSite created duplicate site")
	}
	if s2.Latency != 10 {
		t.Error("existing latency overwritten")
	}
}

func TestWebConcurrent(t *testing.T) {
	w, _ := newTestWeb(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w.FetchCtx(context.Background(), "http://a.example/index.html")
				w.HeadCtx(context.Background(), "http://a.example/bus.html")
				w.Update("http://a.example/bus.html", "")
			}
		}()
	}
	wg.Wait()
	v, _, _ := w.HeadCtx(context.Background(), "http://a.example/bus.html")
	if v != 801 {
		t.Errorf("version = %d, want 801", v)
	}
}

func TestHTTPHandlerServesPages(t *testing.T) {
	w, _ := newTestWeb(t)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/index.html", nil)
	req.Host = "a.example"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if v := resp.Header.Get("X-Simweb-Version"); v != "1" {
		t.Errorf("version header = %q", v)
	}
	body, _ := io.ReadAll(resp.Body)
	html := string(body)
	for _, want := range []string{"<title>Kyoto Travel</title>", `href="http://a.example/bus.html"`, "logo.png"} {
		if !strings.Contains(html, want) {
			t.Errorf("body missing %q:\n%s", want, html)
		}
	}

	// HEAD returns headers only.
	req2, _ := http.NewRequest("HEAD", srv.URL+"/bus.html", nil)
	req2.Host = "a.example"
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Simweb-Version") == "" {
		t.Error("HEAD missing version header")
	}

	// Unknown path is a 404; unsupported method is a 405.
	req3, _ := http.NewRequest("GET", srv.URL+"/nope.html", nil)
	req3.Host = "a.example"
	resp3, _ := http.DefaultClient.Do(req3)
	resp3.Body.Close()
	if resp3.StatusCode != 404 {
		t.Errorf("unknown page status = %d", resp3.StatusCode)
	}
	req4, _ := http.NewRequest("POST", srv.URL+"/index.html", strings.NewReader("x"))
	req4.Host = "a.example"
	resp4, _ := http.DefaultClient.Do(req4)
	resp4.Body.Close()
	if resp4.StatusCode != 405 {
		t.Errorf("POST status = %d", resp4.StatusCode)
	}
}
