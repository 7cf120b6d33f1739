package crawl

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// originFixture serves a generated simweb over a real listener and
// returns a Requester pointed at it.
func originFixture(t *testing.T, cfg Config) (*workload.GeneratedWeb, *Requester, *core.SimClock) {
	t.Helper()
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite = 3, 8
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Web.Handler())
	t.Cleanup(srv.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")
	r, err := NewRequester(cfg, FixedResolver(addr))
	if err != nil {
		t.Fatal(err)
	}
	return g, r, clock
}

func TestRequesterFetchReconstructsPage(t *testing.T) {
	g, r, _ := originFixture(t, DefaultConfig())
	url := g.PageURLs[0]
	want, _ := g.Web.Lookup(url)

	got, err := r.FetchCtx(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	p := got.Page
	if p.URL != url {
		t.Errorf("URL = %q", p.URL)
	}
	if p.Title != want.Title {
		t.Errorf("Title = %q, want %q", p.Title, want.Title)
	}
	if p.Version != want.Version {
		t.Errorf("Version = %d, want %d", p.Version, want.Version)
	}
	if len(p.Anchors) != len(want.Anchors) {
		t.Fatalf("anchors: got %d, want %d", len(p.Anchors), len(want.Anchors))
	}
	for i, a := range p.Anchors {
		if a.Target != want.Anchors[i].Target || a.Text != want.Anchors[i].Text {
			t.Errorf("anchor %d = %+v, want %+v", i, a, want.Anchors[i])
		}
	}
	if len(p.Components) != len(want.Components) {
		t.Fatalf("components: got %d, want %d", len(p.Components), len(want.Components))
	}
	for i, c := range p.Components {
		if c.URL != want.Components[i].URL || c.Size != want.Components[i].Size {
			t.Errorf("component %d = %+v, want %+v", i, c, want.Components[i])
		}
	}
	// Body text survives (modulo whitespace normalization).
	for _, w := range strings.Fields(want.Body)[:5] {
		if !strings.Contains(p.Body, w) {
			t.Errorf("body missing %q", w)
		}
	}
	if got.Latency == 0 {
		t.Error("latency header not propagated")
	}
}

func TestRequesterHead(t *testing.T) {
	g, r, clock := originFixture(t, DefaultConfig())
	url := g.PageURLs[1]
	v, _, err := r.HeadCtx(context.Background(), url)
	if err != nil || v != 1 {
		t.Fatalf("Head = %d, %v", v, err)
	}
	clock.Advance(42)
	g.Web.Update(url, "new content")
	v2, lm, err := r.HeadCtx(context.Background(), url)
	if err != nil || v2 != 2 || lm != 42 {
		t.Errorf("Head after update = %d @%v, %v", v2, lm, err)
	}
}

func TestRequesterErrors(t *testing.T) {
	g, r, _ := originFixture(t, DefaultConfig())
	_ = g
	if _, err := r.FetchCtx(context.Background(), "http://site00.example/nonexistent.html"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("fetch 404 err = %v", err)
	}
	if _, _, err := r.HeadCtx(context.Background(), "http://site00.example/nonexistent.html"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("head 404 err = %v", err)
	}
	if _, err := r.FetchCtx(context.Background(), "ftp://bad"); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("bad scheme err = %v", err)
	}
	if _, err := NewRequester(DefaultConfig(), nil); err == nil {
		t.Error("nil resolver accepted")
	}
}

func TestRequesterPoliteness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerHostInterval = 30 * time.Millisecond
	g, r, _ := originFixture(t, cfg)
	url := g.PageURLs[0]
	start := time.Now()
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.FetchCtx(context.Background(), url); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if min := time.Duration(n-1) * cfg.PerHostInterval; elapsed < min {
		t.Errorf("4 same-host fetches took %v, politeness demands >= %v", elapsed, min)
	}
	if r.Fetches() != n {
		t.Errorf("Fetches = %d", r.Fetches())
	}
}

func TestWarehouseOverHTTP(t *testing.T) {
	g, r, clock := originFixture(t, DefaultConfig())
	w, err := warehouse.New(warehouse.DefaultConfig(), clock, r)
	if err != nil {
		t.Fatal(err)
	}
	url := g.PageURLs[0]
	r1, err := w.Get("alice", url)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hit {
		t.Error("first HTTP-backed access was a hit")
	}
	r2, err := w.Get("alice", url)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit {
		t.Error("second access missed")
	}
	if r2.Page.Title != r1.Page.Title {
		t.Error("content mismatch between origin fetch and warehouse hit")
	}
	// Full admission happened: queryable.
	rows, err := w.Query("SELECT MRU p.url FROM Physical_Page p")
	if err != nil || len(rows) != 1 {
		t.Errorf("query over HTTP-admitted page: %v, %v", rows, err)
	}
}

func TestCrawlerCoversReachableGraph(t *testing.T) {
	g, r, _ := originFixture(t, DefaultConfig())
	c, err := NewCrawler(r, CrawlConfig{MaxPages: 1000, MaxDepth: 10, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Crawl(context.Background(), g.PageURLs[0])
	if len(res.Pages) < 2 {
		t.Fatalf("crawl found only %d pages", len(res.Pages))
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, p := range res.Pages {
		if seen[p.URL] {
			t.Errorf("duplicate crawl of %q", p.URL)
		}
		seen[p.URL] = true
	}
	if res.Errors != 0 {
		t.Errorf("crawl errors: %d", res.Errors)
	}
}

func TestCrawlerRespectsLimits(t *testing.T) {
	g, r, _ := originFixture(t, DefaultConfig())
	c, _ := NewCrawler(r, CrawlConfig{MaxPages: 3, MaxDepth: 10, Workers: 4})
	res := c.Crawl(context.Background(), g.PageURLs[0])
	if len(res.Pages) > 3 {
		t.Errorf("MaxPages violated: %d", len(res.Pages))
	}
	c2, _ := NewCrawler(r, CrawlConfig{MaxPages: 1000, MaxDepth: 0, Workers: 4})
	res2 := c2.Crawl(context.Background(), g.PageURLs[0])
	if len(res2.Pages) != 1 {
		t.Errorf("MaxDepth 0 crawled %d pages", len(res2.Pages))
	}
	if res2.Skipped == 0 {
		t.Error("depth-limited crawl skipped nothing")
	}
	if _, err := NewCrawler(nil, CrawlConfig{MaxPages: 256, MaxDepth: 4, Workers: 8}); err == nil {
		t.Error("nil origin accepted")
	}
}

func TestCrawlerSameHostOnly(t *testing.T) {
	g, r, _ := originFixture(t, DefaultConfig())
	c, _ := NewCrawler(r, CrawlConfig{MaxPages: 1000, MaxDepth: 10, Workers: 4, SameHostOnly: true})
	seed := g.PageURLs[0]
	host := strings.TrimPrefix(seed, "http://")
	host = host[:strings.IndexByte(host, '/')]
	res := c.Crawl(context.Background(), seed)
	for _, p := range res.Pages {
		if !strings.HasPrefix(p.URL, "http://"+host+"/") {
			t.Errorf("cross-host page crawled: %q", p.URL)
		}
	}
}

func TestParsePageEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		html string
		chk  func(t *testing.T, p core.Page)
	}{
		{"empty", "", func(t *testing.T, p core.Page) {
			if p.Title != "" || p.Body != "" || p.Anchors != nil {
				t.Errorf("parsed %+v from empty", p)
			}
		}},
		{"plain text", "just words", func(t *testing.T, p core.Page) {
			if p.Body != "just words" {
				t.Errorf("body = %q", p.Body)
			}
		}},
		{"unclosed title", "<title>half", func(t *testing.T, p core.Page) {
			if p.Title != "half" {
				t.Errorf("title = %q", p.Title)
			}
		}},
		{"single quotes", `<a href='http://x/y'>link text</a>`, func(t *testing.T, p core.Page) {
			if len(p.Anchors) != 1 || p.Anchors[0].Target != "http://x/y" {
				t.Errorf("anchors = %+v", p.Anchors)
			}
		}},
		{"bare attr", `<img src=http://x/i.png width=512>`, func(t *testing.T, p core.Page) {
			if len(p.Components) != 1 || p.Components[0].Size != 512 {
				t.Errorf("components = %+v", p.Components)
			}
		}},
		{"anchor without href", `<a name=top>here</a>`, func(t *testing.T, p core.Page) {
			if len(p.Anchors) != 0 {
				t.Errorf("anchors = %+v", p.Anchors)
			}
		}},
		{"script stripped", `<script>var x = "kyoto";</script>real body`, func(t *testing.T, p core.Page) {
			if strings.Contains(p.Body, "kyoto") || !strings.Contains(p.Body, "real body") {
				t.Errorf("body = %q", p.Body)
			}
		}},
		{"nested markup in anchor", `<a href="u"><b>bold</b> text</a>`, func(t *testing.T, p core.Page) {
			if len(p.Anchors) != 1 || !strings.Contains(p.Anchors[0].Text, "bold") {
				t.Errorf("anchors = %+v", p.Anchors)
			}
		}},
		{"lone lt", "a < b", func(t *testing.T, p core.Page) {
			if !strings.HasPrefix(p.Body, "a") {
				t.Errorf("body = %q", p.Body)
			}
		}},
		{"case-insensitive close", `<TITLE>Mixed</TITLE>rest`, func(t *testing.T, p core.Page) {
			if p.Title != "Mixed" {
				t.Errorf("title = %q", p.Title)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.chk(t, ParsePage("http://h/p", c.html))
		})
	}
}

func TestParsePageRoundTripProperty(t *testing.T) {
	// Every page the generator produces must round-trip through the
	// HTML serializer (simweb.Handler's format) and ParsePage with
	// structure intact. Exercise via the HTTP fixture across all pages.
	g, r, _ := originFixture(t, DefaultConfig())
	for _, url := range g.PageURLs {
		want, _ := g.Web.Lookup(url)
		got, err := r.FetchCtx(context.Background(), url)
		if err != nil {
			t.Fatalf("fetch %q: %v", url, err)
		}
		if got.Page.Title != want.Title {
			t.Errorf("%q: title %q != %q", url, got.Page.Title, want.Title)
		}
		var wantTargets, gotTargets []string
		for _, a := range want.Anchors {
			wantTargets = append(wantTargets, a.Target)
		}
		for _, a := range got.Page.Anchors {
			gotTargets = append(gotTargets, a.Target)
		}
		if !reflect.DeepEqual(gotTargets, wantTargets) {
			t.Errorf("%q: anchor targets %v != %v", url, gotTargets, wantTargets)
		}
	}
}

func TestAttrValue(t *testing.T) {
	cases := []struct{ attrs, name, want string }{
		{`href="x"`, "href", "x"},
		{`class="c" href="x"`, "href", "x"},
		{`href='y'`, "href", "y"},
		{`href=z id=3`, "href", "z"},
		{`xhref="no"`, "href", ""},
		{`href=`, "href", ""},
		{`HREF="up"`, "href", "up"}, // lowercased key match
		{``, "href", ""},
	}
	for _, c := range cases {
		if got := attrValue(c.attrs, c.name); got != c.want {
			t.Errorf("attrValue(%q, %q) = %q, want %q", c.attrs, c.name, got, c.want)
		}
	}
}

// countingOrigin counts the fetches that reach it and runs onFetch, when
// set, with the running count.
type countingOrigin struct {
	core.Origin
	mu      sync.Mutex
	fetches int
	onFetch func(n int)
}

func (o *countingOrigin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	o.mu.Lock()
	o.fetches++
	n := o.fetches
	o.mu.Unlock()
	if o.onFetch != nil {
		o.onFetch(n)
	}
	return o.Origin.FetchCtx(ctx, url)
}

// Once the crawl's context is done, no further fetch reaches the origin:
// a crawl started cancelled fetches nothing, and one cancelled at its
// third fetch makes no fourth.
func TestCrawlStopsFetchingWhenCancelled(t *testing.T) {
	g, r, _ := originFixture(t, DefaultConfig())

	o := &countingOrigin{Origin: r}
	c, _ := NewCrawler(o, CrawlConfig{MaxPages: 1000, MaxDepth: 10, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := c.Crawl(ctx, g.PageURLs[0], g.PageURLs[9])
	if o.fetches != 0 || len(res.Pages) != 0 || res.Skipped != 2 {
		t.Errorf("cancelled crawl: %d fetches, %d pages, %d skipped; want 0, 0, 2",
			o.fetches, len(res.Pages), res.Skipped)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	o = &countingOrigin{Origin: r, onFetch: func(n int) {
		if n == 3 {
			cancel()
		}
	}}
	c, _ = NewCrawler(o, CrawlConfig{MaxPages: 1000, MaxDepth: 10, Workers: 1})
	res = c.Crawl(ctx, g.PageURLs[0])
	if o.fetches != 3 {
		t.Errorf("crawl cancelled at its third fetch made %d fetches", o.fetches)
	}
	if res.Skipped == 0 {
		t.Error("cancelled crawl skipped nothing still on its frontier")
	}
}
