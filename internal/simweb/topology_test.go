package simweb

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// originGet fetches url (a simweb URL) through the HTTPOrigin socket by
// dialing the listener and carrying the simweb host in the Host header —
// the same shape the crawl requester's fixed resolver produces.
func originGet(t *testing.T, o *HTTPOrigin, url string) (*http.Response, string) {
	t.Helper()
	rest := strings.TrimPrefix(url, "http://")
	i := strings.IndexByte(rest, '/')
	host, path := rest[:i], rest[i:]
	req, err := http.NewRequest(http.MethodGet, "http://"+o.Addr()+path, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Host = host
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s via origin: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func TestHTTPOriginServesAndCounts(t *testing.T) {
	web, _ := newTestWeb(t)
	o, err := NewHTTPOrigin(web, nil)
	if err != nil {
		t.Fatalf("NewHTTPOrigin: %v", err)
	}
	defer o.Close()

	url := "http://a.example/bus.html"
	resp, body := originGet(t, o, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(body, "<html>") {
		t.Fatalf("body is not the rendered page: %q", body[:min(len(body), 80)])
	}
	if got := web.FetchCount(url); got != 1 {
		t.Fatalf("FetchCount(%s) = %d, want 1", url, got)
	}
}

func TestHTTPOriginFaultsDoNotCountFetches(t *testing.T) {
	web, _ := newTestWeb(t)
	o, err := NewHTTPOrigin(web, &FaultConfig{Seed: 7})
	if err != nil {
		t.Fatalf("NewHTTPOrigin: %v", err)
	}
	defer o.Close()

	url := "http://a.example/bus.html"
	host, err := hostOf(url)
	if err != nil {
		t.Fatalf("hostOf: %v", err)
	}
	o.Blackout(host, true)
	resp, _ := originGet(t, o, url)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("blacked-out status = %d, want 503", resp.StatusCode)
	}
	if got := web.FetchCount(url); got != 0 {
		t.Fatalf("FetchCount after injected fault = %d, want 0 (faults decide before Fetch)", got)
	}
	if o.FaultStats().BlackoutRefusals != 1 {
		t.Fatalf("BlackoutRefusals = %d, want 1", o.FaultStats().BlackoutRefusals)
	}

	o.Blackout(host, false)
	resp, _ = originGet(t, o, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-blackout status = %d, want 200", resp.StatusCode)
	}
	if got := web.FetchCount(url); got != 1 {
		t.Fatalf("FetchCount after recovery = %d, want 1", got)
	}

	if _, err := NewHTTPOrigin(nil, nil); err == nil {
		t.Fatal("NewHTTPOrigin(nil) succeeded, want error")
	} else if errors.Is(err, ErrInjected) {
		t.Fatalf("unexpected sentinel: %v", err)
	}
}
