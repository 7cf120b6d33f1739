package gateway

// End-to-end tests: the daemon serving over real sockets, a simweb origin
// behind it — in-process for the concurrency tests (a gated Origin makes
// miss storms deterministic), over HTTP via crawl.Requester for the full
// socket-to-socket chain.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/crawl"
	"cbfww/internal/simweb"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// gateOrigin wraps a simulated web as a core.ContextOrigin whose
// fetches block on a gate until released — the deterministic way to hold a
// miss storm in flight.
type gateOrigin struct {
	web     *simweb.Web
	gate    chan struct{} // nil = always open
	fetches atomic.Int32  // origin fetches started
	// active/maxActive track the concurrency high-water mark, the
	// deterministic way to assert a bound without sleeping and hoping.
	active    atomic.Int32
	maxActive atomic.Int32
	// started, when non-nil, receives one token per fetch start — tests
	// synchronize on it instead of polling counters. Buffer it larger than
	// the fetch count so sends never block.
	started chan struct{}
}

func (o *gateOrigin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	o.fetches.Add(1)
	n := o.active.Add(1)
	defer o.active.Add(-1)
	for {
		max := o.maxActive.Load()
		if n <= max || o.maxActive.CompareAndSwap(max, n) {
			break
		}
	}
	if o.started != nil {
		o.started <- struct{}{}
	}
	if o.gate != nil {
		select {
		case <-o.gate:
		case <-ctx.Done():
			return core.FetchResult{}, ctx.Err()
		}
	}
	return o.web.Fetch(url)
}

func (o *gateOrigin) Fetch(url string) (core.FetchResult, error) {
	return o.FetchCtx(context.Background(), url)
}

func (o *gateOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	return o.web.Head(url)
}

func (o *gateOrigin) Head(url string) (int, core.Time, error) {
	return o.web.Head(url)
}

// testWeb generates a small deterministic web.
func testWeb(t *testing.T) *workload.GeneratedWeb {
	t.Helper()
	clock := core.NewSimClock(0)
	cfg := workload.DefaultWebConfig()
	cfg.Sites, cfg.PagesPerSite, cfg.Seed = 4, 12, 7
	g, err := workload.GenerateWeb(clock, cfg)
	if err != nil {
		t.Fatalf("GenerateWeb: %v", err)
	}
	return g
}

// newGatedGateway builds warehouse + server over a gated in-process origin.
func newGatedGateway(t *testing.T, cfg Config) (*Server, *gateOrigin, *workload.GeneratedWeb) {
	t.Helper()
	g := testWeb(t)
	origin := &gateOrigin{web: g.Web, gate: make(chan struct{})}
	wh, err := warehouse.New(warehouse.DefaultConfig(), core.NewSimClock(0), origin)
	if err != nil {
		t.Fatalf("warehouse.New: %v", err)
	}
	s, err := New(cfg, wh)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	return s, origin, g
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, body)
		}
	}
	return resp.StatusCode
}

// TestEndToEndOverSockets drives the full chain: gateway socket -> warehouse
// -> crawl.Requester -> HTTP -> simweb origin socket.
func TestEndToEndOverSockets(t *testing.T) {
	g := testWeb(t)
	originSrv := httptest.NewServer(g.Web.Handler())
	defer originSrv.Close()
	addr := strings.TrimPrefix(originSrv.URL, "http://")
	req, err := crawl.NewRequester(crawl.DefaultConfig(), crawl.FixedResolver(addr))
	if err != nil {
		t.Fatalf("NewRequester: %v", err)
	}
	wh, err := warehouse.New(warehouse.DefaultConfig(), core.NewSimClock(0), req)
	if err != nil {
		t.Fatalf("warehouse.New: %v", err)
	}
	s, err := New(Config{Addr: "127.0.0.1:0"}, wh)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 30 * time.Second}

	// Liveness: a standalone daemon has nothing to complain about.
	var hz HealthzResponse
	if code := getJSON(t, client, base+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if hz.Status != "ok" || len(hz.Detail) != 0 {
		t.Fatalf("healthz = %+v, want plain ok", hz)
	}

	// Cold fetch, then hot hit of the same URL.
	url := g.PageURLs[0]
	var fr FetchResponse
	if code := getJSON(t, client, base+"/fetch?url="+url+"&user=alice", &fr); code != http.StatusOK {
		t.Fatalf("cold fetch status = %d", code)
	}
	if fr.Hit || fr.Source != "origin" {
		t.Fatalf("cold fetch: hit=%v source=%q, want miss from origin", fr.Hit, fr.Source)
	}
	if fr.Title == "" {
		t.Fatal("cold fetch returned empty title")
	}
	if code := getJSON(t, client, base+"/fetch?url="+url+"&user=alice", &fr); code != http.StatusOK {
		t.Fatalf("hot fetch status = %d", code)
	}
	if !fr.Hit {
		t.Fatal("second fetch of same URL was not a warehouse hit")
	}

	// Warm a few more pages so query/search have something to chew on.
	for _, u := range g.PageURLs[1:5] {
		if code := getJSON(t, client, base+"/fetch?url="+u+"&user=alice", nil); code != http.StatusOK {
			t.Fatalf("warm fetch %s = %d", u, code)
		}
	}

	// §4.3 popularity-aware query over POST.
	qresp, err := client.Post(base+"/query", "text/plain",
		strings.NewReader(`SELECT MFU 3 p.url, p.freq FROM Physical_Page p`))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d (%s)", qresp.StatusCode, qbody)
	}
	var qout struct {
		Rows []QueryRow `json:"rows"`
	}
	if err := json.Unmarshal(qbody, &qout); err != nil {
		t.Fatalf("query decode: %v", err)
	}
	if len(qout.Rows) == 0 {
		t.Fatal("query returned no rows over a warmed warehouse")
	}

	// A broken query is a client error, not a 500.
	qresp, err = client.Post(base+"/query", "text/plain", strings.NewReader("SELECT FROM FROM"))
	if err != nil {
		t.Fatalf("bad query: %v", err)
	}
	io.Copy(io.Discard, qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status = %d, want 400", qresp.StatusCode)
	}

	// Ranked search and recommendations decode cleanly.
	var sout struct {
		Tier string      `json:"tier"`
		Hits []SearchHit `json:"hits"`
	}
	if code := getJSON(t, client, base+"/search?q="+strings.Fields(fr.Title)[0], &sout); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	var rout struct {
		Recommendations []struct {
			URL   string  `json:"url"`
			Score float64 `json:"score"`
		} `json:"recommendations"`
	}
	if code := getJSON(t, client, base+"/recommend?user=alice&n=5", &rout); code != http.StatusOK {
		t.Fatalf("recommend status = %d", code)
	}

	// Parameter validation and pass-through of origin 404s.
	if code := getJSON(t, client, base+"/fetch", nil); code != http.StatusBadRequest {
		t.Fatalf("missing url status = %d, want 400", code)
	}
	if code := getJSON(t, client, base+"/fetch?url=http://site00.example/no-such-page", nil); code != http.StatusNotFound {
		t.Fatalf("dead url status = %d, want 404", code)
	}

	// /stats reports request counts and latency quantiles.
	var stats StatsResponse
	if code := getJSON(t, client, base+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	f := stats.Endpoints["fetch"]
	if f.Requests < 6 {
		t.Fatalf("fetch endpoint requests = %d, want >= 6", f.Requests)
	}
	if f.Latency.Count == 0 || f.Latency.P50Ms > f.Latency.P99Ms {
		t.Fatalf("fetch latency snapshot implausible: %+v", f.Latency)
	}
	if stats.Warehouse.Requests < 6 || stats.Warehouse.OriginFetches < 5 {
		t.Fatalf("warehouse stats implausible: %+v", stats.Warehouse)
	}
	if stats.Gateway.FetchWorkers <= 0 {
		t.Fatalf("gateway stats missing worker count: %+v", stats.Gateway)
	}
}

// TestMissStormCoalesces is the acceptance scenario: 50 concurrent
// requests for one cold URL must produce exactly one origin fetch.
func TestMissStormCoalesces(t *testing.T) {
	s, origin, g := newGatedGateway(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const storm = 50
	cold := g.PageURLs[0]

	var wg sync.WaitGroup
	var hits, coalesced atomic.Int32
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fr FetchResponse
			if code := getJSON(t, client, ts.URL+"/fetch?url="+cold, &fr); code != http.StatusOK {
				t.Errorf("storm fetch status = %d", code)
				return
			}
			hits.Add(1)
			if fr.Coalesced {
				coalesced.Add(1)
			}
		}()
	}

	// Wait until the whole storm is parked on one in-flight fetch: one
	// leader plus storm-1 joiners, exactly one origin fetch started.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.joiners(cold) < storm-1 {
		if time.Now().After(deadline) {
			t.Fatalf("storm never converged: joiners=%d fetches=%d",
				s.flights.joiners(cold), origin.fetches.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(origin.gate)
	wg.Wait()

	if n := origin.fetches.Load(); n != 1 {
		t.Fatalf("origin fetches = %d, want exactly 1", n)
	}
	if n := s.wh.Stats().OriginFetches; n != 1 {
		t.Fatalf("warehouse OriginFetches = %d, want 1", n)
	}
	if n := hits.Load(); n != storm {
		t.Fatalf("successful responses = %d, want %d", n, storm)
	}
	if n := coalesced.Load(); n != storm-1 {
		t.Fatalf("coalesced responses = %d, want %d", n, storm-1)
	}
	if n := s.CoalescedFetches(); n != storm-1 {
		t.Fatalf("CoalescedFetches = %d, want %d", n, storm-1)
	}
}

// TestColdMissesFetchInParallel verifies the warehouse no longer holds its
// write lock across origin fetches: two different cold URLs must be in
// flight at the origin simultaneously.
func TestColdMissesFetchInParallel(t *testing.T) {
	s, origin, g := newGatedGateway(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	origin.started = make(chan struct{}, 4)
	var wg sync.WaitGroup
	for _, u := range g.PageURLs[:2] {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			if code := getJSON(t, client, ts.URL+"/fetch?url="+u, nil); code != http.StatusOK {
				t.Errorf("fetch %s = %d", u, code)
			}
		}(u)
	}
	// Two start tokens while the gate is still closed = two fetches in
	// flight at the origin simultaneously. No polling, no sleeps.
	for i := 0; i < 2; i++ {
		select {
		case <-origin.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d origin fetches in flight; cold misses serialized", origin.fetches.Load())
		}
	}
	close(origin.gate)
	wg.Wait()
}

// TestFetchDeadline verifies the per-request origin budget: a hung origin
// turns into 504 Gateway Timeout, not a hung client.
func TestFetchDeadline(t *testing.T) {
	s, origin, g := newGatedGateway(t, Config{FetchTimeout: 50 * time.Millisecond})
	defer close(origin.gate) // release the hung fetch at teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out map[string]string
	resp, err := ts.Client().Get(ts.URL + "/fetch?url=" + g.PageURLs[0])
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil || out["error"] == "" {
		t.Fatalf("error payload missing: %q", body)
	}
}

// TestShutdownDrains verifies graceful shutdown returns only after
// in-flight requests complete — and that the drained request still gets a
// full response.
func TestShutdownDrains(t *testing.T) {
	s, origin, g := newGatedGateway(t, Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 30 * time.Second}
	origin.started = make(chan struct{}, 2)

	// Put one request in flight, blocked at the origin.
	type result struct {
		code int
		fr   FetchResponse
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		var r result
		resp, err := client.Get(base + "/fetch?url=" + g.PageURLs[0])
		if err != nil {
			r.err = err
		} else {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			r.code = resp.StatusCode
			r.err = json.Unmarshal(body, &r.fr)
		}
		resCh <- r
	}()
	select {
	case <-origin.started:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the origin")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// While the request is blocked, shutdown must not complete.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(150 * time.Millisecond):
	}

	close(origin.gate)
	r := <-resCh
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("drained request: code=%d err=%v", r.code, r.err)
	}
	if r.fr.Source != "origin" {
		t.Fatalf("drained request source = %q, want origin", r.fr.Source)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The daemon is actually down.
	quick := &http.Client{Timeout: 2 * time.Second}
	if _, err := quick.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after Shutdown")
	}
}

// TestFetchWorkerPoolBounds verifies the pool caps concurrent origin
// fetches: with 2 workers and 6 distinct cold URLs in flight, the origin
// never sees more than 2 concurrent fetches.
func TestFetchWorkerPoolBounds(t *testing.T) {
	s, origin, g := newGatedGateway(t, Config{FetchWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	origin.started = make(chan struct{}, 8)
	var wg sync.WaitGroup
	for _, u := range g.PageURLs[:6] {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			if code := getJSON(t, client, ts.URL+"/fetch?url="+u, nil); code != http.StatusOK {
				t.Errorf("fetch %s = %d", u, code)
			}
		}(u)
	}

	// Wait for both workers to be parked on the gate, release the storm,
	// then judge the pool by its concurrency high-water mark: it must have
	// reached the bound (both tokens arrived while the gate was closed)
	// and never exceeded it — no saturation sleep needed.
	for i := 0; i < 2; i++ {
		select {
		case <-origin.started:
		case <-time.After(10 * time.Second):
			t.Fatal("pool never reached its 2 concurrent fetches")
		}
	}
	close(origin.gate)
	wg.Wait()
	if n := origin.fetches.Load(); n != 6 {
		t.Fatalf("total origin fetches = %d, want 6", n)
	}
	if n := origin.maxActive.Load(); n != 2 {
		t.Fatalf("origin concurrency high-water mark = %d, want pool bound 2", n)
	}
}

// TestConcurrentMixedTraffic hammers every endpoint at once — primarily a
// race-detector workout for the RWMutex split.
func TestConcurrentMixedTraffic(t *testing.T) {
	g := testWeb(t)
	origin := &gateOrigin{web: g.Web} // open gate
	wh, err := warehouse.New(warehouse.DefaultConfig(), core.NewSimClock(0), origin)
	if err != nil {
		t.Fatalf("warehouse.New: %v", err)
	}
	s, err := New(Config{}, wh)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 15; j++ {
				u := g.PageURLs[(i*15+j)%len(g.PageURLs)]
				switch j % 4 {
				case 0, 1:
					getJSON(t, client, ts.URL+fmt.Sprintf("/fetch?url=%s&user=u%d", u, i), nil)
				case 2:
					getJSON(t, client, ts.URL+"/stats", nil)
				case 3:
					resp, err := client.Post(ts.URL+"/query", "text/plain",
						strings.NewReader(`SELECT MFU 3 p.url FROM Physical_Page p`))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(i)
	}
	wg.Wait()

	var stats StatsResponse
	if code := getJSON(t, client, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Warehouse.Requests == 0 {
		t.Fatal("no warehouse requests recorded under mixed traffic")
	}
}

// TestPprofEndpoints: /debug/pprof is mounted only when EnablePprof is set.
func TestPprofEndpoints(t *testing.T) {
	g := testWeb(t)
	wh, err := warehouse.New(warehouse.DefaultConfig(), core.NewSimClock(0), g.Web)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"enabled":  {EnablePprof: true},
		"disabled": {},
	} {
		s, err := New(cfg, wh)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		want := http.StatusNotFound
		if cfg.EnablePprof {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("%s: GET /debug/pprof/ = %d, want %d", name, resp.StatusCode, want)
		}
		if cfg.EnablePprof {
			resp, err = ts.Client().Get(ts.URL + "/debug/pprof/goroutine?debug=1")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
				t.Errorf("goroutine profile: status %d", resp.StatusCode)
			}
		}
		ts.Close()
	}
}
