package gateway

// End-to-end tests: the daemon serving over real sockets, a simweb origin
// behind it — in-process for the concurrency tests (a gated Origin makes
// miss storms deterministic), over HTTP via crawl.Requester for the full
// socket-to-socket chain.

import (
	"bytes"
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

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/crawl"
	"cbfww/internal/simweb"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// gateOrigin wraps a simulated web as a core.Origin whose fetches block
// on a gate until released — the deterministic way to hold a miss storm
// in flight — and whose HEADs block on headGate likewise.
type gateOrigin struct {
	web      *simweb.Web
	gate     chan struct{} // nil = always open
	headGate chan struct{} // nil = always open
	fetches  atomic.Int32  // origin fetches started
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
	return o.web.FetchCtx(ctx, url)
}

func (o *gateOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	if o.headGate != nil {
		select {
		case <-o.headGate:
		case <-ctx.Done():
			return 0, 0, ctx.Err()
		}
	}
	return o.web.HeadCtx(ctx, url)
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
	origin := &gateOrigin{gate: make(chan struct{})}
	s, g := newGatewayOver(t, cfg, warehouse.DefaultConfig(), origin)
	return s, origin, g
}

// newGatewayOver builds a gateway over a warehouse configured by whCfg
// whose origin serves a fresh test web through origin.
func newGatewayOver(t *testing.T, cfg Config, whCfg warehouse.Config, origin *gateOrigin) (*Server, *workload.GeneratedWeb) {
	t.Helper()
	g := testWeb(t)
	origin.web = g.Web
	wh, err := warehouse.New(whCfg, core.NewSimClock(0), origin)
	if err != nil {
		t.Fatalf("warehouse.New: %v", err)
	}
	s, err := New(cfg, wh)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	return s, g
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

// TestStatsKeys pins the JSON keys, in order, of a /stats shard row and of
// the resilience section: both render their sources' snapshots, and
// dashboards and the wire benchmark (shards[].lock_wait_micros) read them
// by name.
func TestStatsKeys(t *testing.T) {
	s, _ := newGatewayOver(t, Config{}, warehouse.DefaultConfig(), &gateOrigin{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var raw struct {
		Resilience json.RawMessage   `json:"resilience"`
		Shards     []json.RawMessage `json:"shards"`
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/stats", &raw); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	if len(raw.Shards) == 0 {
		t.Fatal("/stats has no shard rows")
	}
	for _, c := range []struct {
		section string
		obj     json.RawMessage
		want    string
	}{
		{"shards[0]", raw.Shards[0], "shard pages requests hits origin_fetches lock_wait_micros lock_acquires"},
		{"resilience", raw.Resilience, "retries breaker_opens breaker_half_opens breaker_fast_fails open_hosts stale_serves"},
	} {
		if got := strings.Join(objectKeys(t, c.obj), " "); got != c.want {
			t.Errorf("%s keys:\n got %s\nwant %s", c.section, got, c.want)
		}
	}
}

// objectKeys returns the keys of a flat JSON object in document order.
func objectKeys(t *testing.T, obj json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not an object: %s", obj)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// fetchEndpoints are the two fetch-through endpoints. They share one
// serve path, so every fetch-through behaviour holds on both.
var fetchEndpoints = []string{"/fetch", "/body"}

// fetchOver requests url through a fetch-through endpoint ("/fetch" or
// "/body") by method and drains the response. fr is decoded from a 200
// /fetch response; from /body it carries only the source header.
func fetchOver(t *testing.T, client *http.Client, base, method, endpoint, url string) (code int, fr FetchResponse) {
	t.Helper()
	req, err := http.NewRequest(method, base+endpoint+"?url="+url, nil)
	if err != nil {
		t.Fatalf("%s %s: %v", method, endpoint, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Errorf("%s %s: %v", method, endpoint, err)
		return 0, fr
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read %s: %v", endpoint, err)
		return 0, fr
	}
	if resp.StatusCode == http.StatusOK && endpoint == "/fetch" {
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Errorf("decode %s: %v (body %q)", endpoint, err, body)
		}
	}
	if endpoint == "/body" {
		fr.Source = resp.Header.Get("X-CBFWW-Source")
	}
	return resp.StatusCode, fr
}

// awaitCoalesced waits until n requests wait on cold first fetches. On
// timeout it opens the origin's gate, so the parked requests end and the
// test server can close.
func awaitCoalesced(t *testing.T, s *Server, origin *gateOrigin, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.wh.Stats().Coalesced < n {
		if time.Now().After(deadline) {
			close(origin.gate)
			t.Fatalf("storm never converged: coalesced=%d fetches=%d",
				s.wh.Stats().Coalesced, origin.fetches.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMissStormCoalesces is the acceptance scenario: 50 concurrent
// requests for one cold URL must produce exactly one origin fetch, on
// either endpoint and on both at once.
func TestMissStormCoalesces(t *testing.T) {
	type call struct{ method, endpoint string }
	cases := []struct {
		name  string
		calls []call // request i makes calls[i%len(calls)]
	}{
		{"GET /fetch", []call{{"GET", "/fetch"}}},
		{"GET /body", []call{{"GET", "/body"}}},
		{"HEAD /body", []call{{"HEAD", "/body"}}},
		{"mixed", []call{{"GET", "/fetch"}, {"GET", "/body"}, {"HEAD", "/body"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, origin, g := newGatedGateway(t, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			client := ts.Client()

			const storm = 50
			cold := g.PageURLs[0]
			var wg sync.WaitGroup
			var ok, fetches, coalesced atomic.Int32
			for i := 0; i < storm; i++ {
				c := tc.calls[i%len(tc.calls)]
				wg.Add(1)
				go func() {
					defer wg.Done()
					code, fr := fetchOver(t, client, ts.URL, c.method, c.endpoint, cold)
					if code != http.StatusOK {
						t.Errorf("storm %s %s status = %d", c.method, c.endpoint, code)
						return
					}
					ok.Add(1)
					if c.endpoint == "/fetch" {
						fetches.Add(1)
						if fr.Coalesced {
							coalesced.Add(1)
						}
					}
				}()
			}

			// Wait until the whole storm is parked on one in-flight fetch:
			// one sender plus storm-1 waiters.
			awaitCoalesced(t, s, origin, storm-1)
			close(origin.gate)
			wg.Wait()

			if n := origin.fetches.Load(); n != 1 {
				t.Fatalf("origin fetches = %d, want exactly 1", n)
			}
			if n := s.wh.Stats().OriginFetches; n != 1 {
				t.Fatalf("warehouse OriginFetches = %d, want 1", n)
			}
			if n := ok.Load(); n != storm {
				t.Fatalf("successful responses = %d, want %d", n, storm)
			}
			// Every /fetch response but the sender's says it was coalesced
			// (in the mixed row the sender may be on /body).
			if f, c := fetches.Load(), coalesced.Load(); f-c > 1 || f == storm && c != storm-1 {
				t.Fatalf("coalesced /fetch responses = %d of %d, want all but the sender", c, f)
			}
			var stats StatsResponse
			if code := getJSON(t, client, ts.URL+"/stats", &stats); code != http.StatusOK {
				t.Fatalf("stats status = %d", code)
			}
			if n := stats.Gateway.CoalescedFetches; n != storm-1 {
				t.Fatalf("coalesced_fetches = %d, want %d", n, storm-1)
			}
		})
	}
}

// TestColdMissesFetchInParallel verifies the warehouse no longer holds its
// write lock across origin fetches: two different cold URLs must be in
// flight at the origin simultaneously.
func TestColdMissesFetchInParallel(t *testing.T) {
	for _, ep := range fetchEndpoints {
		t.Run(ep, func(t *testing.T) {
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
					if code, _ := fetchOver(t, client, ts.URL, "GET", ep, u); code != http.StatusOK {
						t.Errorf("fetch %s = %d", u, code)
					}
				}(u)
			}
			// Two start tokens while the gate is still closed = two fetches
			// in flight at the origin simultaneously. No polling, no sleeps.
			for i := 0; i < 2; i++ {
				select {
				case <-origin.started:
				case <-time.After(10 * time.Second):
					t.Fatalf("only %d origin fetches in flight; cold misses serialized", origin.fetches.Load())
				}
			}
			close(origin.gate)
			wg.Wait()
		})
	}
}

// TestFetchDeadline verifies the origin budget: a hung origin turns into
// 504 Gateway Timeout, not a hung client, and a resident page whose
// revalidation hangs is served from its copy, marked stale.
func TestFetchDeadline(t *testing.T) {
	for _, ep := range fetchEndpoints {
		t.Run(ep+" stale on a hung HEAD", func(t *testing.T) {
			whCfg := warehouse.DefaultConfig()
			whCfg.Consistency = constraint.Consistency{Mode: constraint.Strong}
			origin := &gateOrigin{headGate: make(chan struct{})}
			s, g := newGatewayOver(t, Config{FetchTimeout: 50 * time.Millisecond}, whCfg, origin)
			defer close(origin.headGate) // release the hung HEAD at teardown
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			get := func() *http.Response {
				resp, err := ts.Client().Get(ts.URL + ep + "?url=" + g.PageURLs[0])
				if err != nil {
					t.Fatalf("fetch: %v", err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp
			}
			if resp := get(); resp.StatusCode != http.StatusOK || resp.Header.Get("X-CBFWW-Stale") != "" {
				t.Fatalf("first sight: status %d, stale %q; want 200, fresh", resp.StatusCode, resp.Header.Get("X-CBFWW-Stale"))
			}
			// Strong consistency revalidates every hit: the HEAD hangs
			// until the budget cuts it, and the copy answers.
			if resp := get(); resp.StatusCode != http.StatusOK || resp.Header.Get("X-CBFWW-Stale") != "1" {
				t.Fatalf("hung revalidation: status %d, stale %q; want 200, stale 1", resp.StatusCode, resp.Header.Get("X-CBFWW-Stale"))
			}
		})
		t.Run(ep, func(t *testing.T) {
			s, origin, g := newGatedGateway(t, Config{FetchTimeout: 50 * time.Millisecond})
			defer close(origin.gate) // release the hung fetch at teardown
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var out map[string]string
			resp, err := ts.Client().Get(ts.URL + ep + "?url=" + g.PageURLs[0])
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
		})
	}
}

// TestShutdownDrains verifies graceful shutdown returns only after
// in-flight requests complete — and that the drained request still gets a
// full response.
func TestShutdownDrains(t *testing.T) {
	for _, ep := range fetchEndpoints {
		t.Run(ep, func(t *testing.T) {
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
			}
			resCh := make(chan result, 1)
			go func() {
				code, fr := fetchOver(t, client, base, "GET", ep, g.PageURLs[0])
				resCh <- result{code, fr}
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
			if r.code != http.StatusOK {
				t.Fatalf("drained request: code=%d", r.code)
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
		})
	}
}

// TestFetchWorkerPoolBounds verifies the pool caps concurrent origin
// fetches: with 2 workers and 6 distinct cold URLs in flight, the origin
// never sees more than 2 concurrent fetches. A miss storm holds one slot:
// while one is parked at the origin, another cold URL still gets there.
func TestFetchWorkerPoolBounds(t *testing.T) {
	for _, ep := range fetchEndpoints {
		t.Run(ep, func(t *testing.T) {
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
					if code, _ := fetchOver(t, client, ts.URL, "GET", ep, u); code != http.StatusOK {
						t.Errorf("fetch %s = %d", u, code)
					}
				}(u)
			}

			// Wait for both workers to be parked on the gate, release the
			// storm, then judge the pool by its concurrency high-water mark:
			// it must have reached the bound (both tokens arrived while the
			// gate was closed) and never exceeded it — no saturation sleep
			// needed.
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
		})
	}
	t.Run("a storm holds one slot", func(t *testing.T) {
		s, origin, g := newGatedGateway(t, Config{FetchWorkers: 2})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		client := ts.Client()

		origin.started = make(chan struct{}, 4)
		const storm = 50
		var wg sync.WaitGroup
		for i := 0; i < storm; i++ {
			wg.Add(1)
			go func(ep string) {
				defer wg.Done()
				if code, _ := fetchOver(t, client, ts.URL, "GET", ep, g.PageURLs[0]); code != http.StatusOK {
					t.Errorf("storm %s = %d", ep, code)
				}
			}(fetchEndpoints[i%2])
		}
		awaitCoalesced(t, s, origin, storm-1)
		<-origin.started // the storm's one fetch, parked at the origin

		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _ := fetchOver(t, client, ts.URL, "GET", "/body", g.PageURLs[1]); code != http.StatusOK {
				t.Errorf("second cold URL = %d", code)
			}
		}()
		select {
		case <-origin.started:
		case <-time.After(10 * time.Second):
			t.Fatal("a cold URL never reached the origin while a storm was parked on another")
		}
		close(origin.gate)
		wg.Wait()
		if n := origin.fetches.Load(); n != 2 {
			t.Fatalf("origin fetches = %d, want 2", n)
		}
	})
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
