package peers

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/resilience"
)

// fakePeer is an httptest stand-in for a remote gateway's /peer/fetch:
// it holds a resident set and counts probes.
type fakePeer struct {
	srv    *httptest.Server
	pages  map[string]core.Page
	probes atomic.Int64
}

func newFakePeer(pages map[string]core.Page) *fakePeer {
	p := &fakePeer{pages: pages}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PeerFetchPath, func(w http.ResponseWriter, r *http.Request) {
		p.probes.Add(1)
		u := r.URL.Query().Get("url")
		page, ok := p.pages[u]
		if !ok {
			http.NotFound(w, r)
			return
		}
		meta := PageMeta(page)
		meta.Source, meta.LatencyTicks = "memory", 3
		line, _ := EncodeFrameMeta(meta)
		w.Header().Set("Content-Type", FrameContentType)
		w.Write(line)
		io.WriteString(w, page.Body)
	})
	p.srv = httptest.NewServer(mux)
	return p
}

func (p *fakePeer) addr() string { return strings.TrimPrefix(p.srv.URL, "http://") }

func newTestCluster(t *testing.T, self string, peerAddrs ...string) *Cluster {
	t.Helper()
	c := NewCluster(Config{
		Timeout: time.Second,
		Breaker: resilience.BreakerConfig{Threshold: 2, Cooldown: time.Minute},
	})
	c.Configure(self, append(peerAddrs, self))
	return c
}

func TestClusterUnconfigured(t *testing.T) {
	var nilCluster *Cluster
	if nilCluster.Enabled() {
		t.Error("nil cluster reports enabled")
	}
	if owners, selfIn := nilCluster.Owners("http://a.example/"); !selfIn || owners != nil {
		t.Error("nil cluster should self-own everything")
	}
	st := nilCluster.Stats()
	if st.Enabled || st.Peers == nil || len(st.Peers) != 0 {
		t.Errorf("nil cluster stats = %+v, want disabled with empty non-nil peers", st)
	}

	c := NewCluster(Config{})
	if c.Enabled() {
		t.Error("unconfigured cluster reports enabled")
	}
	if owners, selfIn := c.Owners("http://a.example/"); !selfIn || owners != nil {
		t.Errorf("unconfigured Owners = (%q, %v), want self-owned", owners, selfIn)
	}
	if _, ok := c.FetchResident(context.Background(), "http://a.example/"); ok {
		t.Error("unconfigured FetchResident reported a hit")
	}
}

func TestClusterConfigureSingleNode(t *testing.T) {
	c := NewCluster(Config{})
	c.Configure("127.0.0.1:1", []string{"127.0.0.1:1"})
	if !c.Enabled() {
		t.Fatal("configured cluster not enabled")
	}
	if peers := c.state.Load().peers; len(peers) != 0 {
		t.Fatalf("single-node peers = %v, want none", peers)
	}
	st := c.Stats()
	if !st.Enabled || st.Members != 1 || len(st.Peers) != 0 || st.Peers == nil {
		t.Errorf("single-node stats = %+v, want enabled, 1 member, empty non-nil peers", st)
	}
	if owners, selfIn := c.Owners("http://a.example/x"); !selfIn || len(owners) != 1 || owners[0] != "127.0.0.1:1" {
		t.Errorf("Owners = (%q, %v), want self", owners, selfIn)
	}
}

func TestFetchResidentHit(t *testing.T) {
	u := "http://a.example/hot.html"
	holder := newFakePeer(map[string]core.Page{u: {URL: u, Title: "hot", Body: "payload", Size: 2 * core.KB}})
	defer holder.srv.Close()
	empty := newFakePeer(nil)
	defer empty.srv.Close()

	c := newTestCluster(t, "127.0.0.1:1", holder.addr(), empty.addr())
	res, ok := c.FetchResident(context.Background(), u)
	if !ok {
		t.Fatal("FetchResident missed a resident peer copy")
	}
	if res.Page.Body != "payload" || res.Latency != 3 {
		t.Errorf("result = %+v, want the peer's page with latency 3", res)
	}
	var hits, misses uint64
	for _, p := range c.Stats().Peers {
		hits += p.PeerHits
		misses += p.PeerMisses
	}
	if hits != 1 {
		t.Errorf("peer hits = %d, want 1", hits)
	}
	// Owner-first ordering may or may not have probed the empty peer; a
	// hit must stop the sweep, so at most one miss.
	if misses > 1 {
		t.Errorf("peer misses = %d, want <= 1", misses)
	}
}

func TestFetchResidentMissAndFailure(t *testing.T) {
	empty := newFakePeer(nil)
	defer empty.srv.Close()
	dead := newFakePeer(nil)
	dead.srv.Close() // connection refused

	c := newTestCluster(t, "127.0.0.1:1", empty.addr(), dead.addr())
	if _, ok := c.FetchResident(context.Background(), "http://a.example/cold.html"); ok {
		t.Fatal("FetchResident hit on a cluster with no copies")
	}
	var misses, failures uint64
	for _, p := range c.Stats().Peers {
		misses += p.PeerMisses
		failures += p.ProbeFailures
	}
	if misses != 1 || failures != 1 {
		t.Errorf("misses=%d failures=%d, want 1 and 1", misses, failures)
	}
}

func TestBreakerSkipsDeadPeer(t *testing.T) {
	dead := newFakePeer(nil)
	dead.srv.Close()
	addr := dead.addr()

	c := newTestCluster(t, "127.0.0.1:1", addr) // threshold 2
	ctx := context.Background()
	c.FetchResident(ctx, "http://a.example/1")
	c.FetchResident(ctx, "http://a.example/2")
	if got := c.BreakerState(addr); got != "open" {
		t.Fatalf("breaker after %d failures = %q, want open", 2, got)
	}
	c.FetchResident(ctx, "http://a.example/3")
	var failures, around uint64
	for _, p := range c.Stats().Peers {
		failures += p.ProbeFailures
		around += p.RoutedAround
	}
	if failures != 2 {
		t.Errorf("probe failures = %d, want 2 (third probe skipped by breaker)", failures)
	}
	if around != 1 {
		t.Errorf("routed around = %d, want 1", around)
	}
}

func TestProxySuccess(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderFrom) == "" {
			t.Error("proxied request missing From header")
		}
		w.Header().Set(HeaderNode, "owner-node")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	c := newTestCluster(t, "127.0.0.1:1", ownerAddr)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/fetch?url="+url.QueryEscape("http://a.example/p"), nil)
	if !c.Proxy(rec, req, ownerAddr) {
		t.Fatal("Proxy returned false against a healthy owner")
	}
	if rec.Code != http.StatusOK || rec.Header().Get(HeaderNode) != "owner-node" {
		t.Errorf("proxied response: code=%d node=%q", rec.Code, rec.Header().Get(HeaderNode))
	}
	if got := c.Stats().Peers[0].Proxied; got != 1 {
		t.Errorf("proxied counter = %d, want 1", got)
	}
}

func TestProxyFallsBackOn5xxAndDeath(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	failAddr := strings.TrimPrefix(failing.URL, "http://")

	dead := newFakePeer(nil)
	dead.srv.Close()

	c := newTestCluster(t, "127.0.0.1:1", failAddr, dead.addr())

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/fetch?url=x", nil)
	if c.Proxy(rec, req, failAddr) {
		t.Fatal("Proxy reported success against a 5xx owner")
	}
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("5xx fallback wrote to the client: code=%d body=%q (must stay pristine for local serve)",
			rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	if c.Proxy(rec, httptest.NewRequest(http.MethodGet, "/fetch?url=x", nil), dead.addr()) {
		t.Fatal("Proxy reported success against a dead owner")
	}

	// Drive the dead peer's breaker open (threshold 2; the retry loop
	// already reported failures), then confirm open-breaker refusal.
	for i := 0; i < 3; i++ {
		c.Proxy(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/fetch?url=x", nil), dead.addr())
	}
	if got := c.BreakerState(dead.addr()); got != "open" {
		t.Fatalf("dead peer breaker = %q, want open", got)
	}
	var around uint64
	for _, p := range c.Stats().Peers {
		around += p.RoutedAround
	}
	if around == 0 {
		t.Error("open breaker never counted a routed-around request")
	}
}

func TestProxyNilAndDisabled(t *testing.T) {
	var nilCluster *Cluster
	rec := httptest.NewRecorder()
	if nilCluster.Proxy(rec, httptest.NewRequest(http.MethodGet, "/fetch", nil), "x:1") {
		t.Error("nil cluster proxied")
	}
	if NewCluster(Config{}).Proxy(rec, httptest.NewRequest(http.MethodGet, "/fetch", nil), "x:1") {
		t.Error("unconfigured cluster proxied")
	}
}

func TestCountersSurviveReconfigure(t *testing.T) {
	c := newTestCluster(t, "a:1", "b:2")
	c.CountRedirect("b:2")
	c.Configure("a:1", []string{"a:1", "b:2", "c:3"})
	var redirects uint64
	for _, p := range c.Stats().Peers {
		if p.Addr == "b:2" {
			redirects = p.Redirects
		}
	}
	if redirects != 1 {
		t.Errorf("redirect counter after reconfigure = %d, want 1", redirects)
	}
	if got := len(c.Stats().Peers); got != 2 {
		t.Errorf("peers after growing to 3 members = %d, want 2", got)
	}
}
