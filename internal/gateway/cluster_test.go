package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/peers"
	"cbfww/internal/resilience"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// getPeerPage fetches and parses a framed /peer/fetch answer, returning
// the status code for non-200 responses.
func getPeerPage(t *testing.T, client *http.Client, u string) (peers.PeerPage, int) {
	t.Helper()
	resp, err := client.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return peers.PeerPage{}, resp.StatusCode
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, peers.FrameContentType) {
		t.Fatalf("peer fetch content type = %q, want %q", ct, peers.FrameContentType)
	}
	m, page, err := peers.ReadFrame(resp.Body)
	if err != nil {
		t.Fatalf("read frame %s: %v", u, err)
	}
	return peers.PeerPage{Page: page, Source: m.Source, LatencyTicks: m.LatencyTicks, Stale: m.Stale}, resp.StatusCode
}

// newClusterGateway builds warehouse + server with a peer ring configured
// as self plus the given peers (addresses need not be live).
func newClusterGateway(t *testing.T, self string, peerAddrs []string, redirect bool) (*Server, *peers.Cluster, *workload.GeneratedWeb) {
	t.Helper()
	g := testWeb(t)
	wh, err := warehouse.New(warehouse.DefaultConfig(), core.NewSimClock(0), g.Web)
	if err != nil {
		t.Fatalf("warehouse.New: %v", err)
	}
	cl := peers.NewCluster(peers.Config{
		Timeout: 200 * time.Millisecond,
		Breaker: resilience.BreakerConfig{Threshold: 2, Cooldown: time.Minute},
	})
	cl.Configure(self, append(peerAddrs, self))
	wh.SetPeerSource(cl)
	s, err := New(Config{Cluster: cl, Redirect: redirect}, wh)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	return s, cl, g
}

// nonReplicaURL finds a page whose replica set excludes self — the only
// kind of URL the gateway routes away under replicated ownership.
func nonReplicaURL(t *testing.T, cl *peers.Cluster, urls []string) (pageURL string, owners []string) {
	t.Helper()
	for _, u := range urls {
		if o, selfIn := cl.Owners(u); !selfIn {
			return u, o
		}
	}
	t.Fatal("no URL with a self-free replica set in the generated web")
	return "", nil
}

// selfOwnedURL finds a page whose primary owner is this node.
func selfOwnedURL(t *testing.T, cl *peers.Cluster, urls []string) string {
	t.Helper()
	for _, u := range urls {
		if owners, _ := cl.Owners(u); len(owners) == 0 || owners[0] == cl.Self() {
			return u
		}
	}
	t.Fatal("no self-owned URL in the generated web")
	return ""
}

// TestStatsClusterSectionStandalone: a daemon with no cluster still
// renders the section — disabled, empty peer list, never null.
func TestStatsClusterSectionStandalone(t *testing.T) {
	s, _, _ := newGatedGateway(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var stats StatsResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	if stats.Cluster.Enabled {
		t.Error("standalone daemon reports cluster enabled")
	}
	if stats.Cluster.Peers == nil {
		t.Error("cluster.peers is null, want []")
	}
	if len(stats.Cluster.Peers) != 0 {
		t.Errorf("standalone peers = %v, want empty", stats.Cluster.Peers)
	}
}

// TestStatsClusterSectionSingleNode: a configured single-node cluster is
// enabled with itself as the only member and no peers.
func TestStatsClusterSectionSingleNode(t *testing.T) {
	s, _, _ := newClusterGateway(t, "127.0.0.1:7001", nil, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var stats StatsResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	c := stats.Cluster
	if !c.Enabled || c.Self != "127.0.0.1:7001" || c.Members != 1 || c.VNodes != peers.DefaultVNodes {
		t.Errorf("cluster section = %+v, want enabled single node with %d vnodes", c, peers.DefaultVNodes)
	}
	if c.Peers == nil || len(c.Peers) != 0 {
		t.Errorf("single-node peers = %v, want empty non-nil", c.Peers)
	}
}

// TestStatsClusterSectionCounters: routing activity shows up per peer.
func TestStatsClusterSectionCounters(t *testing.T) {
	// Both peer addresses are dead on purpose: with replicas=2 on a
	// three-member ring, a URL whose replica set excludes self has both
	// its replicas dead, so proxies fail, breakers open, and the
	// routed-around fallback all become observable in /stats.
	deadA, deadB := "127.0.0.1:1", "127.0.0.1:2"
	s, cl, g := newClusterGateway(t, "127.0.0.1:7002", []string{deadA, deadB}, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u, owners := nonReplicaURL(t, cl, g.PageURLs)
	if len(owners) != 2 {
		t.Fatalf("owners = %v, want 2 replicas", owners)
	}
	for i := 0; i < 4; i++ {
		if code := getJSON(t, ts.Client(), ts.URL+"/fetch?url="+url.QueryEscape(u), nil); code != http.StatusOK {
			t.Fatalf("fetch with dead replicas = %d, want 200 (local fallback)", code)
		}
	}

	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/stats", &stats)
	if stats.Cluster.Replicas != 2 {
		t.Errorf("cluster.replicas = %d, want 2", stats.Cluster.Replicas)
	}
	if len(stats.Cluster.Peers) != 2 {
		t.Fatalf("peers = %+v, want the two dead peers", stats.Cluster.Peers)
	}
	var proxyFailures, routedAround uint64
	opened := 0
	for _, p := range stats.Cluster.Peers {
		proxyFailures += p.ProxyFailures
		routedAround += p.RoutedAround
		if p.Breaker == "open" {
			opened++
		}
	}
	if proxyFailures == 0 {
		t.Errorf("peer stats = %+v, want proxy failures against the dead replicas", stats.Cluster.Peers)
	}
	if opened == 0 {
		t.Errorf("no breaker open after repeated proxy failures (threshold 2): %+v", stats.Cluster.Peers)
	}
	if routedAround == 0 {
		t.Errorf("routed_around = 0, want > 0 once a breaker opened")
	}
}

// TestForwardedLoopGuard: the hop-list guard lets legitimate forwards
// land (credited to the sender) and breaks true cycles — a request whose
// hop list already names this node is served locally without another hop.
func TestForwardedLoopGuard(t *testing.T) {
	self := "127.0.0.1:7003"
	deadA, deadB := "127.0.0.1:1", "127.0.0.1:2"
	s, cl, g := newClusterGateway(t, self, []string{deadA, deadB}, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A legitimate forward: a peer routed a self-replica URL here. Served
	// locally, credited to the immediate sender.
	u := selfOwnedURL(t, cl, g.PageURLs)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/fetch?url="+url.QueryEscape(u), nil)
	req.Header.Set(peers.HeaderFrom, deadA)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("forwarded fetch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded fetch = %d, want 200 served locally", resp.StatusCode)
	}
	if got := resp.Header.Get(peers.HeaderNode); got != self {
		t.Errorf("X-CBFWW-Node = %q, want self", got)
	}
	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/stats", &stats)
	var forwarded uint64
	for _, p := range stats.Cluster.Peers {
		forwarded += p.Forwarded
	}
	if forwarded != 1 {
		t.Errorf("forwarded counter = %d, want 1", forwarded)
	}

	// A true cycle: the hop list already names this node. Even though the
	// replica set excludes self, the request must not be forwarded again —
	// local serve, and no proxy attempts burned on it.
	cu, owners := nonReplicaURL(t, cl, g.PageURLs)
	before := proxyFailureTotal(t, ts)
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/fetch?url="+url.QueryEscape(cu), nil)
	req.Header.Set(peers.HeaderFrom, peers.AppendHop(owners[0], self))
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatalf("cyclic fetch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cyclic fetch = %d, want 200 served locally", resp.StatusCode)
	}
	if got := resp.Header.Get(peers.HeaderNode); got != self {
		t.Errorf("cyclic X-CBFWW-Node = %q, want self (never re-proxy a seen request)", got)
	}
	if after := proxyFailureTotal(t, ts); after != before {
		t.Errorf("cyclic request burned proxy attempts: failures %d -> %d", before, after)
	}
}

// proxyFailureTotal sums proxy_failures across all peers in /stats.
func proxyFailureTotal(t *testing.T, ts *httptest.Server) uint64 {
	t.Helper()
	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/stats", &stats)
	var total uint64
	for _, p := range stats.Cluster.Peers {
		total += p.ProxyFailures
	}
	return total
}

// TestSelfOwnedServesLocally: self-owned URLs never touch the (dead)
// peer, and responses carry the identity headers.
func TestSelfOwnedServesLocally(t *testing.T) {
	self := "127.0.0.1:7004"
	s, cl, g := newClusterGateway(t, self, []string{"127.0.0.1:1"}, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u := selfOwnedURL(t, cl, g.PageURLs)
	resp, err := ts.Client().Get(ts.URL + "/fetch?url=" + url.QueryEscape(u))
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("self-owned fetch = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(peers.HeaderNode); got != self {
		t.Errorf("X-CBFWW-Node = %q, want %q", got, self)
	}
	if got := resp.Header.Get(peers.HeaderOwner); got != self {
		t.Errorf("X-CBFWW-Owner = %q, want %q", got, self)
	}
}

// TestRedirectMode: -redirect turns ownership routing into 307s aimed at
// the first healthy replica, counted per peer — and a Down primary moves
// the 307 to the next replica instead of failing.
func TestRedirectMode(t *testing.T) {
	s, cl, g := newClusterGateway(t, "127.0.0.1:7005", []string{"127.0.0.1:1", "127.0.0.1:2"}, true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u, owners := nonReplicaURL(t, cl, g.PageURLs)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(ts.URL + "/fetch?url=" + url.QueryEscape(u))
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect-mode fetch = %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	want := "http://" + owners[0] + "/fetch?url=" + url.QueryEscape(u)
	if loc != want {
		t.Errorf("Location = %q, want %q (primary replica)", loc, want)
	}

	// Primary goes Down: the 307 aims at the surviving replica.
	cl.SetPeerDown(owners[0], true)
	resp, err = client.Get(ts.URL + "/fetch?url=" + url.QueryEscape(u))
	if err != nil {
		t.Fatalf("fetch with primary down: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect with primary down = %d, want 307 to the next replica", resp.StatusCode)
	}
	want = "http://" + owners[1] + "/fetch?url=" + url.QueryEscape(u)
	if loc := resp.Header.Get("Location"); loc != want {
		t.Errorf("failover Location = %q, want %q", loc, want)
	}

	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/stats", &stats)
	var redirects, routedAround uint64
	for _, p := range stats.Cluster.Peers {
		redirects += p.Redirects
		if p.Addr == owners[0] {
			routedAround = p.RoutedAround
		}
	}
	if redirects != 2 {
		t.Errorf("redirects = %d, want 2", redirects)
	}
	if routedAround == 0 {
		t.Errorf("routed_around = 0 for the Down primary, want > 0")
	}
}

// TestPeerFetchEndpoint: /peer/fetch answers resident pages and 404s
// cold ones without ever fetching the origin.
func TestPeerFetchEndpoint(t *testing.T) {
	s, cl, g := newClusterGateway(t, "127.0.0.1:7006", nil, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u := selfOwnedURL(t, cl, g.PageURLs)
	if code := getJSON(t, ts.Client(), ts.URL+"/fetch?url="+url.QueryEscape(u), nil); code != http.StatusOK {
		t.Fatalf("admitting fetch = %d", code)
	}
	fetchesAfterAdmit := g.Web.TotalFetches()

	pp, code := getPeerPage(t, ts.Client(), ts.URL+peers.PeerFetchPath+"?url="+url.QueryEscape(u))
	if code != http.StatusOK {
		t.Fatalf("peer fetch of resident page = %d, want 200", code)
	}
	if pp.Page.URL != u || pp.Page.Body == "" {
		t.Errorf("peer page = %+v, want the admitted copy of %s", pp.Page, u)
	}
	if pp.Source == "" || pp.Source == "origin" || pp.Source == "peer" {
		t.Errorf("peer-fetch source = %q, want a resident tier name", pp.Source)
	}

	cold := "http://never-admitted.example/missing.html"
	if code := getJSON(t, ts.Client(), ts.URL+peers.PeerFetchPath+"?url="+url.QueryEscape(cold), nil); code != http.StatusNotFound {
		t.Fatalf("peer fetch of cold page = %d, want 404", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+peers.PeerFetchPath, nil); code != http.StatusBadRequest {
		t.Fatalf("peer fetch without url = %d, want 400", code)
	}
	if got := g.Web.TotalFetches(); got != fetchesAfterAdmit {
		t.Errorf("peer fetches changed origin fetch count %d -> %d; must be resident-only", fetchesAfterAdmit, got)
	}
}

// TestPeerPutEndpoint: /peer/put admits a pushed payload without an
// origin fetch, refuses stale re-pushes, counts the sender, and rejects
// malformed bodies.
func TestPeerPutEndpoint(t *testing.T) {
	sender := "127.0.0.1:1"
	s, _, g := newClusterGateway(t, "127.0.0.1:7007", []string{sender}, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u := g.PageURLs[0]
	fr, err := g.Web.FetchCtx(context.Background(), u)
	if err != nil {
		t.Fatalf("origin fetch for the push payload: %v", err)
	}
	fetchesBefore := g.Web.TotalFetches()

	post := func(contentType string, body io.Reader) (int, map[string]bool) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+peers.PeerPutPath, body)
		req.Header.Set("Content-Type", contentType)
		req.Header.Set(peers.HeaderFrom, sender)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("peer put: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]bool
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	push := func(u string, page core.Page) (int, map[string]bool) {
		t.Helper()
		meta := peers.PageMeta(page)
		meta.URL = u
		line, err := peers.EncodeFrameMeta(meta)
		if err != nil {
			t.Fatal(err)
		}
		return post(peers.FrameContentType, io.MultiReader(bytes.NewReader(line), strings.NewReader(page.Body)))
	}

	if code, out := push(u, fr.Page); code != http.StatusOK || !out["admitted"] {
		t.Fatalf("cold push = %d %v, want 200 admitted", code, out)
	}
	// The pushed copy is resident: /peer/fetch serves it without any
	// origin traffic.
	if _, code := getPeerPage(t, ts.Client(), ts.URL+peers.PeerFetchPath+"?url="+url.QueryEscape(u)); code != http.StatusOK {
		t.Fatalf("peer fetch after push = %d, want 200 resident", code)
	}
	if got := g.Web.TotalFetches(); got != fetchesBefore {
		t.Errorf("replica push touched the origin: fetches %d -> %d", fetchesBefore, got)
	}
	// Same version again is an honest no-op, not an error.
	if code, out := push(u, fr.Page); code != http.StatusOK || out["admitted"] {
		t.Errorf("same-version push = %d %v, want 200 not admitted", code, out)
	}

	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/stats", &stats)
	if len(stats.Cluster.Peers) != 1 || stats.Cluster.Peers[0].ReplicaReceived != 2 {
		t.Errorf("peer stats = %+v, want replica_received = 2 for %s", stats.Cluster.Peers, sender)
	}
	if stats.Warehouse.ReplicaAdmits != 1 {
		t.Errorf("warehouse replica_admits = %d, want 1", stats.Warehouse.ReplicaAdmits)
	}

	// Malformed bodies are the client's problem: a torn frame, a frame
	// naming no URL, and any content type but the frame's — the JSON body
	// earlier builds accepted included.
	if code, _ := post(peers.FrameContentType, strings.NewReader("{not a frame")); code != http.StatusBadRequest {
		t.Errorf("garbage push = %d, want 400", code)
	}
	if code, _ := push("", core.Page{}); code != http.StatusBadRequest {
		t.Errorf("empty push = %d, want 400", code)
	}
	legacy, _ := json.Marshal(map[string]any{"url": u, "page": fr.Page})
	if code, _ := post("application/json", bytes.NewReader(legacy)); code != http.StatusBadRequest {
		t.Errorf("JSON push = %d, want 400", code)
	}
}

// TestHealthzDegraded: /healthz stays 200 but flips to "degraded" with a
// complaint while a peer is Down, and recovers to "ok".
func TestHealthzDegraded(t *testing.T) {
	peer := "127.0.0.1:1"
	s, cl, _ := newClusterGateway(t, "127.0.0.1:7008", []string{peer}, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var hz HealthzResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if hz.Status != "ok" || len(hz.Detail) != 0 {
		t.Fatalf("healthy node reports %+v, want ok with no detail", hz)
	}

	cl.SetPeerDown(peer, true)
	if code := getJSON(t, ts.Client(), ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("degraded healthz = %d, want 200 (degraded is alive)", code)
	}
	if hz.Status != "degraded" || len(hz.Detail) == 0 {
		t.Fatalf("with a Down peer healthz = %+v, want degraded with detail", hz)
	}
	if !strings.Contains(hz.Detail[0], peer) || !strings.Contains(hz.Detail[0], "down") {
		t.Errorf("detail = %q, want it to name the Down peer", hz.Detail)
	}

	cl.SetPeerDown(peer, false)
	getJSON(t, ts.Client(), ts.URL+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Errorf("after recovery healthz = %+v, want ok", hz)
	}
}
