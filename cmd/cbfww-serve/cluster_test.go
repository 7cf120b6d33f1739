package main

// Multi-daemon integration: three cbfww-serve daemons federated with
// -join semantics over real sockets, fetching through a real (and
// fault-injecting) simweb origin socket. Asserts the cluster contract:
// ownership routing with observable headers, a single origin fetch per
// object cluster-wide, and node loss degrading to local fetch + peer
// hits + stale serves — never to request failures.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cbfww/internal/peers"
	"cbfww/internal/simweb"
)

// clusterFixture is the running topology: one shared origin socket and
// one daemon per member, all federated.
type clusterFixture struct {
	origin  *simweb.HTTPOrigin
	daemons []*daemon
	addrs   []string
	urls    []string
	client  *http.Client
	co      clusterOpts
	schema  string
}

// clusterOpts shapes a test topology. The zero value reproduces the PR 6
// single-owner cluster: one owner per URL, no prober, no replication.
type clusterOpts struct {
	redirect       bool
	replicas       int           // replica-set size; 0 = 1 (single-owner)
	probeInterval  time.Duration // health-probe cadence; 0 = inert (hourly)
	probeThreshold int
	faultRate      float64 // injected origin error rate
	strongSchema   bool    // strong consistency (revalidate every serve)
	health         bool    // start each member's prober + replication worker
	fixedAddrs     bool    // pre-reserve ports so members can restart in place
}

// strongSchema writes a schema forcing strong consistency, so every
// resident access revalidates against the origin — the lever that makes
// stale-serve degradation observable when the origin goes dark.
func strongSchema(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "strong.schema")
	if err := os.WriteFile(path, []byte("consistency strong\n"), 0o644); err != nil {
		t.Fatalf("write schema: %v", err)
	}
	return path
}

// startCluster brings up the origin plus n federated daemons. Membership
// is configured after every listener binds (the ephemeral-port dance the
// -join flag does for fixed addresses).
func startCluster(t *testing.T, n int, co clusterOpts) *clusterFixture {
	t.Helper()
	var faults *simweb.FaultConfig
	if co.faultRate > 0 {
		faults = &simweb.FaultConfig{Seed: 9, ErrorRate: co.faultRate}
	}
	origin, urls := startOrigin(t, 4, 10, 42, faults)
	f := &clusterFixture{origin: origin, urls: urls, client: &http.Client{Timeout: 15 * time.Second}, co: co}

	if co.strongSchema {
		f.schema = strongSchema(t)
	}
	bind := make([]string, n)
	if co.fixedAddrs {
		reserved, err := simweb.ReserveAddrs(n)
		if err != nil {
			t.Fatalf("ReserveAddrs: %v", err)
		}
		copy(bind, reserved)
	} else {
		for i := range bind {
			bind[i] = "127.0.0.1:0"
		}
	}
	for i := 0; i < n; i++ {
		d := f.buildDaemon(t, bind[i])
		f.daemons = append(f.daemons, d)
		f.addrs = append(f.addrs, d.srv.Addr())
	}
	for i, d := range f.daemons {
		f.joinRing(d, f.addrs[i])
	}
	t.Cleanup(func() {
		for _, d := range f.daemons {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			d.shutdown(ctx)
			cancel()
		}
	})
	return f
}

// buildDaemon builds and starts one member on addr with the fixture's
// options. Membership is wired separately (joinRing) once every
// listener's address is known.
func (f *clusterFixture) buildDaemon(t *testing.T, addr string) *daemon {
	t.Helper()
	replicas := f.co.replicas
	if replicas == 0 {
		replicas = 1
	}
	probeInterval := f.co.probeInterval
	if probeInterval == 0 {
		probeInterval = time.Hour // inert: tests drive health by hand
	}
	d, err := build(options{
		addr:             addr,
		origin:           f.origin.Addr(),
		schemaFile:       f.schema,
		workers:          8,
		fetchTimeout:     5 * time.Second,
		retry:            4,
		breakerThreshold: 3,
		breakerCooldown:  time.Minute,
		redirect:         f.co.redirect,
		replicas:         replicas,
		probeInterval:    probeInterval,
		probeThreshold:   f.co.probeThreshold,
	})
	if err != nil {
		t.Fatalf("build daemon on %s: %v", addr, err)
	}
	if err := d.start(); err != nil {
		t.Fatalf("start daemon on %s: %v", addr, err)
	}
	return d
}

// joinRing wires one member into the fixture's static ring and, when the
// topology runs health, starts its prober and replication worker.
func (f *clusterFixture) joinRing(d *daemon, self string) {
	d.cluster.Configure(self, f.addrs)
	if f.co.health {
		d.cluster.Start()
	}
}

// kill shuts member i down — the node crash of a chaos run. Its address
// stays in every survivor's ring; only the process goes away.
func (f *clusterFixture) kill(t *testing.T, i int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.daemons[i].shutdown(ctx); err != nil {
		t.Fatalf("kill daemon %d: %v", i, err)
	}
}

// restart brings member i back on its old address with a cold warehouse,
// the way a crashed node rejoins: same ring position, empty memory. The
// bind retries briefly — the OS has just released the port.
func (f *clusterFixture) restart(t *testing.T, i int) {
	t.Helper()
	addr := f.addrs[i]
	deadline := time.Now().Add(5 * time.Second)
	for {
		replicas := f.co.replicas
		if replicas == 0 {
			replicas = 1
		}
		probeInterval := f.co.probeInterval
		if probeInterval == 0 {
			probeInterval = time.Hour
		}
		d, err := build(options{
			addr:             addr,
			origin:           f.origin.Addr(),
			schemaFile:       f.schema,
			workers:          8,
			fetchTimeout:     5 * time.Second,
			retry:            4,
			breakerThreshold: 3,
			breakerCooldown:  time.Minute,
			redirect:         f.co.redirect,
			replicas:         replicas,
			probeInterval:    probeInterval,
			probeThreshold:   f.co.probeThreshold,
		})
		if err != nil {
			t.Fatalf("rebuild daemon %d: %v", i, err)
		}
		if err := d.start(); err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("restart daemon %d on %s: %v", i, addr, err)
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		f.joinRing(d, addr)
		f.daemons[i] = d
		return
	}
}

// fetchView is the slice of the /fetch response (plus routing headers)
// the assertions care about.
type fetchView struct {
	status int
	node   string
	owner  string
	stale  bool
	Body   string `json:"body"`
	Hit    bool   `json:"hit"`
	Source string `json:"source"`
}

// fetchVia GETs pageURL through the daemon at via and fails the test on
// any transport error — the cluster contract is "never fail a request".
func (f *clusterFixture) fetchVia(t *testing.T, via, pageURL string) fetchView {
	t.Helper()
	resp, err := f.client.Get("http://" + via + "/fetch?url=" + url.QueryEscape(pageURL))
	if err != nil {
		t.Fatalf("fetch %s via %s: %v", pageURL, via, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	v := fetchView{
		status: resp.StatusCode,
		node:   resp.Header.Get(peers.HeaderNode),
		owner:  resp.Header.Get(peers.HeaderOwner),
		stale:  resp.Header.Get("X-CBFWW-Stale") == "1",
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("fetch %s via %s: decode: %v (%q)", pageURL, via, err, body)
		}
	}
	return v
}

// urlOwnedBy picks a page URL the ring assigns to addrs[want].
func urlOwnedBy(t *testing.T, ring *peers.Ring, urls []string, owner string) string {
	t.Helper()
	for _, u := range urls {
		if ring.Owner(u) == owner {
			return u
		}
	}
	t.Fatalf("no URL owned by %s among %d pages", owner, len(urls))
	return ""
}

func TestClusterOwnershipAndSingleOriginFetch(t *testing.T) {
	// The PR 6 shape on purpose: single owner per URL, flaky origin,
	// strong consistency. Replication and the prober stay out of the
	// picture so the baseline routing contract stays pinned.
	f := startCluster(t, 3, clusterOpts{faultRate: 0.15, strongSchema: true})
	ring := peers.NewRing(peers.DefaultVNodes, f.addrs)

	// Pick an object owned by the node we will later kill, and two
	// bystander gateways.
	ownerAddr := f.addrs[1]
	u := urlOwnedBy(t, ring, f.urls, ownerAddr)
	gwA, gwC := f.addrs[0], f.addrs[2]

	// Admit via a non-owner gateway: the request must be proxied to the
	// owner, which cold-misses, finds no peer copy, and fetches origin.
	v := f.fetchVia(t, gwA, u)
	if v.status != http.StatusOK || v.Body == "" {
		t.Fatalf("admit via %s = %d %+v", gwA, v.status, v)
	}
	if v.owner != ownerAddr || v.node != ownerAddr {
		t.Errorf("admit headers: node=%q owner=%q, want both %q (proxied to owner)", v.node, v.owner, ownerAddr)
	}
	if v.Source != "origin" || v.Hit {
		t.Errorf("admit result: source=%q hit=%v, want a cold origin fetch", v.Source, v.Hit)
	}
	admittedBody := v.Body

	// Served from every gateway: the owner hits locally; the other
	// bystander proxies. Exactly one origin fetch total.
	v = f.fetchVia(t, ownerAddr, u)
	if v.status != http.StatusOK || !v.Hit || v.node != ownerAddr {
		t.Errorf("owner serve: %+v, want a local hit on %s", v, ownerAddr)
	}
	v = f.fetchVia(t, gwC, u)
	if v.status != http.StatusOK || !v.Hit || v.node != ownerAddr || v.Body != admittedBody {
		t.Errorf("bystander serve: %+v, want the owner's copy proxied through %s", v, gwC)
	}
	if got := f.origin.Web().FetchCount(u); got != 1 {
		t.Fatalf("origin fetches after cluster-wide serves = %d, want exactly 1", got)
	}

	// The proxying gateways' ledgers saw the traffic.
	var proxied uint64
	for _, p := range f.daemons[0].cluster.Stats().Peers {
		proxied += p.Proxied
	}
	if proxied == 0 {
		t.Error("gateway A proxied counter = 0 after routing to the owner")
	}

	// --- Node loss: kill the owner mid-test. ---
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := f.daemons[1].shutdown(ctx); err != nil {
		t.Fatalf("shutdown owner: %v", err)
	}
	cancel()

	// Gateway A holds no copy: its proxy dies, it falls back locally,
	// probes peers (owner dead, C empty), and re-fetches from origin —
	// degraded locality, not a failed request.
	v = f.fetchVia(t, gwA, u)
	if v.status != http.StatusOK {
		t.Fatalf("fetch with dead owner via %s = %d, want 200 (local fallback)", gwA, v.status)
	}
	if v.node != gwA || v.Source != "origin" {
		t.Errorf("dead-owner fallback: node=%q source=%q, want %s serving its own origin fetch", v.node, v.Source, gwA)
	}
	if got := f.origin.Web().FetchCount(u); got != 2 {
		t.Errorf("origin fetches after owner loss = %d, want 2 (one re-admission)", got)
	}

	// Gateway C also falls back — but now A holds a copy, so C's peer
	// probe finds it: no third origin fetch.
	v = f.fetchVia(t, gwC, u)
	if v.status != http.StatusOK {
		t.Fatalf("fetch with dead owner via %s = %d, want 200", gwC, v.status)
	}
	if v.Source != "peer" {
		t.Errorf("bystander fallback source = %q, want \"peer\" (A's copy found before origin)", v.Source)
	}
	if got := f.origin.Web().FetchCount(u); got != 2 {
		t.Errorf("origin fetches after peer-hit fallback = %d, want still 2", got)
	}
	if got := f.daemons[2].wh.Stats().PeerFetches; got == 0 {
		t.Error("warehouse C peer-fetch counter = 0 after a peer admission")
	}

	// Repeated traffic opens the dead owner's breaker; requests keep
	// succeeding, now routed around without proxy attempts.
	for i := 0; i < 3; i++ {
		if v := f.fetchVia(t, gwA, u); v.status != http.StatusOK {
			t.Fatalf("fetch %d with open breaker = %d, want 200", i, v.status)
		}
	}
	if got := f.daemons[0].cluster.BreakerState(ownerAddr); got != "open" {
		t.Errorf("A's breaker for dead owner = %q, want open", got)
	}
	var around uint64
	for _, p := range f.daemons[0].cluster.Stats().Peers {
		around += p.RoutedAround
	}
	if around == 0 {
		t.Error("routed_around = 0 after breaker opened")
	}

	// --- Origin loss: blackout the page's host. Strong consistency makes
	// every resident serve revalidate; with the origin dark that fails,
	// and the warehouse degrades to its admitted copy, flagged stale.
	host := strings.TrimPrefix(u, "http://")
	host = host[:strings.IndexByte(host, '/')]
	f.origin.Blackout(host, true)
	v = f.fetchVia(t, gwA, u)
	if v.status != http.StatusOK || v.Body != admittedBody {
		t.Fatalf("blackout serve = %d, want 200 with the admitted copy", v.status)
	}
	if !v.stale {
		t.Error("blackout serve not flagged X-CBFWW-Stale")
	}
	if got := f.origin.Web().FetchCount(u); got != 2 {
		t.Errorf("origin fetches after blackout serves = %d, want still 2", got)
	}

	// The /stats cluster section on a surviving node reflects the run.
	resp, err := f.client.Get("http://" + gwA + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Cluster peers.ClusterStats `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if !stats.Cluster.Enabled || stats.Cluster.Members != 3 || len(stats.Cluster.Peers) != 2 {
		t.Errorf("cluster stats = %+v, want enabled with 3 members and 2 peers", stats.Cluster)
	}
	var openSeen bool
	for _, p := range stats.Cluster.Peers {
		if p.Addr == ownerAddr && p.Breaker == "open" {
			openSeen = true
		}
	}
	if !openSeen {
		t.Errorf("stats does not show the dead owner's breaker open: %+v", stats.Cluster.Peers)
	}
}

// TestClusterRedirectMode: with -redirect the non-owner answers 307
// pointing at the owner instead of proxying, and a redirect-following
// client lands on the owner's serve.
func TestClusterRedirectMode(t *testing.T) {
	f := startCluster(t, 2, clusterOpts{redirect: true, faultRate: 0.15, strongSchema: true})
	ring := peers.NewRing(peers.DefaultVNodes, f.addrs)
	ownerAddr := f.addrs[1]
	u := urlOwnedBy(t, ring, f.urls, ownerAddr)

	noFollow := &http.Client{
		Timeout: 15 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	resp, err := noFollow.Get("http://" + f.addrs[0] + "/fetch?url=" + url.QueryEscape(u))
	if err != nil {
		t.Fatalf("redirect fetch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner fetch = %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "http://"+ownerAddr+"/fetch") {
		t.Fatalf("Location = %q, want the owner %s", loc, ownerAddr)
	}

	// Following the redirect (default client behavior) serves the page.
	v := f.fetchVia(t, f.addrs[0], u)
	if v.status != http.StatusOK || v.Body == "" || v.node != ownerAddr {
		t.Fatalf("followed redirect = %d node=%q, want the owner's serve", v.status, v.node)
	}
	if got := f.origin.Web().FetchCount(u); got != 1 {
		t.Errorf("origin fetches = %d, want 1", got)
	}
}

// waitUntil polls cond every 5ms for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// residentOn reports whether node holds url, via the resident-only probe
// endpoint (never triggers an origin fetch).
func (f *clusterFixture) residentOn(node, pageURL string) bool {
	resp, err := f.client.Get("http://" + node + peers.PeerFetchPath + "?url=" + url.QueryEscape(pageURL))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// peerStat digs addr's row out of d's cluster stats.
func peerStat(d *daemon, addr string) (peers.PeerStat, bool) {
	for _, p := range d.cluster.Stats().Peers {
		if p.Addr == addr {
			return p, true
		}
	}
	return peers.PeerStat{}, false
}

// TestClusterChaosKillRestart is the replication chaos run: three
// daemons, R=2, fault-free origin. Kill a node mid-workload — reads of
// everything already admitted keep succeeding off the surviving replicas
// with ZERO origin refetches and zero failed requests; writes destined
// for the dead node park in hinted handoff. Restart it — the handoff
// drains into it and the health view flips back Up.
func TestClusterChaosKillRestart(t *testing.T) {
	f := startCluster(t, 3, clusterOpts{
		replicas:       2,
		probeInterval:  25 * time.Millisecond,
		probeThreshold: 2,
		health:         true,
		fixedAddrs:     true,
	})
	ring := peers.NewRing(peers.DefaultVNodes, f.addrs)
	victim := f.addrs[1]
	survivors := []*daemon{f.daemons[0], f.daemons[2]}
	survivorAddrs := []string{f.addrs[0], f.addrs[2]}

	// URLs replicated on the victim are the interesting ones: its death
	// must cost nothing for them.
	var onVictim []string
	for _, u := range f.urls {
		for _, o := range ring.Owners(u, 2) {
			if o == victim {
				onVictim = append(onVictim, u)
				break
			}
		}
	}
	if len(onVictim) < 11 {
		t.Fatalf("only %d URLs replicate on the victim, need 11", len(onVictim))
	}
	admitted := onVictim[:8]

	// --- Phase 1: admit through rotating gateways; replication must land
	// a second copy on every replica before we pull the plug.
	for i, u := range admitted {
		if v := f.fetchVia(t, f.addrs[i%3], u); v.status != http.StatusOK {
			t.Fatalf("admit %s = %d", u, v.status)
		}
	}
	for _, u := range admitted {
		u := u
		owners := ring.Owners(u, 2)
		waitUntil(t, "replicas of "+u, func() bool {
			for _, o := range owners {
				if !f.residentOn(o, u) {
					return false
				}
			}
			return true
		})
		if got := f.origin.Web().FetchCount(u); got != 1 {
			t.Fatalf("origin fetches for %s after replication = %d, want 1 (pushes must not refetch)", u, got)
		}
	}

	// --- Phase 2: kill the victim. Every admitted object still has a
	// live replica; reads succeed from any gateway without origin help.
	f.kill(t, 1)
	for pass := 0; pass < 2; pass++ {
		for i, u := range admitted {
			if v := f.fetchVia(t, survivorAddrs[(i+pass)%2], u); v.status != http.StatusOK {
				t.Fatalf("read of %s with victim dead = %d, want 200", u, v.status)
			}
		}
	}
	for _, u := range admitted {
		if got := f.origin.Web().FetchCount(u); got != 1 {
			t.Errorf("origin fetches for %s after node loss = %d, want still 1 (zero refetches)", u, got)
		}
	}
	waitUntil(t, "survivors to mark the victim Down", func() bool {
		return survivors[0].cluster.PeerDown(victim) && survivors[1].cluster.PeerDown(victim)
	})
	if ps, ok := peerStat(survivors[0], victim); !ok || ps.Health != "down" || ps.WentDown == 0 {
		t.Errorf("survivor stats for dead victim = %+v, want health down", ps)
	}

	// --- Phase 3: admissions while the victim is Down park their
	// replication pushes in hinted handoff instead of losing them.
	handedOff := onVictim[8:11]
	for i, u := range handedOff {
		if v := f.fetchVia(t, survivorAddrs[i%2], u); v.status != http.StatusOK {
			t.Fatalf("admit %s with victim dead = %d, want 200", u, v.status)
		}
	}
	waitUntil(t, "handoff to park the victim's copies", func() bool {
		var queued int
		for _, d := range survivors {
			if ps, ok := peerStat(d, victim); ok {
				queued += ps.HandoffQueued
			}
		}
		return queued >= len(handedOff)
	})

	// --- Phase 4: restart the victim in place. The survivors' probers
	// notice, flip it Up, and drain the parked payloads into it — no
	// origin traffic involved.
	f.restart(t, 1)
	waitUntil(t, "survivors to mark the victim Up", func() bool {
		return !survivors[0].cluster.PeerDown(victim) && !survivors[1].cluster.PeerDown(victim)
	})
	waitUntil(t, "handoff to drain", func() bool {
		for _, d := range survivors {
			if ps, ok := peerStat(d, victim); ok && ps.HandoffQueued != 0 {
				return false
			}
		}
		return true
	})
	for _, u := range handedOff {
		u := u
		waitUntil(t, "drained copy of "+u+" on the restarted victim", func() bool {
			return f.residentOn(victim, u)
		})
		if got := f.origin.Web().FetchCount(u); got != 1 {
			t.Errorf("origin fetches for handed-off %s = %d, want 1 (drain must not refetch)", u, got)
		}
	}
	var drained uint64
	for _, d := range survivors {
		if ps, ok := peerStat(d, victim); ok {
			if ps.Health != "up" {
				t.Errorf("survivor health view of restarted victim = %+v, want up", ps)
			}
			drained += ps.HandoffDrained
		}
	}
	if drained < uint64(len(handedOff)) {
		t.Errorf("handoff drained = %d, want >= %d", drained, len(handedOff))
	}
}
