package peers

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbfww/internal/resilience"
	"cbfww/internal/simweb"
)

// healthPeer is an httptest stand-in for a full peer: /healthz that can be
// scripted to fail, and /peer/put that records received payloads.
type healthPeer struct {
	srv      *httptest.Server
	sick     atomic.Bool // true: /healthz answers 500
	mu       sync.Mutex
	received []simweb.Page
}

func newHealthPeer() *healthPeer {
	p := &healthPeer{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+HealthzPath, func(w http.ResponseWriter, r *http.Request) {
		if p.sick.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST "+PeerPutPath, func(w http.ResponseWriter, r *http.Request) {
		m, page, err := ReadFrame(r.Body)
		if err != nil || !strings.HasPrefix(r.Header.Get("Content-Type"), FrameContentType) {
			http.Error(w, "not a frame", http.StatusBadRequest)
			return
		}
		page.URL = m.URL
		p.mu.Lock()
		p.received = append(p.received, page)
		p.mu.Unlock()
		w.Write([]byte(`{"admitted":true}`))
	})
	p.srv = httptest.NewServer(mux)
	return p
}

func (p *healthPeer) addr() string { return strings.TrimPrefix(p.srv.URL, "http://") }

func (p *healthPeer) got() []simweb.Page {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]simweb.Page, len(p.received))
	copy(out, p.received)
	return out
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHopHelpers(t *testing.T) {
	if HopsContain("", "a:1") || HopsContain("a:1,b:2", "") {
		t.Error("empty hop list / node should never match")
	}
	hops := AppendHop("", "a:1")
	hops = AppendHop(hops, "b:2")
	if hops != "a:1,b:2" {
		t.Fatalf("hop chain = %q, want a:1,b:2", hops)
	}
	for _, n := range []string{"a:1", "b:2"} {
		if !HopsContain(hops, n) {
			t.Errorf("HopsContain(%q, %q) = false", hops, n)
		}
	}
	if HopsContain(hops, "c:3") {
		t.Error("HopsContain matched an absent node")
	}
	// Whitespace tolerance (proxies sometimes join headers with ", ").
	if !HopsContain("a:1, b:2", "b:2") {
		t.Error("HopsContain should trim spaces")
	}
}

func TestHandoffQueueBounds(t *testing.T) {
	q := newHandoffQueue(3)
	if q.len("p") != 0 {
		t.Fatal("fresh queue not empty")
	}
	for _, u := range []string{"u1", "u2", "u3"} {
		if d := q.park("p", hint{url: u}); d != 0 {
			t.Fatalf("park %s dropped %d from a non-full queue", u, d)
		}
	}
	// Same-URL re-park replaces in place, no growth, no drop.
	if d := q.park("p", hint{url: "u2", page: simweb.Page{Title: "fresh"}}); d != 0 || q.len("p") != 3 {
		t.Fatalf("re-park: dropped=%d len=%d, want 0 and 3", d, q.len("p"))
	}
	// Over the limit: oldest (u1) evicted.
	if d := q.park("p", hint{url: "u4"}); d != 1 {
		t.Fatalf("park into full queue dropped %d, want 1", d)
	}
	batch := q.take("p", 10)
	if len(batch) != 3 || batch[0].url != "u2" || batch[1].url != "u3" || batch[2].url != "u4" {
		t.Fatalf("take = %v, want [u2 u3 u4] oldest-first with u1 evicted", batch)
	}
	if batch[0].page.Title != "fresh" {
		t.Error("re-park did not replace the stale payload")
	}
	if q.len("p") != 0 {
		t.Error("take did not empty the queue")
	}
	// Partial take preserves the remainder's order.
	q.park("p", hint{url: "a"})
	q.park("p", hint{url: "b"})
	if got := q.take("p", 1); len(got) != 1 || got[0].url != "a" {
		t.Fatalf("partial take = %v, want [a]", got)
	}
	if got := q.take("p", 1); len(got) != 1 || got[0].url != "b" {
		t.Fatalf("second take = %v, want [b]", got)
	}
}

// TestProberMarksDownAndUp drives a peer sick and healthy via its own
// /healthz and watches the cluster's verdict follow: Down after the
// consecutive-failure threshold, Up (with counters) on the next success.
func TestProberMarksDownAndUp(t *testing.T) {
	peer := newHealthPeer()
	defer peer.srv.Close()

	c := NewCluster(Config{
		Timeout:        time.Second,
		ProbeInterval:  10 * time.Millisecond,
		ProbeThreshold: 2,
		Breaker:        resilience.BreakerConfig{Threshold: 100, Cooldown: time.Minute},
	})
	c.Configure("127.0.0.1:1", []string{peer.addr()})
	c.Start()
	defer c.Stop()

	waitFor(t, "first successful probe", func() bool {
		return c.Stats().Peers[0].HealthProbes > 0
	})
	if c.PeerDown(peer.addr()) || !c.Healthy(peer.addr()) {
		t.Fatal("live peer marked down")
	}

	peer.sick.Store(true)
	waitFor(t, "peer marked down", func() bool { return c.PeerDown(peer.addr()) })
	if c.Healthy(peer.addr()) {
		t.Error("down peer still reported healthy")
	}
	if d := c.Degraded(); len(d) != 1 || !strings.Contains(d[0], "down") {
		t.Errorf("degraded = %v, want one 'down' complaint", d)
	}

	peer.sick.Store(false)
	waitFor(t, "peer marked up", func() bool { return !c.PeerDown(peer.addr()) })
	st := c.Stats().Peers[0]
	if st.WentDown < 1 || st.WentUp < 1 || st.HealthFailures < 2 {
		t.Errorf("transition counters = down:%d up:%d fails:%d, want >=1/>=1/>=2",
			st.WentDown, st.WentUp, st.HealthFailures)
	}
	if st.Health != "up" {
		t.Errorf("health = %q, want up", st.Health)
	}
}

// TestReplicateAdmittedPushes: an admitted payload reaches the other
// replica through the background worker.
func TestReplicateAdmittedPushes(t *testing.T) {
	peer := newHealthPeer()
	defer peer.srv.Close()

	c := NewCluster(Config{
		Timeout:       time.Second,
		Replicas:      2,
		ProbeInterval: time.Hour, // prober idle; this test drives health by hand
		Breaker:       resilience.BreakerConfig{Threshold: 100, Cooldown: time.Minute},
	})
	c.Configure("127.0.0.1:1", []string{peer.addr()})
	c.Start()
	defer c.Stop()

	u := "http://a.example/replicated.html"
	c.ReplicateAdmitted(u, simweb.Page{URL: u, Title: "copy"})
	waitFor(t, "replica push", func() bool { return len(peer.got()) == 1 })
	if got := peer.got()[0]; got.URL != u || got.Title != "copy" {
		t.Fatalf("replica received %+v", got)
	}
	// The peer records the push before pushOrPark's put returns and
	// counts it, so the counter may lag the peer's copy by a moment.
	waitFor(t, "replicated counter", func() bool { return c.Stats().Peers[0].Replicated >= 1 })
	if st := c.Stats().Peers[0]; st.Replicated != 1 {
		t.Errorf("replicated counter = %d, want 1", st.Replicated)
	}
}

// TestHandoffParksAndDrains: pushes to a Down peer park as hints; flipping
// the peer Up drains them in order.
func TestHandoffParksAndDrains(t *testing.T) {
	peer := newHealthPeer()
	defer peer.srv.Close()

	c := NewCluster(Config{
		Timeout:       time.Second,
		Replicas:      2,
		ProbeInterval: time.Hour,
		HandoffLimit:  2,
		Breaker:       resilience.BreakerConfig{Threshold: 100, Cooldown: time.Minute},
	})
	c.Configure("127.0.0.1:1", []string{peer.addr()})
	c.Start()
	defer c.Stop()

	c.SetPeerDown(peer.addr(), true)
	for _, u := range []string{"http://a.example/1", "http://a.example/2", "http://a.example/3"} {
		c.ReplicateAdmitted(u, simweb.Page{URL: u})
	}
	// Limit 2: three parks evict the oldest hint.
	waitFor(t, "hints parked", func() bool {
		st := c.Stats().Peers[0]
		return st.HandoffParked == 3 && st.HandoffDropped == 1 && st.HandoffQueued == 2
	})
	if len(peer.got()) != 0 {
		t.Fatal("down peer received pushes")
	}

	c.SetPeerDown(peer.addr(), false) // recovery drains synchronously
	st := c.Stats().Peers[0]
	if st.HandoffQueued != 0 || st.HandoffDrained != 2 {
		t.Fatalf("after drain: queued=%d drained=%d, want 0 and 2", st.HandoffQueued, st.HandoffDrained)
	}
	got := peer.got()
	if len(got) != 2 || got[0].URL != "http://a.example/2" || got[1].URL != "http://a.example/3" {
		t.Fatalf("drained payloads = %v, want the two newest in order", got)
	}
}

// TestFetchResidentSkipsDownPeer: the health verdict routes probes around
// a Down peer without burning a timeout on it.
func TestFetchResidentSkipsDownPeer(t *testing.T) {
	pages := make(map[string]simweb.Page)
	for i := 0; i < 64; i++ {
		u := fmt.Sprintf("http://a.example/p%d.html", i)
		pages[u] = simweb.Page{URL: u, Title: "hot", Body: "payload"}
	}
	holder := newFakePeer(pages)
	defer holder.srv.Close()
	deadAddr := "127.0.0.1:1"

	c := newTestCluster(t, "127.0.0.1:2", holder.addr(), deadAddr)
	c.SetPeerDown(deadAddr, true)
	// Pick a URL whose primary owner is the dead peer, so the probe order
	// genuinely starts at the peer the health view must skip.
	var u string
	for cand := range pages {
		if owners, _ := c.Owners(cand); owners[0] == deadAddr {
			u = cand
			break
		}
	}
	if u == "" {
		t.Fatal("no candidate URL primarily owned by the dead peer (64 tries)")
	}
	res, ok := c.FetchResident(context.Background(), u)
	if !ok || res.Page.Body != "payload" {
		t.Fatalf("FetchResident = (%+v, %v), want the holder's copy", res, ok)
	}
	for _, p := range c.Stats().Peers {
		if p.Addr == deadAddr {
			if p.ProbeFailures != 0 {
				t.Errorf("down peer was probed %d times, want routed around instead", p.ProbeFailures)
			}
			if p.RoutedAround == 0 {
				t.Error("down peer never counted routed-around")
			}
		}
	}
}
