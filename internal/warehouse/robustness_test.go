package warehouse

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/schema"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
)

// The warehouse keeps serving through tier failures: memory loss recovers
// from disk copies transparently; losing every replica falls back to an
// origin refetch on the next access.
func TestServeThroughTierFailure(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		url := g.PageURLs[0]
		if _, err := w.Get("u", url); err != nil {
			t.Fatal(err)
		}
		clock.Advance(5)

		// Lose memory. The next access must still be a warehouse hit (disk).
		if err := w.StorageManager().DropTier(storage.Memory); err != nil {
			t.Fatal(err)
		}
		r, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Hit {
			t.Errorf("memory loss turned a warehouse hit into %+v", r)
		}
		if r.Source == "memory" {
			t.Errorf("served from dropped tier")
		}

		// Recover restores the memory copy.
		rep := w.StorageManager().Recover()
		if rep.Lost != 0 {
			t.Errorf("recover lost %d", rep.Lost)
		}
		if err := w.StorageManager().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTotalLossFallsBackToOrigin(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		url := g.PageURLs[0]
		if _, err := w.Get("u", url); err != nil {
			t.Fatal(err)
		}
		clock.Advance(5)
		for _, tier := range []storage.Tier{storage.Memory, storage.Disk, storage.Tertiary} {
			if err := w.StorageManager().DropTier(tier); err != nil {
				t.Fatal(err)
			}
		}
		// The body is gone everywhere; the warehouse must refetch from the
		// origin, not fail.
		r, err := w.Get("u", url)
		if err != nil {
			t.Fatalf("access after total loss: %v", err)
		}
		if r.Hit {
			t.Error("total loss reported a hit")
		}
		if r.Source != "origin" {
			t.Errorf("source = %s", r.Source)
		}
		if r.Page.Title == "" {
			t.Error("refetched page empty")
		}
	})
}

// The origin disappearing must not break serving of resident pages under
// weak consistency (the revalidation probe fails; cached copies serve).
func TestDeadOriginServesCached(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		clock := core.NewSimClock(0)
		web := simweb.NewWeb(clock)
		web.AddSite("h.example", 100)
		if err := web.AddPage(&core.Page{
			URL: "http://h.example/x", Title: "T", Body: "b", Size: core.KB,
		}); err != nil {
			t.Fatal(err)
		}
		dying := &dyingOrigin{inner: web}
		cfg := DefaultConfig()
		w := s.open(t, cfg, clock, dying)
		if _, err := w.Get("u", "http://h.example/x"); err != nil {
			t.Fatal(err)
		}
		dying.dead = true
		clock.Advance(1_000_000) // far past any polling cycle: check will fire and fail
		r, err := w.Get("u", "http://h.example/x")
		if err != nil {
			t.Fatalf("dead origin broke cached serving: %v", err)
		}
		if !r.Hit {
			t.Errorf("dead origin: %+v", r)
		}
	})
}

// dyingOrigin wraps an Origin and can be switched off.
type dyingOrigin struct {
	inner *simweb.Web
	dead  bool
}

func (d *dyingOrigin) Fetch(url string) (core.FetchResult, error) {
	if d.dead {
		return core.FetchResult{}, fmt.Errorf("origin unreachable: %w", core.ErrNotFound)
	}
	return d.inner.Fetch(url)
}

func (d *dyingOrigin) Head(url string) (int, core.Time, error) {
	if d.dead {
		return 0, 0, fmt.Errorf("origin unreachable: %w", core.ErrNotFound)
	}
	return d.inner.Head(url)
}

// Concurrent Gets, queries, mining and maintenance must not race (run
// under -race in CI) and must keep counters consistent.
func TestWarehouseConcurrentMixedLoad(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Miner.MinSupport = 1
		})
		var wg sync.WaitGroup
		const goroutines, iters = 8, 40
		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				user := fmt.Sprintf("user%d", gi)
				for i := 0; i < iters; i++ {
					url := g.PageURLs[(gi*iters+i)%len(g.PageURLs)]
					if _, err := w.Get(user, url); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					switch i % 4 {
					case 0:
						if _, err := w.Query("SELECT MFU 3 p.url FROM Physical_Page p"); err != nil {
							t.Errorf("Query: %v", err)
						}
					case 1:
						w.Search("temple", 3)
						w.Recommend(user, 2)
					case 2:
						if _, err := w.Maintain(); err != nil {
							t.Errorf("Maintain: %v", err)
						}
					case 3:
						if _, err := w.MinePaths(); err != nil {
							t.Errorf("MinePaths: %v", err)
						}
					}
				}
			}(gi)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			wg.Wait()
		}()
		// Advance the clock while workers run (SimClock is concurrent-safe).
		for {
			select {
			case <-done:
				goto out
			default:
				clock.Advance(1)
			}
		}
	out:
		st := w.Stats()
		if st.Requests != goroutines*iters {
			t.Errorf("Requests = %d, want %d", st.Requests, goroutines*iters)
		}
		if err := w.StorageManager().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// A schema-configured warehouse enforces its admission rules end to end.
func TestWarehouseWithSchema(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		sch, err := schema.Parse(`
tier memory capacity 256KB latency 0
tier disk capacity 32MB latency 10
tier tertiary latency 100
admit max-size 1KB
`)
		if err != nil {
			t.Fatal(err)
		}
		w, g, _ := fixture(t, s, func(c *Config) {
			if err := c.ApplySchema(sch); err != nil {
				t.Fatal(err)
			}
		})
		// Every generated page is > 1KB, so everything is rejected.
		r, err := w.Get("u", g.PageURLs[0])
		if err != nil {
			t.Fatal(err)
		}
		if r.Hit {
			t.Error("hit on rejected page")
		}
		if w.ResidentPages() != 0 {
			t.Errorf("ResidentPages = %d", w.ResidentPages())
		}
		if w.Stats().Rejected != 1 {
			t.Errorf("Rejected = %d", w.Stats().Rejected)
		}
	})
}

// Stats.Refetches counts each origin GET of a resident page made for a
// user request, once, whatever sent the request to the origin.
func TestRefetchesCountResidentOriginGets(t *testing.T) {
	cases := []struct {
		name                     string
		prepare                  func(t *testing.T, r *probeRig, url string)
		refresh                  bool
		revalidations, refetches int
		staleServes              int
		// after, when set, checks the served page and the next Get.
		after func(t *testing.T, r *probeRig, url string, got GetResult)
	}{
		{name: "revalidate-unchanged", revalidations: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { r.stale() }},
		{name: "revalidate-new-version", revalidations: 1, refetches: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { r.update(t, url); r.stale() }},
		{name: "head-failure-stale", staleServes: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { r.origin.headDown.Store(true); r.stale() }},
		{name: "head-failure-lost-body", refetches: 1,
			prepare: func(t *testing.T, r *probeRig, url string) {
				r.origin.headDown.Store(true)
				r.stale()
				r.loseBody(t)
			},
			after: func(t *testing.T, r *probeRig, url string, got GetResult) { wantVersions(t, r, url, got, 1, true, 1) }},
		{name: "lost-body", refetches: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { r.loseBody(t) },
			after:   func(t *testing.T, r *probeRig, url string, got GetResult) { wantVersions(t, r, url, got, 1, true, 1) }},
		// Undecodable bytes under the copy's key on every tier, the origin
		// unchanged: the refetch replaces the copy.
		{name: "corrupt-body", refetches: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { corruptBody(t, r, url) },
			after:   func(t *testing.T, r *probeRig, url string, got GetResult) { wantVersions(t, r, url, got, 1, true, 1) }},
		{name: "refresh-is-no-request", refresh: true,
			prepare: func(t *testing.T, r *probeRig, url string) { r.update(t, url) }},
		// The origin restarted and reports a version below the one already
		// served, and the copy is lost: its answer is applied, served and
		// stored, so the next request is a hit.
		{name: "lower-version-lost-body", refetches: 1,
			prepare: func(t *testing.T, r *probeRig, url string) {
				r.update(t, url)
				r.update(t, url)
				if _, err := r.w.Refresh(context.Background(), url); err != nil {
					t.Fatal(err)
				}
				r.origin.restarted.Store(true)
				r.loseBody(t)
			},
			after: func(t *testing.T, r *probeRig, url string, got GetResult) { wantVersions(t, r, url, got, 1, true, 1) }},
		// A replica push lands while the GET is out: the origin's answer is
		// served and the pushed version kept.
		{name: "replica-push-during-get", revalidations: 1, refetches: 1,
			prepare: func(t *testing.T, r *probeRig, url string) {
				r.update(t, url)
				r.stale()
				r.origin.hook = func(method, url string) {
					if method == "GET" {
						if _, err := r.w.AdmitReplica(url, core.FetchResult{Page: core.Page{URL: url, Title: "probe page", Body: "pushed", Size: core.KB, Version: 9}}); err != nil {
							t.Error(err)
						}
					}
				}
			},
			after: func(t *testing.T, r *probeRig, url string, got GetResult) { wantVersions(t, r, url, got, 2, true, 9) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachStack(t, func(t *testing.T, s stack) {
				r := newProbeRig(t, s, 1, 1)
				url := r.urls[0]
				tc.prepare(t, r, url)
				before, gets := r.w.Stats(), r.origin.gets.Load()
				var res GetResult
				var err error
				if tc.refresh {
					res, err = r.w.Refresh(context.Background(), url)
				} else {
					res, err = r.w.Get("u", url)
				}
				if err != nil {
					t.Fatal(err)
				}
				st := r.w.Stats()
				got := [3]int{st.Revalidations - before.Revalidations, st.Refetches - before.Refetches, st.StaleServes - before.StaleServes}
				if want := [3]int{tc.revalidations, tc.refetches, tc.staleServes}; got != want {
					t.Errorf("revalidations, refetches, stale serves = %v, want %v", got, want)
				}
				if n := r.origin.gets.Load() - gets; n > 1 {
					t.Errorf("%d origin GETs for one call, want at most 1", n)
				}
				if tc.after != nil {
					tc.after(t, r, url, res)
				}
			})
		})
	}
}

// wantVersions checks that got, served from the origin, is at version
// served, and that the next Get of url serves version next: a hit with no
// origin GET if nextHit, else after at most one.
func wantVersions(t *testing.T, r *probeRig, url string, got GetResult, served int, nextHit bool, next int) {
	t.Helper()
	if got.Hit || got.Page.Version != served {
		t.Errorf("served hit=%v version %d, want an origin serve at %d", got.Hit, got.Page.Version, served)
	}
	gets := r.origin.gets.Load()
	res, err := r.w.Get("u", url)
	if err != nil {
		t.Fatal(err)
	}
	maxGets := int32(1)
	if nextHit {
		maxGets = 0
	}
	if n := r.origin.gets.Load() - gets; res.Hit != nextHit || res.Page.Version != next || n > maxGets {
		t.Errorf("next Get: hit=%v version %d after %d GETs, want hit=%v version %d after at most %d",
			res.Hit, res.Page.Version, n, nextHit, next, maxGets)
	}
	if err := r.w.StorageManager().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// corruptBody overwrites every stored copy of url's container, at its
// key, with bytes no page payload decodes from.
func corruptBody(t *testing.T, r *probeRig, url string) {
	t.Helper()
	sh := r.w.shardOf(url)
	sh.mu.RLock()
	id := sh.pages[url].container
	sh.mu.RUnlock()
	const garbage = "not a page payload"
	m, n := r.w.StorageManager(), 0
	for tier := range m.Tiers() {
		b := m.Backend(storage.Tier(tier))
		for _, k := range b.Keys() {
			if k.ID == id {
				if err := b.PutFrom(k, strings.NewReader(garbage), int64(len(garbage))); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no stored copy to corrupt")
	}
}
