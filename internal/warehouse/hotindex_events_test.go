package warehouse

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/storage"
)

// TestHotIndexEventEquivalence drives a randomized admit / migrate / evict
// / refresh sequence and, after every single step, asserts that the
// event-maintained hot-segment membership is identical to a from-scratch
// re-derivation from the memory tier's current residents — the invariant
// the old full sweep enforced by construction.
func TestHotIndexEventEquivalence(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Storage.Tiers[0].Capacity = 96 * core.KB // small enough to churn
		})
		rng := rand.New(rand.NewSource(7))
		urls := g.PageURLs

		containerOf := func(url string) (core.ObjectID, bool) {
			sh := w.shardOf(url)
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			st := sh.pages[url]
			if st == nil {
				return 0, false
			}
			return st.container, true
		}

		check := func(step int, op string) {
			t.Helper()
			w.HotIndexSize() // drains pending residency events
			resident := make(map[core.ObjectID]bool)
			for _, id := range w.store.ResidentIDs(storage.Memory) {
				resident[id] = true
			}
			for i, sh := range w.shards {
				sh.mu.RLock()
				for url, st := range sh.pages {
					if want := resident[st.container]; st.inHotIndex != want {
						sh.mu.RUnlock()
						t.Fatalf("step %d (%s): shard %d page %q inHotIndex=%v, re-derivation says %v",
							step, op, i, url, st.inHotIndex, want)
					}
					if got := sh.hotIndex.Contains(st.physID); got != st.inHotIndex {
						sh.mu.RUnlock()
						t.Fatalf("step %d (%s): shard %d page %q segment says %v, state says %v",
							step, op, i, url, got, st.inHotIndex)
					}
				}
				sh.mu.RUnlock()
			}
		}

		var admitted []string
		for step := 0; step < 250; step++ {
			op := "admit"
			switch r := rng.Intn(10); {
			case r < 4 || len(admitted) == 0:
				// Admit a page (or re-touch one already resident).
				url := urls[rng.Intn(len(urls))]
				if _, err := w.Get("u", url); err != nil {
					t.Fatal(err)
				}
				admitted = append(admitted, url)
			case r < 6:
				// Migrate: a single page's priority jumps, re-placing everything.
				op = "migrate"
				url := admitted[rng.Intn(len(admitted))]
				if id, ok := containerOf(url); ok {
					if err := w.store.SetPriority(id, core.Priority(rng.Float64())); err != nil {
						t.Fatal(err)
					}
				}
			case r < 8:
				// Bulk migrate: the maintenance-style priority sweep.
				op = "bulk-migrate"
				prios := make(map[core.ObjectID]core.Priority)
				for i := 0; i < 3 && i < len(admitted); i++ {
					if id, ok := containerOf(admitted[rng.Intn(len(admitted))]); ok {
						prios[id] = core.Priority(rng.Float64())
					}
				}
				w.store.ApplyPriorities(prios)
			case r < 9:
				// Evict: the memory tier fails outright; half the time recovery
				// re-promotes from the surviving disk copies.
				op = "evict"
				if err := w.store.DropTier(storage.Memory); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					op = "evict+recover"
					w.store.Recover()
				}
			default:
				// Refresh: force a refetch of a resident page.
				op = "refresh"
				url := admitted[rng.Intn(len(admitted))]
				clock.Advance(3)
				if _, err := w.Refresh(context.Background(), url); err != nil {
					t.Fatal(err)
				}
			}
			clock.Advance(1)
			check(step, op)
		}

		if w.HotIndexSize() == 0 {
			t.Error("suspicious: hot index empty after 250 randomized steps")
		}
	})
}

// TestHotIndexEventConcurrentReaders exercises the maintenance fast path
// under concurrency: searches and priority churn race, and the final
// membership still matches the re-derivation.
func TestHotIndexEventConcurrentReaders(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Storage.Tiers[0].Capacity = 96 * core.KB
		})
		for _, url := range g.PageURLs {
			if _, err := w.Get("u", url); err != nil {
				t.Fatal(err)
			}
			clock.Advance(1)
		}
		var wg sync.WaitGroup
		for gi := 0; gi < 4; gi++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 50; i++ {
					switch rng.Intn(3) {
					case 0:
						w.SearchTiered("the", 5)
					case 1:
						w.HotIndexSize()
					default:
						url := g.PageURLs[rng.Intn(len(g.PageURLs))]
						sh := w.shardOf(url)
						sh.mu.RLock()
						st := sh.pages[url]
						sh.mu.RUnlock()
						if st != nil {
							w.store.SetPriority(st.container, core.Priority(rng.Float64()))
						}
					}
				}
			}(int64(gi + 1))
		}
		wg.Wait()

		w.HotIndexSize()
		resident := make(map[core.ObjectID]bool)
		for _, id := range w.store.ResidentIDs(storage.Memory) {
			resident[id] = true
		}
		for i, sh := range w.shards {
			sh.mu.RLock()
			for url, st := range sh.pages {
				if want := resident[st.container]; st.inHotIndex != want {
					sh.mu.RUnlock()
					t.Fatalf("shard %d page %q inHotIndex=%v, re-derivation says %v", i, url, st.inHotIndex, want)
				}
			}
			sh.mu.RUnlock()
		}
	})
}
