package warehouse

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/storage"
)

func TestHotIndexTracksMemoryResidency(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Storage.Tiers[0].Capacity = 64 * core.KB // a handful of pages
		})
		// Admit several pages; hammer two so they earn memory.
		for _, url := range g.PageURLs[:8] {
			if _, err := w.Get("u", url); err != nil {
				t.Fatal(err)
			}
			clock.Advance(2)
		}
		for i := 0; i < 20; i++ {
			w.Get("u", g.PageURLs[0])
			w.Get("u", g.PageURLs[1])
			clock.Advance(2)
		}
		if _, err := w.Maintain(); err != nil {
			t.Fatal(err)
		}
		hot := w.HotIndexSize()
		if hot == 0 {
			t.Fatal("hot index empty after maintenance")
		}
		if hot >= 8 {
			t.Errorf("hot index holds %d of 8 pages — not selective", hot)
		}

		// The hot pages must be findable through the memory tier.
		title := func(url string) string {
			s, _ := w.Versions().Latest(url)
			return strings.Fields(s.Title)[0]
		}
		res := w.SearchTiered(title(g.PageURLs[0]), 1)
		if res.Tier != storage.Memory {
			t.Errorf("hot-page search served from %v", res.Tier)
		}
		if len(res.Scores) == 0 {
			t.Error("hot-page search found nothing")
		}
		if res.Latency != w.cfg.Storage.Tiers[0].Latency {
			t.Errorf("latency = %v", res.Latency)
		}
		st := w.Stats()
		if st.IndexMemoryProbes == 0 {
			t.Error("memory probe not counted")
		}
	})
}

func TestSearchTieredFallsBackToFullIndex(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Storage.Tiers[0].Capacity = 32 * core.KB
		})
		for _, url := range g.PageURLs[:10] {
			if _, err := w.Get("u", url); err != nil {
				t.Fatal(err)
			}
			clock.Advance(2)
		}
		if _, err := w.Maintain(); err != nil {
			t.Fatal(err)
		}
		// Ask for more results than the tiny hot index can hold: the probe
		// must fall back to the full (disk) index.
		res := w.SearchTiered("the", 10) // stop word: finds nothing anywhere
		if res.Tier != storage.Disk {
			t.Errorf("fallback search served from %v", res.Tier)
		}
		if res.Latency != w.cfg.Storage.Tiers[1].Latency {
			t.Errorf("latency = %v", res.Latency)
		}
		if w.Stats().IndexDiskProbes == 0 {
			t.Error("disk probe not counted")
		}
	})
}

func TestHotIndexEvictsWithDemotion(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Storage.Tiers[0].Capacity = 64 * core.KB
		})
		hotURL := g.PageURLs[0]
		for i := 0; i < 20; i++ {
			w.Get("u", hotURL)
			clock.Advance(2)
		}
		w.Maintain()
		before := w.HotIndexSize()
		if before == 0 {
			t.Fatal("precondition: hot index empty")
		}
		// Crash the memory tier: after recovery-less sync the hot index must
		// be empty, because nothing is memory-resident.
		if err := w.StorageManager().DropTier(storage.Memory); err != nil {
			t.Fatal(err)
		}
		if got := w.HotIndexSize(); got != 0 {
			t.Errorf("hot index still holds %d pages after memory loss", got)
		}
		// Recovery restores residency and, with it, the detailed index.
		w.StorageManager().Recover()
		if got := w.HotIndexSize(); got == 0 {
			t.Error("hot index not rebuilt after recovery")
		}
	})
}

// After maintenance, pages of the same semantic region occupy adjacent
// tertiary positions (§4.4 locality of reference).
func TestMaintainClustersTertiaryByRegion(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		for _, url := range g.PageURLs {
			if _, err := w.Get("u", url); err != nil {
				t.Fatal(err)
			}
			clock.Advance(2)
		}
		if _, err := w.Maintain(); err != nil {
			t.Fatal(err)
		}
		// Collect (region, position) pairs of the container objects.
		type rp struct{ region, pos int }
		var pairs []rp
		for _, sh := range w.shards {
			sh.mu.Lock()
			for _, st := range sh.pages {
				if pos, ok := w.store.TertiaryPosition(st.container); ok {
					pairs = append(pairs, rp{st.region, pos})
				}
			}
			sh.mu.Unlock()
		}
		if len(pairs) < 4 {
			t.Skip("too few archived pages")
		}
		// Sort by position: region labels must form contiguous runs, i.e. the
		// number of region switches equals distinct regions - 1.
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].pos < pairs[j].pos })
		distinct := map[int]bool{}
		switches := 0
		for i, p := range pairs {
			distinct[p.region] = true
			if i > 0 && pairs[i-1].region != p.region {
				switches++
			}
		}
		if switches != len(distinct)-1 {
			t.Errorf("tape layout not region-contiguous: %d switches for %d regions", switches, len(distinct))
		}
	})
}

// TestMaintainReportsLayoutError: a page whose container storage no longer
// holds (removed behind the warehouse's back) makes Maintain return the
// tertiary layout's error, wrapping core.ErrNotFound, instead of panicking.
func TestMaintainReportsLayoutError(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, nil)
		url := g.PageURLs[0]
		if _, err := w.Get("u", url); err != nil {
			t.Fatal(err)
		}
		sh := w.shardOf(url)
		sh.mu.RLock()
		container := sh.pages[url].container
		sh.mu.RUnlock()
		if err := w.StorageManager().Remove(container); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Maintain(); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("Maintain over a removed container: err = %v, want ErrNotFound", err)
		}
	})
}
