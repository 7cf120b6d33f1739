package warehouse

import (
	"runtime"
	"testing"
)

func TestShardIndexDeterministicAndInRange(t *testing.T) {
	urls := []string{
		"http://site-0.example/p0", "http://site-1.example/p1",
		"http://site-2.example/a/b/c", "", "x",
	}
	for _, n := range []int{1, 2, 8, 13} {
		for _, u := range urls {
			i := shardIndex(u, n)
			if i != shardIndex(u, n) {
				t.Fatalf("shardIndex(%q, %d) not deterministic", u, n)
			}
			if i < 0 || i >= n {
				t.Fatalf("shardIndex(%q, %d) = %d out of range", u, n, i)
			}
		}
	}
}

// With one shard every URL maps to stripe 0 — the reference model the
// oracle test leans on.
func TestShardIndexSingleShardDegenerate(t *testing.T) {
	for _, u := range []string{"a", "b", "http://x/y"} {
		if i := shardIndex(u, 1); i != 0 {
			t.Fatalf("shardIndex(%q, 1) = %d", u, i)
		}
	}
}

// FNV-1a over realistic URL populations must not collapse onto few
// stripes: with 16 shards and a few hundred URLs, every stripe should see
// traffic and no stripe should carry more than a third of it.
func TestShardIndexSpreadsURLs(t *testing.T) {
	const shards = 16
	counts := make([]int, shards)
	total := 0
	for site := 0; site < 8; site++ {
		for page := 0; page < 40; page++ {
			u := "http://site-" + string(rune('a'+site)) + ".example/page/" + string(rune('a'+page%26)) + "/" + string(rune('0'+page%10))
			counts[shardIndex(u, shards)]++
			total++
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("shard %d got no URLs", i)
		}
		if c > total/3 {
			t.Errorf("shard %d got %d of %d URLs — hash collapsing", i, c, total)
		}
	}
}

func TestConfigShardsDefaultsToGOMAXPROCS(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, _ := oracleWarehouse(t, s, 0)
		if got, want := w.NumShards(), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("NumShards() = %d, want GOMAXPROCS = %d", got, want)
		}
		w1, _ := oracleWarehouse(t, s, 5)
		if got := w1.NumShards(); got != 5 {
			t.Errorf("NumShards() = %d, want 5", got)
		}
	})
}

func TestShardStatsAggregateToWarehouseStats(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, urls := oracleWarehouse(t, s, 8)
		for _, u := range urls {
			if _, err := w.Get("u", u); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Get("u", u); err != nil { // second Get: a hit
				t.Fatal(err)
			}
		}
		per := w.ShardStats()
		if len(per) != 8 {
			t.Fatalf("ShardStats() returned %d entries, want 8", len(per))
		}
		var pages, reqs, hits, fetches int
		for _, s := range per {
			pages += s.Pages
			reqs += s.Requests
			hits += s.Hits
			fetches += s.OriginFetches
			if s.LockAcquires == 0 && s.Pages > 0 {
				t.Errorf("shard %d holds pages but recorded no lock acquisitions", s.Shard)
			}
		}
		st := w.Stats()
		if pages != w.ResidentPages() {
			t.Errorf("shard pages sum %d != ResidentPages %d", pages, w.ResidentPages())
		}
		if reqs != st.Requests || hits != st.Hits || fetches != st.OriginFetches {
			t.Errorf("shard sums (req=%d hit=%d fetch=%d) != Stats (req=%d hit=%d fetch=%d)",
				reqs, hits, fetches, st.Requests, st.Hits, st.OriginFetches)
		}
	})
}
