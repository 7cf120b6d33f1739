package warehouse

import (
	"sync"
	"sync/atomic"
	"time"

	"cbfww/internal/text"
)

// The warehouse's hot state is lock-striped: every URL hashes (FNV-1a) to
// one of N shards, and each shard owns its slice of the page map, its own
// activity counters and its own segment of the memory-resident detailed
// index. A request for a URL takes exactly one shard lock; requests for
// URLs on different shards never serialize against each other. Cross-shard
// surfaces (Stats, SearchTiered, Maintain, Pages, ...) sweep the shards
// one at a time and aggregate — there is no global warehouse lock left to
// convoy behind.
//
// Every component the shards call into (storage, indexes, tracker, object
// hierarchy, version store, ...) is internally synchronized, so holding
// one shard's lock while calling them is safe; no code path ever holds two
// shard locks at once, so lock ordering is trivially acyclic.

// shard is one lock stripe of the warehouse.
type shard struct {
	// mu guards pages, every pageState reachable from it, flights and
	// stats.
	mu      sync.RWMutex
	pages   map[string]*pageState // by URL
	flights map[string]*flight    // URLs with a trip to the origin out
	stats   Stats
	// hotIndex is this shard's segment of the §4.1 memory-resident
	// detailed index: it covers exactly the shard's pages whose bodies
	// currently live in the memory tier.
	hotIndex *text.InvertedIndex

	// Contention instrumentation (atomics so readers never need mu):
	// cumulative time spent waiting for the write lock on the request
	// path, and how many acquisitions that covers. The gateway surfaces
	// both per shard so operators can see striping imbalance.
	lockWaitNanos atomic.Int64
	lockAcquires  atomic.Int64
}

// lock takes the shard's write lock, recording how long the caller waited
// for it. All request-path writers come through here so the wait counters
// mean one thing: time lost to same-shard contention.
func (sh *shard) lock() {
	start := time.Now()
	sh.mu.Lock()
	sh.lockWaitNanos.Add(time.Since(start).Nanoseconds())
	sh.lockAcquires.Add(1)
}

// ShardIndex reports which of n stripes a URL hashes to — the same
// FNV-1a mapping the warehouse uses internally. Exported so operators and
// benchmarks can reason about stripe placement (e.g. which pages share a
// stripe with a known-hot URL) without reimplementing the hash.
func ShardIndex(url string, n int) int { return shardIndex(url, n) }

// shardIndex hashes a URL to a stripe with FNV-1a (inlined to avoid the
// hash.Hash32 allocation on every request).
func shardIndex(url string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(url); i++ {
		h ^= uint32(url[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// shardOf returns the stripe owning url.
func (w *Warehouse) shardOf(url string) *shard {
	return w.shards[shardIndex(url, len(w.shards))]
}

// NumShards returns the stripe count the warehouse was built with.
func (w *Warehouse) NumShards() int { return len(w.shards) }

// ShardStat is one stripe's activity snapshot: how much of the page
// population and traffic it carries, and how contended its lock is.
type ShardStat struct {
	Shard         int `json:"shard"`
	Pages         int `json:"pages"`
	Requests      int `json:"requests"`
	Hits          int `json:"hits"`
	OriginFetches int `json:"origin_fetches"`
	// LockWaitMicros is cumulative time request-path writers spent
	// waiting for this shard's lock; LockAcquires is how many waits that
	// spans. Their ratio is the mean queueing delay on the stripe.
	LockWaitMicros int64 `json:"lock_wait_micros"`
	LockAcquires   int64 `json:"lock_acquires"`
}

// ShardStats snapshots every stripe. Shards are read one at a time under
// their own read locks; the result is per-shard consistent, not a global
// atomic snapshot — the same deal every aggregated surface offers.
func (w *Warehouse) ShardStats() []ShardStat {
	out := make([]ShardStat, len(w.shards))
	for i, sh := range w.shards {
		sh.mu.RLock()
		out[i] = ShardStat{
			Shard:         i,
			Pages:         len(sh.pages),
			Requests:      sh.stats.Requests,
			Hits:          sh.stats.Hits,
			OriginFetches: sh.stats.OriginFetches,
		}
		sh.mu.RUnlock()
		out[i].LockWaitMicros = sh.lockWaitNanos.Load() / 1000
		out[i].LockAcquires = sh.lockAcquires.Load()
	}
	return out
}
