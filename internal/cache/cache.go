// Package cache implements the classic capacity-bound web-cache
// replacement policies CBFWW defines itself against: LRU, FIFO, MRU, LFU
// (with aging), SIZE, GDSF and LRU-k, plus an infinite cache giving the
// reuse upper bound. A trace-driven simulator measures hit ratio and byte
// hit ratio (the paper's §1 performance measures) so experiment E-X3 can
// show bounded caches plateauing long before the corpus fits — the
// observation motivating the capacity-bound-free design.
package cache

import (
	"container/heap"
	"container/list"
	"fmt"

	"cbfww/internal/core"
)

// Cache is a capacity-bound object cache being simulated. Access is the
// only operation: it reports whether the object was resident (hit) and, on
// a miss, admits the object, evicting per policy.
type Cache interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Access simulates a request for key with the given size at time now.
	Access(key string, size core.Bytes, now core.Time) bool
	// Used returns the bytes currently resident.
	Used() core.Bytes
}

// listCache covers the recency-ordered policies (LRU, FIFO, MRU) with a
// doubly linked list; the variants differ only in move-on-hit and eviction
// end.
type listCache struct {
	name      string
	capacity  core.Bytes
	used      core.Bytes
	ll        *list.List // front = next eviction victim
	items     map[string]*list.Element
	moveOnHit bool // LRU refreshes position; FIFO/MRU do not need-move
	evictBack bool // MRU evicts the most recent end
}

type listEntry struct {
	key  string
	size core.Bytes
}

// NewLRU returns a least-recently-used cache of the given byte capacity.
func NewLRU(capacity core.Bytes) Cache {
	return &listCache{name: "LRU", capacity: capacity, ll: list.New(),
		items: make(map[string]*list.Element), moveOnHit: true}
}

// NewFIFO returns a first-in-first-out cache.
func NewFIFO(capacity core.Bytes) Cache {
	return &listCache{name: "FIFO", capacity: capacity, ll: list.New(),
		items: make(map[string]*list.Element)}
}

// NewMRU returns a most-recently-used cache (evicts the newest entry —
// competitive on cyclic scans, terrible on Zipf traffic; included for the
// paper's LRU/MRU/LFU/MFU query modifiers).
func NewMRU(capacity core.Bytes) Cache {
	return &listCache{name: "MRU", capacity: capacity, ll: list.New(),
		items: make(map[string]*list.Element), moveOnHit: true, evictBack: true}
}

func (c *listCache) Name() string     { return c.name }
func (c *listCache) Used() core.Bytes { return c.used }

func (c *listCache) Access(key string, size core.Bytes, now core.Time) bool {
	if e, ok := c.items[key]; ok {
		if c.moveOnHit {
			c.ll.MoveToBack(e)
		}
		return true
	}
	if size > c.capacity {
		return false // uncacheable; serve and forget
	}
	for c.used+size > c.capacity {
		c.evictOne()
	}
	el := c.ll.PushBack(listEntry{key: key, size: size})
	c.items[key] = el
	c.used += size
	return false
}

// Resize retargets the cache's byte capacity, evicting per policy until
// the residents fit — the scenario matrix's capacity-shrink lever for the
// bounded baselines.
func (c *listCache) Resize(capacity core.Bytes) {
	c.capacity = capacity
	for c.used > c.capacity && c.ll.Len() > 0 {
		c.evictOne()
	}
}

func (c *listCache) evictOne() {
	var el *list.Element
	if c.evictBack {
		el = c.ll.Back()
	} else {
		el = c.ll.Front()
	}
	if el == nil {
		return
	}
	ent := el.Value.(listEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.size
}

// scoreCache covers the value-ordered policies (LFU, SIZE, GDSF, LRU-k):
// a min-heap on a policy-computed score; the minimum scores evict first.
type scoreCache struct {
	name     string
	capacity core.Bytes
	used     core.Bytes
	h        scoreHeap
	items    map[string]*scoreEntry
	seq      int64
	// score computes the entry's eviction score after an access; larger
	// scores survive longer. state is policy-private per-entry data.
	score func(c *scoreCache, e *scoreEntry, now core.Time) float64
	// inflation is GDSF's L: the score floor that rises as entries evict.
	inflation float64
	// histories retains LRU-k reference history across evictions (the
	// LRU-K algorithm's retained information).
	histories map[string][]core.Time
	k         int
}

type scoreEntry struct {
	key   string
	size  core.Bytes
	freq  float64
	score float64
	seq   int64 // tiebreak: lower = older = evict first
	index int
}

type scoreHeap []*scoreEntry

func (h scoreHeap) Len() int { return len(h) }
func (h scoreHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].seq < h[j].seq
}
func (h scoreHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *scoreHeap) Push(x any) {
	e := x.(*scoreEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *scoreHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewLFU returns a least-frequently-used cache (ties broken LRU).
func NewLFU(capacity core.Bytes) Cache {
	return &scoreCache{
		name: "LFU", capacity: capacity, items: make(map[string]*scoreEntry),
		score: func(_ *scoreCache, e *scoreEntry, _ core.Time) float64 {
			return e.freq
		},
	}
}

// NewMFU returns a most-frequently-used cache (evicts the hottest entry —
// pathological on Zipf traffic, kept as the paper's MFU query-modifier
// counterpart and as the matrix's lower anchor).
func NewMFU(capacity core.Bytes) Cache {
	return &scoreCache{
		name: "MFU", capacity: capacity, items: make(map[string]*scoreEntry),
		score: func(_ *scoreCache, e *scoreEntry, _ core.Time) float64 {
			return -e.freq
		},
	}
}

// NewSize returns a SIZE cache: biggest objects evict first, maximizing
// object hit ratio on heterogeneous web objects.
func NewSize(capacity core.Bytes) Cache {
	return &scoreCache{
		name: "SIZE", capacity: capacity, items: make(map[string]*scoreEntry),
		score: func(_ *scoreCache, e *scoreEntry, _ core.Time) float64 {
			return -float64(e.size)
		},
	}
}

// NewGDSF returns a Greedy-Dual-Size-Frequency cache (Cherkasova):
// score = L + freq/size; L inflates to the score of each evicted entry,
// aging out entries whose value was earned long ago.
func NewGDSF(capacity core.Bytes) Cache {
	return &scoreCache{
		name: "GDSF", capacity: capacity, items: make(map[string]*scoreEntry),
		score: func(c *scoreCache, e *scoreEntry, _ core.Time) float64 {
			if e.size <= 0 {
				return c.inflation + e.freq
			}
			return c.inflation + e.freq/float64(e.size)
		},
	}
}

// NewLRUK returns an LRU-k cache: the entry whose k-th most recent
// reference is oldest evicts first; entries with fewer than k references
// are the first victims (their t_k is −∞, as in Table 2's lastkref). k
// must be >= 1; k = 1 degenerates to plain LRU.
func NewLRUK(capacity core.Bytes, k int) Cache {
	if k < 1 {
		k = 1
	}
	c := &scoreCache{
		name: fmt.Sprintf("LRU-%d", k), capacity: capacity,
		items: make(map[string]*scoreEntry), histories: make(map[string][]core.Time), k: k,
	}
	c.score = func(cc *scoreCache, e *scoreEntry, _ core.Time) float64 {
		h := cc.histories[e.key]
		if len(h) < cc.k {
			return float64(core.TimeNever)
		}
		return float64(h[len(h)-cc.k])
	}
	return c
}

func (c *scoreCache) Name() string     { return c.name }
func (c *scoreCache) Used() core.Bytes { return c.used }

func (c *scoreCache) Access(key string, size core.Bytes, now core.Time) bool {
	if c.histories != nil {
		h := append(c.histories[key], now)
		if len(h) > c.k {
			h = h[len(h)-c.k:]
		}
		c.histories[key] = h
	}
	if e, ok := c.items[key]; ok {
		e.freq++
		e.score = c.score(c, e, now)
		heap.Fix(&c.h, e.index)
		return true
	}
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity {
		c.evictOne()
	}
	c.seq++
	e := &scoreEntry{key: key, size: size, freq: 1, seq: c.seq}
	e.score = c.score(c, e, now)
	heap.Push(&c.h, e)
	c.items[key] = e
	c.used += size
	return false
}

// Resize retargets the cache's byte capacity, evicting lowest scores
// until the residents fit.
func (c *scoreCache) Resize(capacity core.Bytes) {
	c.capacity = capacity
	for c.used > c.capacity && c.h.Len() > 0 {
		c.evictOne()
	}
}

func (c *scoreCache) evictOne() {
	if c.h.Len() == 0 {
		return
	}
	e := heap.Pop(&c.h).(*scoreEntry)
	delete(c.items, e.key)
	c.used -= e.size
	// GDSF inflation: future entries must beat the evicted value.
	if c.name == "GDSF" && e.score > c.inflation {
		c.inflation = e.score
	}
}

// Infinite is the capacity-bound-free reference point: everything ever
// seen stays resident. Its hit ratio is the trace's reuse ceiling.
type Infinite struct {
	items map[string]core.Bytes
	used  core.Bytes
}

// NewInfinite returns an unbounded cache.
func NewInfinite() *Infinite { return &Infinite{items: make(map[string]core.Bytes)} }

// Name implements Cache.
func (c *Infinite) Name() string { return "INF" }

// Access implements Cache; nothing ever evicts.
func (c *Infinite) Access(key string, size core.Bytes, _ core.Time) bool {
	if _, ok := c.items[key]; ok {
		return true
	}
	c.items[key] = size
	c.used += size
	return false
}

// Used implements Cache.
func (c *Infinite) Used() core.Bytes { return c.used }
