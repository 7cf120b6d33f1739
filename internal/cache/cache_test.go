package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/workload"
)

// residents counts the objects c holds.
func residents(c Cache) int {
	switch c := c.(type) {
	case *listCache:
		return len(c.items)
	case *scoreCache:
		return len(c.items)
	case *Infinite:
		return len(c.items)
	}
	panic(fmt.Sprintf("residents: unknown cache %T", c))
}

// access drives a sequence of equal-size requests and returns "H"/"M"
// outcome string, e.g. "MMHM".
func access(c Cache, size core.Bytes, keys ...string) string {
	var b strings.Builder
	for i, k := range keys {
		if c.Access(k, size, core.Time(i)) {
			b.WriteByte('H')
		} else {
			b.WriteByte('M')
		}
	}
	return b.String()
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewLRU(2) // two 1-byte objects
	got := access(c, 1, "a", "b", "a", "c", "b", "a")
	// a,b miss; a hit; c evicts b (LRU); b miss evicts a; a miss.
	if got != "MMHMMM" {
		t.Errorf("outcomes = %s, want MMHMMM", got)
	}
	if residents(c) != 2 || c.Used() != 2 {
		t.Errorf("residents=%d Used=%d", residents(c), c.Used())
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	c := NewFIFO(2)
	// a,b in; touching a does not refresh it; c evicts a (first in).
	got := access(c, 1, "a", "b", "a", "c", "a")
	if got != "MMHMM" {
		t.Errorf("outcomes = %s, want MMHMM", got)
	}
}

func TestMRUEvictsMostRecent(t *testing.T) {
	c := NewMRU(2)
	// a,b in; c evicts b (most recently used); a still resident.
	got := access(c, 1, "a", "b", "c", "a")
	if got != "MMMH" {
		t.Errorf("outcomes = %s, want MMMH", got)
	}
}

func TestLFUKeepsFrequent(t *testing.T) {
	c := NewLFU(2)
	// a hit twice; b once; c evicts b (least frequent).
	got := access(c, 1, "a", "a", "a", "b", "c", "a")
	if got != "MHHMMH" {
		t.Errorf("outcomes = %s, want MHHMMH", got)
	}
}

func TestSizeEvictsLargest(t *testing.T) {
	c := NewSize(100)
	c.Access("big", 60, 0)
	c.Access("small", 30, 1)
	// Adding 30 more forces eviction of "big" (largest).
	c.Access("mid", 30, 2)
	if c.Access("big", 60, 3) {
		t.Error("big survived SIZE eviction")
	}
	// small had to go to fit big again (60+30+30 > 100 → evict largest
	// first, that's big itself... verify small state empirically).
	_ = c
}

func TestGDSFPrefersSmallPopular(t *testing.T) {
	c := NewGDSF(100)
	// Small object accessed often vs big object accessed once.
	for i := 0; i < 5; i++ {
		c.Access("small", 10, core.Time(i))
	}
	c.Access("big", 90, 10)
	// Inserting forces eviction: big should go (freq 1, huge size).
	c.Access("other", 20, 11)
	if !c.Access("small", 10, 12) {
		t.Error("GDSF evicted the small popular object")
	}
	if c.Access("big", 90, 13) {
		t.Error("GDSF kept the big cold object")
	}
}

func TestLRUKPrefersHistory(t *testing.T) {
	c := NewLRUK(2, 2)
	// a referenced twice (has a t_2), b once (t_2 = -inf).
	access(c, 1, "a", "a", "b")
	// c arrives: b (no k-th reference) evicts first.
	c.Access("c", 1, 10)
	if !c.Access("a", 1, 11) {
		t.Error("LRU-2 evicted the object with full history")
	}
	if c.Access("b", 1, 12) {
		t.Error("LRU-2 kept the single-reference object")
	}
}

func TestLRUKHistorySurvivesEviction(t *testing.T) {
	c := NewLRUK(1, 2).(*scoreCache)
	c.Access("a", 1, 0)
	c.Access("b", 1, 1) // evicts a, but a's history is retained
	if len(c.histories["a"]) == 0 {
		t.Error("history dropped on eviction")
	}
}

func TestOversizeObjectNotCached(t *testing.T) {
	for _, c := range []Cache{NewLRU(10), NewLFU(10), NewGDSF(10), NewSize(10)} {
		if c.Access("huge", 11, 0) {
			t.Errorf("%s: first access hit", c.Name())
		}
		if c.Access("huge", 11, 1) {
			t.Errorf("%s: oversize object was cached", c.Name())
		}
		if residents(c) != 0 {
			t.Errorf("%s: %d residents", c.Name(), residents(c))
		}
	}
}

func TestInfiniteNeverEvicts(t *testing.T) {
	c := NewInfinite()
	got := access(c, 1, "a", "b", "c", "a", "b", "c")
	if got != "MMMHHH" {
		t.Errorf("outcomes = %s", got)
	}
	if c.Name() != "INF" || residents(c) != 3 || c.Used() != 3 {
		t.Errorf("state: %s %d %v", c.Name(), residents(c), c.Used())
	}
}

// Property: no bounded cache ever exceeds its capacity, and the infinite
// cache's hit count upper-bounds every policy's on the same trace.
func TestCapacityAndUpperBoundProperty(t *testing.T) {
	f := func(keys []uint8, sizes []uint8) bool {
		n := len(keys)
		if len(sizes) < n {
			n = len(sizes)
		}
		caches := []Cache{
			NewLRU(64), NewFIFO(64), NewMRU(64), NewLFU(64),
			NewSize(64), NewGDSF(64), NewLRUK(64, 2),
		}
		inf := NewInfinite()
		hits := make([]int, len(caches))
		infHits := 0
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", keys[i]%16)
			size := core.Bytes(sizes[i]%16 + 1)
			for ci, c := range caches {
				if c.Access(key, size, core.Time(i)) {
					hits[ci]++
				}
				if c.Used() > 64 {
					return false
				}
			}
			if inf.Access(key, size, core.Time(i)) {
				infHits++
			}
		}
		for _, h := range hits {
			if h > infHits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func zipfTrace(t testing.TB, n int) logmine.Log {
	rng := rand.New(rand.NewSource(5))
	z := workload.NewZipf(rng, 500, 0.9)
	sizes := make([]core.Bytes, 500)
	for i := range sizes {
		sizes[i] = core.Bytes(rng.Intn(63) + 1)
	}
	var l logmine.Log
	for i := 0; i < n; i++ {
		r := z.Sample()
		l = append(l, logmine.Record{
			Time: core.Time(i), User: "u", URL: fmt.Sprintf("/p%03d", r),
			Status: 200, Bytes: sizes[r] * core.KB,
		})
	}
	return l
}

func TestRunHitRatioOrdering(t *testing.T) {
	trace := zipfTrace(t, 20000)
	inf := Run(NewInfinite(), trace)
	small := Run(NewLRU(100*core.KB), trace)
	big := Run(NewLRU(4000*core.KB), trace)
	if !(small.HitRatio() < big.HitRatio()) {
		t.Errorf("bigger cache not better: %v vs %v", small.HitRatio(), big.HitRatio())
	}
	if big.HitRatio() > inf.HitRatio() {
		t.Errorf("bounded beat infinite: %v vs %v", big.HitRatio(), inf.HitRatio())
	}
	if inf.HitRatio() <= 0.3 {
		t.Errorf("zipf trace reuse too low: %v", inf.HitRatio())
	}
	if small.Requests != 20000 || small.ReqBytes == 0 {
		t.Errorf("accounting: %+v", small)
	}
	if small.Capacity != 100*core.KB {
		t.Errorf("capacity not recorded: %v", small.Capacity)
	}
}

func TestRunModifiedForcesMiss(t *testing.T) {
	l := logmine.Log{
		{Time: 0, URL: "/a", Bytes: 1, User: "u", Status: 200},
		{Time: 1, URL: "/a", Bytes: 1, User: "u", Status: 200},
		{Time: 2, URL: "/a", Bytes: 1, User: "u", Status: 200, Modified: true},
		{Time: 3, URL: "/a", Bytes: 1, User: "u", Status: 200},
	}
	res := Run(NewLRU(10), l)
	// Accesses: miss, hit, modified (counts as miss), hit.
	if res.Hits != 2 {
		t.Errorf("Hits = %d, want 2", res.Hits)
	}
}

func TestSweepShape(t *testing.T) {
	trace := zipfTrace(t, 2000)
	results := sweep(trace,
		[]core.Bytes{50 * core.KB, 500 * core.KB},
		NewLRU, NewLFU)
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].Policy != "LRU" || results[2].Policy != "LFU" {
		t.Errorf("order: %v %v", results[0].Policy, results[2].Policy)
	}
	// Results render as table rows.
	if s := results[0].String(); !strings.Contains(s, "LRU") || !strings.Contains(s, "hit=") {
		t.Errorf("String() = %q", s)
	}
}

func TestResultRatiosEmpty(t *testing.T) {
	var r Result
	if r.HitRatio() != 0 || r.ByteHitRatio() != 0 {
		t.Error("empty result ratios nonzero")
	}
}

func BenchmarkLRUAccess(b *testing.B) {
	trace := zipfTrace(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(NewLRU(1000*core.KB), trace)
	}
}

func BenchmarkGDSFAccess(b *testing.B) {
	trace := zipfTrace(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(NewGDSF(1000*core.KB), trace)
	}
}
