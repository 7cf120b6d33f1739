package warehouse

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/storage"
)

// firstSightOrigin answers every URL with an 8 KiB page nobody has seen
// before, at no cost worth measuring: the admission benchmarks' stand-in
// for the wire benchmark's cold_admit origin (Zipf-worded bodies over a
// 4096-word vocabulary, a title, 3 anchors, 1 component from a pool of 8).
// Bodies come from a fixed pool so serving one is a map-free lookup.
type firstSightOrigin struct {
	bodies []string
	titles []string
}

func newFirstSightOrigin() *firstSightOrigin {
	rng := rand.New(rand.NewSource(1))
	vocab := make([]string, 4096)
	for i := range vocab {
		b := make([]byte, 3+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(b)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(vocab)-1))
	o := &firstSightOrigin{bodies: make([]string, 256), titles: make([]string, 256)}
	for i := range o.bodies {
		var b strings.Builder
		for b.Len() < 8<<10 {
			b.WriteString(vocab[zipf.Uint64()])
			b.WriteByte(' ')
		}
		o.bodies[i] = b.String()[:8<<10]
		o.titles[i] = fmt.Sprintf("%s %s %s", vocab[zipf.Uint64()], vocab[zipf.Uint64()], vocab[rng.Intn(len(vocab))])
	}
	return o
}

func (o *firstSightOrigin) FetchCtx(_ context.Context, url string) (core.FetchResult, error) {
	h := fnv.New32a()
	h.Write([]byte(url))
	i := int(h.Sum32() % uint32(len(o.bodies)))
	return core.FetchResult{Latency: 100, Page: core.Page{
		URL: url, Title: o.titles[i], Body: o.bodies[i], Size: 8 * core.KB, Version: 1,
		Anchors: []core.Anchor{
			{Text: o.titles[(i+1)%256], Target: url + "/a"},
			{Text: o.titles[(i+2)%256], Target: url + "/b"},
			{Text: o.titles[(i+3)%256], Target: url + "/c"},
		},
		Components: []core.Component{{URL: fmt.Sprintf("http://media.example/m%d.png", i%8), Size: 2 * core.KB}},
	}}, nil
}

func (o *firstSightOrigin) HeadCtx(context.Context, string) (int, core.Time, error) { return 1, 0, nil }

// admitBench builds a one-shard warehouse over a firstSightOrigin and
// returns it with a source of fresh URLs: all in heap when dataDir is
// empty, otherwise with file-backed tiers under dataDir. One shard is the worst case for admission: every miss contends
// for the same lock.
func admitBench(tb testing.TB, dataDir string) (*Warehouse, func() string) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Storage.Tiers = storage.ClassicTiers(4*core.MB, 16*core.MB)
	cfg.DataDir = dataDir
	w, err := New(cfg, core.NewSimClock(0), newFirstSightOrigin())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	var n atomic.Int64
	return w, func() string { return fmt.Sprintf("http://site%02d.example/p%07d.html", n.Load()%16, n.Add(1)) }
}

// BenchmarkAdmitNew measures a first-sight Get — prepare outside the shard
// lock, commit under it — serially and from GOMAXPROCS goroutines that all
// hash to the one shard (`make bench-admit`). The parallel rate over the
// serial rate is what preparing outside the lock buys; with everything
// under the lock it is 1. The serial-disk row admits into a data
// directory, so it also pays what the file system charges per admission:
// the appends to the disk tier's, the tertiary tier's and the version
// archive's logs.
func BenchmarkAdmitNew(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		w, fresh := admitBench(b, "")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Get("", fresh()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial-disk", func(b *testing.B) {
		w, fresh := admitBench(b, b.TempDir())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Get("", fresh()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		w, fresh := admitBench(b, "")
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := w.Get("", fresh()); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// One 8 KiB admission allocates for the page's distinct tokens, counts,
// vector, payload, hierarchy objects, postings and version snapshot — and
// for nothing that scales with the population or repeats work (the parent
// of this gate allocated 7,600 times: a string per token, three
// tokenizations, a sort of the population; then 1,400, with a fresh
// string for each distinct token and its stem until stems were memoised;
// then 161, with a Builder map per part, a copy per normalization and
// four allocations per centroid step; then 138, with a string-keyed count
// map per part; then 133, with a fresh weight slice per centroid step).
// Measured: 130 on Go 1.24 for amd64; the ceiling sits 10 % above (143).
// The race detector's count includes its own and varies (151–155
// measured), so under it the ceiling stays at 158.
func TestAdmitNewAllocCeiling(t *testing.T) {
	w, fresh := admitBench(t, "")
	for i := 0; i < 64; i++ { // warm the dictionary, the stem memo and the media pool
		if _, err := w.Get("", fresh()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	got := testing.AllocsPerRun(200, func() {
		if _, err := w.Get("", fresh()); err != nil {
			t.Fatal(err)
		}
	})
	ceiling := 143.0
	if raceEnabled {
		ceiling = 158
	}
	t.Logf("allocs per 8 KiB admission: %.0f (ceiling %.0f)", got, ceiling)
	if got > ceiling {
		t.Errorf("one 8 KiB admission allocates %.0f times, ceiling %.0f", got, ceiling)
	}
}

// TestKeptPageHeap is the kept-pages yardstick's gate: the live heap a
// kept page costs on top of its body, which grows with every page the
// warehouse keeps. It admits 2,000 first-sight 8 KiB pages into a
// file-backed warehouse whose memory tier holds a few dozen bodies, so
// nearly every body lies in a file and what stays is per-page state: the
// page record and vector, the object hierarchy, the index postings, the
// version snapshot, the storage entries. Go 1.24 on amd64 measures
// 12.6 KB per page, of which the vector holds about 5 KB and the full
// index's postings about 4 KB; the map-keyed index with 16-byte postings
// and its own copy of each page's term IDs measured 18.9 KB. The ceiling
// is 14 KiB: the measurement plus 1.7 KB of margin.
func TestKeptPageHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("admits 2,000 pages")
	}
	const pages, ceiling = 2000, 14 << 10
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Storage.Tiers = storage.ClassicTiers(256*core.KB, 64*core.MB)
	cfg.DataDir = t.TempDir()
	w, err := New(cfg, core.NewSimClock(0), newFirstSightOrigin())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	url := func(i int) string { return fmt.Sprintf("http://site%02d.example/p%07d.html", i%16, i) }
	for i := 0; i < 64; i++ { // warm the dictionary, the memos and the media pool
		if _, err := w.Get("", url(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := liveHeapMetric()
	for i := 64; i < 64+pages; i++ {
		if _, err := w.Get("", url(i)); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(liveHeapMetric()-before) / pages
	runtime.KeepAlive(w)
	t.Logf("live heap per kept page: %.0f B (ceiling %d)", per, ceiling)
	if per > ceiling {
		t.Errorf("a kept page costs %.0f B of live heap, ceiling %d", per, ceiling)
	}
}

// liveHeapMetric is the live heap after a full collection, as the runtime
// reports it.
func liveHeapMetric() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// BenchmarkRehydrate measures a restart's page restore: 1,920 checkpointed
// first-sight 8 KiB pages brought back into a fresh warehouse, and so into
// a cold dictionary, per iteration (`make bench-admit`). Opening and
// closing the warehouse are not timed. Run it at -cpu 1,2: the restore
// prepares pages on every core and commits them on one.
func BenchmarkRehydrate(b *testing.B) {
	const pages = 1920
	w, fresh := admitBench(b, b.TempDir())
	cfg := w.cfg
	for i := 0; i < pages; i++ {
		if _, err := w.Get("", fresh()); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := New(cfg, core.NewSimClock(0), newFirstSightOrigin())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := w.Rehydrate()
		b.StopTimer()
		if err != nil || n != pages {
			b.Fatalf("rehydrated %d of %d pages: %v", n, pages, err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
