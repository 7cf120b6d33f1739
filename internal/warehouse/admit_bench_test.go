package warehouse

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
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

func (o *firstSightOrigin) Fetch(url string) (simweb.FetchResult, error) {
	h := fnv.New32a()
	h.Write([]byte(url))
	i := int(h.Sum32() % uint32(len(o.bodies)))
	return simweb.FetchResult{Latency: 100, Page: simweb.Page{
		URL: url, Title: o.titles[i], Body: o.bodies[i], Size: 8 * core.KB, Version: 1,
		Anchors: []simweb.Anchor{
			{Text: o.titles[(i+1)%256], Target: url + "/a"},
			{Text: o.titles[(i+2)%256], Target: url + "/b"},
			{Text: o.titles[(i+3)%256], Target: url + "/c"},
		},
		Components: []simweb.Component{{URL: fmt.Sprintf("http://media.example/m%d.png", i%8), Size: 2 * core.KB}},
	}}, nil
}

func (o *firstSightOrigin) Head(url string) (int, core.Time, error) { return 1, 0, nil }

// admitBench builds a one-shard, all-in-heap warehouse over a
// firstSightOrigin and returns it with a source of fresh URLs. One shard is
// the worst case for admission: every miss contends for the same lock.
func admitBench(tb testing.TB) (*Warehouse, func() string) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Storage.Tiers = storage.ClassicTiers(4*core.MB, 16*core.MB)
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
// under the lock it is 1.
func BenchmarkAdmitNew(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		w, fresh := admitBench(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Get("", fresh()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		w, fresh := admitBench(b)
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
// tokenizations, a sort of the population). Measured: 1,400; the ceiling
// sits 20 % above.
func TestAdmitNewAllocCeiling(t *testing.T) {
	w, fresh := admitBench(t)
	for i := 0; i < 64; i++ { // warm the dictionary and the media pool
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
	const ceiling = 1700
	t.Logf("allocs per 8 KiB admission: %.0f (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("one 8 KiB admission allocates %.0f times, ceiling %d", got, ceiling)
	}
}
