// Package cbfww_bench holds the top-level benchmark harness: one
// testing.B benchmark per paper artifact (they regenerate the same tables
// cmd/cbfww-bench prints; see EXPERIMENTS.md for the index), plus
// micro-benchmarks of the warehouse's hot paths.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig8 -benchtime=1x    # one regeneration
package cbfww_bench

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/experiments"
	"cbfww/internal/gateway"
	"cbfww/internal/simweb"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// benchSeed keeps regenerated tables identical across runs.
const benchSeed = 1

// run regenerates a table b.N times and reports its row count so the
// harness fails loudly if an experiment silently produces nothing.
func run(b *testing.B, f func(int64) experiments.Table) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		t := f(benchSeed)
		rows = len(t.Rows)
	}
	if rows == 0 {
		b.Fatal("experiment produced an empty table")
	}
	b.ReportMetric(float64(rows), "rows")
}

func noSeed(f func() experiments.Table) func(int64) experiments.Table {
	return func(int64) experiments.Table { return f() }
}

// BenchmarkTable1Capabilities regenerates Table 1 (E-T1).
func BenchmarkTable1Capabilities(b *testing.B) { run(b, noSeed(experiments.T1Capabilities)) }

// BenchmarkTable2UsageAttributes regenerates Table 2 (E-T2).
func BenchmarkTable2UsageAttributes(b *testing.B) { run(b, noSeed(experiments.T2UsageAttributes)) }

// BenchmarkClaim60PctOneTimers regenerates the §1 measurement (E-C1).
func BenchmarkClaim60PctOneTimers(b *testing.B) { run(b, experiments.C1OneTimers) }

// BenchmarkFig2SharedObjectPriority regenerates Figure 2 (E-F2).
func BenchmarkFig2SharedObjectPriority(b *testing.B) {
	run(b, noSeed(experiments.F2SharedObjectPriority))
}

// BenchmarkFig3StorageMapping regenerates Figure 3 (E-F3).
func BenchmarkFig3StorageMapping(b *testing.B) { run(b, experiments.F3StorageMapping) }

// BenchmarkFig5LogicalDocuments regenerates Figure 5 (E-F5).
func BenchmarkFig5LogicalDocuments(b *testing.B) { run(b, experiments.F5LogicalDocuments) }

// BenchmarkFig6LogicalContent regenerates Figure 6 (E-F6).
func BenchmarkFig6LogicalContent(b *testing.B) { run(b, noSeed(experiments.F6LogicalContent)) }

// BenchmarkFig7SemanticRegions regenerates Figure 7 (E-F7).
func BenchmarkFig7SemanticRegions(b *testing.B) { run(b, experiments.F7SemanticRegions) }

// BenchmarkFig8AdmissionPriority regenerates Figure 8 (E-F8).
func BenchmarkFig8AdmissionPriority(b *testing.B) { run(b, experiments.F8AdmissionPriority) }

// BenchmarkQ1PopularityQueries regenerates the §4.3 query demonstration
// (E-Q1).
func BenchmarkQ1PopularityQueries(b *testing.B) { run(b, experiments.Q1PopularityQueries) }

// BenchmarkX1FrequencyEstimators regenerates the §4.2 estimator comparison
// (E-X1).
func BenchmarkX1FrequencyEstimators(b *testing.B) { run(b, experiments.X1FrequencyEstimators) }

// BenchmarkX2TopicSensor regenerates the Topic Sensor ablation (E-X2).
func BenchmarkX2TopicSensor(b *testing.B) { run(b, experiments.X2TopicSensor) }

// BenchmarkX3BoundedBaselines regenerates the bounded-policy sweep (E-X3).
func BenchmarkX3BoundedBaselines(b *testing.B) { run(b, experiments.X3BoundedBaselines) }

// BenchmarkX4CopyControl regenerates the failure-injection table (E-X4).
func BenchmarkX4CopyControl(b *testing.B) { run(b, experiments.X4CopyControl) }

// BenchmarkX5Consistency regenerates the consistency comparison (E-X5).
func BenchmarkX5Consistency(b *testing.B) { run(b, experiments.X5Consistency) }

// BenchmarkHotSpotLifetimes regenerates the §4.4 hot-spot analysis.
func BenchmarkHotSpotLifetimes(b *testing.B) { run(b, experiments.AnalyzerHotSpots) }

// BenchmarkA1OmegaTitleWeight regenerates the ω ablation (E-A1).
func BenchmarkA1OmegaTitleWeight(b *testing.B) { run(b, experiments.A1OmegaTitleWeight) }

// BenchmarkA2RegionThreshold regenerates the region-threshold ablation
// (E-A2).
func BenchmarkA2RegionThreshold(b *testing.B) { run(b, experiments.A2RegionThreshold) }

// BenchmarkA3AdmissionDecay regenerates the admission-decay ablation
// (E-A3).
func BenchmarkA3AdmissionDecay(b *testing.B) { run(b, experiments.A3AdmissionDecay) }

// BenchmarkL1TertiaryLocality regenerates the §4.4 locality-of-reference
// experiment.
func BenchmarkL1TertiaryLocality(b *testing.B) { run(b, experiments.L1TertiaryLocality) }

// --- hot-path micro-benchmarks ---------------------------------------

// benchWorld builds a warmed warehouse for the micro-benchmarks.
func benchWorld(b *testing.B) (*warehouse.Warehouse, *workload.GeneratedWeb, *core.SimClock) {
	b.Helper()
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite, wcfg.Seed = 10, 50, benchSeed
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := warehouse.New(warehouse.DefaultConfig(), clock, g.Web)
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range g.PageURLs {
		if _, err := w.Get("warm", u); err != nil {
			b.Fatal(err)
		}
		clock.Advance(1)
	}
	return w, g, clock
}

// BenchmarkWarehouseGetHit measures the resident-page serve path.
func BenchmarkWarehouseGetHit(b *testing.B) {
	w, g, clock := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(1)
		if _, err := w.Get("bench", g.PageURLs[i%len(g.PageURLs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarehouseQueryMFU measures a modifier query over the populated
// warehouse.
func BenchmarkWarehouseQueryMFU(b *testing.B) {
	w, _, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Query("SELECT MFU 10 p.url FROM Physical_Page p"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarehouseQueryMention measures a MENTION scan.
func BenchmarkWarehouseQueryMention(b *testing.B) {
	w, g, _ := benchWorld(b)
	// Use a term guaranteed to exist: the first page's first title word.
	snap, ok := w.Versions().Latest(g.PageURLs[0])
	if !ok {
		b.Fatal("no content")
	}
	term := firstWord(snap.Title)
	q := fmt.Sprintf("SELECT MRU 10 p.url FROM Physical_Page p WHERE p.title MENTION '%s'", term)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarehouseMaintain measures a full self-organization sweep.
func BenchmarkWarehouseMaintain(b *testing.B) {
	w, _, clock := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(3600)
		if _, err := w.Maintain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarehouseMinePaths measures the discovery sweep over the
// accumulated operational log.
func BenchmarkWarehouseMinePaths(b *testing.B) {
	w, _, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.MinePaths(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- read-path benchmarks ---------------------------------------------

// popWorld caches the large populated warehouse the read-path benchmarks
// share: building it admits every page (each admission re-places the whole
// storage population), so it is built once per process.
var popWorld struct {
	once  sync.Once
	w     *warehouse.Warehouse
	g     *workload.GeneratedWeb
	clock *core.SimClock
	term  string
	err   error
}

// benchPopulatedWorld returns a warmed ≥5k-page warehouse plus a query term
// guaranteed to match indexed content.
func benchPopulatedWorld(b *testing.B) (*warehouse.Warehouse, *workload.GeneratedWeb, string) {
	b.Helper()
	popWorld.once.Do(func() {
		clock := core.NewSimClock(0)
		wcfg := workload.DefaultWebConfig()
		wcfg.Sites, wcfg.PagesPerSite, wcfg.Seed = 100, 50, benchSeed
		g, err := workload.GenerateWeb(clock, wcfg)
		if err != nil {
			popWorld.err = err
			return
		}
		w, err := warehouse.New(warehouse.DefaultConfig(), clock, g.Web)
		if err != nil {
			popWorld.err = err
			return
		}
		for _, u := range g.PageURLs {
			if _, err := w.Get("warm", u); err != nil {
				popWorld.err = err
				return
			}
			clock.Advance(1)
		}
		snap, ok := w.Versions().Latest(g.PageURLs[0])
		if !ok {
			popWorld.err = fmt.Errorf("populated world: no content for %s", g.PageURLs[0])
			return
		}
		popWorld.w, popWorld.g, popWorld.clock = w, g, clock
		popWorld.term = firstWord(snap.Title)
	})
	if popWorld.err != nil {
		b.Fatal(popWorld.err)
	}
	return popWorld.w, popWorld.g, popWorld.term
}

// BenchmarkSearchTieredPopulated measures ranked retrieval through the
// index hierarchy on a populated (≥5k-page) warehouse — the read path the
// hot-index maintenance strategy dominates.
func BenchmarkSearchTieredPopulated(b *testing.B) {
	w, _, term := benchPopulatedWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := w.SearchTiered(term, 10)
		if len(res.Scores) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkHotIndexSizePopulated measures the membership-size probe, which
// shares the hot-index maintenance path with SearchTiered.
func BenchmarkHotIndexSizePopulated(b *testing.B) {
	w, _, _ := benchPopulatedWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.HotIndexSize() < 0 {
			b.Fatal("negative size")
		}
	}
}

// BenchmarkQueryMFUPopulated measures the popularity-ordered query path
// (§4.3 modifiers) over ~5k physical pages.
func BenchmarkQueryMFUPopulated(b *testing.B) {
	w, _, _ := benchPopulatedWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Query("SELECT MFU 10 p.url FROM Physical_Page p"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorCosinePopulated measures sparse-vector similarity between
// two real document vectors from the populated corpus — the primitive under
// clustering, recommendation, topic heat and admission priority.
func BenchmarkVectorCosinePopulated(b *testing.B) {
	w, g, _ := benchPopulatedWorld(b)
	snapA, okA := w.Versions().Latest(g.PageURLs[0])
	snapB, okB := w.Versions().Latest(g.PageURLs[1])
	if !okA || !okB {
		b.Fatal("no content")
	}
	snapA, errA := w.Versions().Materialize(g.PageURLs[0], snapA)
	snapB, errB := w.Versions().Materialize(g.PageURLs[1], snapB)
	if errA != nil || errB != nil {
		b.Fatal(errA, errB)
	}
	va := w.Corpus().Vectorize(snapA.Title + "\n" + snapA.Body)
	vb := w.Corpus().Vectorize(snapB.Title + "\n" + snapB.Body)
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += va.Cosine(vb)
	}
	if acc < 0 {
		b.Fatal("negative similarity")
	}
}

// --- shard-scaling benchmarks -----------------------------------------

// slowOrigin adds real wall-clock latency to every body fetch, standing
// in for origin RTT. Refresh holds its shard's lock across the fetch, so
// the sleep makes lock-hold time visible: with one stripe a refresh
// stalls every reader, with N stripes it stalls only 1/N of the URL
// space.
type slowOrigin struct {
	*simweb.Web
	delay time.Duration
}

func (o *slowOrigin) Fetch(url string) (core.FetchResult, error) {
	time.Sleep(o.delay)
	return o.Web.Fetch(url)
}

// benchShardedWorld builds a fully warmed warehouse with the given stripe
// count. delay > 0 puts slowOrigin in front of the generated web.
func benchShardedWorld(b *testing.B, shards int, delay time.Duration) (*warehouse.Warehouse, *workload.GeneratedWeb) {
	b.Helper()
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite, wcfg.Seed = 8, 25, benchSeed
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	var origin core.Origin = g.Web
	if delay > 0 {
		origin = &slowOrigin{Web: g.Web, delay: delay}
	}
	cfg := warehouse.DefaultConfig()
	cfg.Shards = shards
	w, err := warehouse.New(cfg, clock, origin)
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range g.PageURLs {
		if _, err := w.Get("warm", u); err != nil {
			b.Fatal(err)
		}
	}
	return w, g
}

// shardedReaders drives parallel resident-hit reads over urls, each
// worker starting at a different offset so the load spreads across
// stripes.
func shardedReaders(b *testing.B, w *warehouse.Warehouse, urls []string) {
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 7919
		for pb.Next() {
			if _, err := w.Get("bench", urls[i%len(urls)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkShardedReadHit measures pure resident-hit throughput of the
// lock-striped warehouse under parallel readers. Run with -cpu 8 to match
// the 8-goroutine scaling check recorded in bench_tables.txt.
func BenchmarkShardedReadHit(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			w, g := benchShardedWorld(b, n, 0)
			b.ResetTimer()
			shardedReaders(b, w, g.PageURLs)
		})
	}
}

// BenchmarkShardedReadUnderRefresh is the stall-isolation case the
// stripes exist for: parallel readers serve resident hits while
// background writers loop Refresh on one stripe's pages through an origin
// with 200µs of real latency. Refresh holds its shard's lock across that
// fetch, so with a single stripe every reader serializes behind the
// sleeping writers; with 8 stripes the stall is confined to the refreshed
// stripe and reads of the other seven proceed at full speed.
//
// The workload split is fixed by the 8-way FNV mapping in both cases —
// refreshers hammer pages of one stripe, readers the rest — so the only
// variable between sub-benchmarks is how many locks cover that URL space.
func BenchmarkShardedReadUnderRefresh(b *testing.B) {
	const (
		originDelay = 200 * time.Microsecond
		stripes     = 8
		refreshers  = 4
	)
	for _, n := range []int{1, stripes} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			w, g := benchShardedWorld(b, n, originDelay)
			hot := warehouse.ShardIndex(g.PageURLs[0], stripes)
			var hotURLs, readURLs []string
			for _, u := range g.PageURLs {
				if warehouse.ShardIndex(u, stripes) == hot {
					hotURLs = append(hotURLs, u)
				} else {
					readURLs = append(readURLs, u)
				}
			}
			if len(hotURLs) < refreshers || len(readURLs) == 0 {
				b.Fatalf("degenerate stripe split: %d hot, %d read", len(hotURLs), len(readURLs))
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < refreshers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; ; i += refreshers {
						select {
						case <-done:
							return
						default:
						}
						if _, err := w.Refresh(context.Background(), hotURLs[i%len(hotURLs)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(r)
			}
			b.ResetTimer()
			shardedReaders(b, w, readURLs)
			b.StopTimer()
			close(done)
			wg.Wait()
		})
	}
}

// --- gateway (network daemon) benchmarks ------------------------------

// benchGateway stands a gateway daemon up over a fresh warehouse on a real
// test socket. warm pre-fetches every page so /fetch serves pure hits.
func benchGateway(b *testing.B, warm bool) (*httptest.Server, *workload.GeneratedWeb, *warehouse.Warehouse) {
	b.Helper()
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite, wcfg.Seed = 10, 50, benchSeed
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := warehouse.New(warehouse.DefaultConfig(), clock, g.Web)
	if err != nil {
		b.Fatal(err)
	}
	if warm {
		for _, u := range g.PageURLs {
			if _, err := w.Get("warm", u); err != nil {
				b.Fatal(err)
			}
		}
	}
	s, err := gateway.New(gateway.Config{}, w)
	if err != nil {
		b.Fatal(err)
	}
	return httptest.NewServer(s.Handler()), g, w
}

// BenchmarkGatewayParallelFetch measures hot-hit serving under parallel
// clients: every requested URL is already resident, so the daemon's
// read-locked serve path and the HTTP plumbing are what is being timed.
func BenchmarkGatewayParallelFetch(b *testing.B) {
	ts, g, _ := benchGateway(b, true)
	defer ts.Close()
	client := ts.Client()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			u := g.PageURLs[i%len(g.PageURLs)]
			i++
			resp, err := client.Get(ts.URL + "/fetch?url=" + u)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Errorf("fetch %s = %d", u, resp.StatusCode)
				return
			}
		}
	})
}

// BenchmarkGatewayMissStorm measures the coalesced cold path: 50
// concurrent requests for one cold URL, which must cost exactly one
// origin fetch (the paper's hot-spot arrival shape, §3(3)).
func BenchmarkGatewayMissStorm(b *testing.B) {
	const storm = 50
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts, g, w := benchGateway(b, false)
		client := ts.Client()
		cold := g.PageURLs[0]
		b.StartTimer()

		var wg sync.WaitGroup
		for j := 0; j < storm; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Get(ts.URL + "/fetch?url=" + cold)
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					b.Errorf("storm fetch = %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()

		b.StopTimer()
		if n := w.Stats().OriginFetches; n != 1 {
			b.Fatalf("miss storm cost %d origin fetches, want exactly 1", n)
		}
		ts.Close()
		b.StartTimer()
	}
	b.ReportMetric(storm, "reqs/storm")
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}
