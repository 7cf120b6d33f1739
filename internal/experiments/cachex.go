package experiments

import (
	"fmt"
	"math"

	"cbfww/internal/cache"
	"cbfww/internal/core"
	"cbfww/internal/usage"
	"cbfww/internal/workload"
)

// X1FrequencyEstimators compares §4.2's two frequency estimators: the
// exact sliding window and λ-aging. Accuracy is RMSE against the window
// truth at periodic checkpoints; memory is what each must keep resident.
func X1FrequencyEstimators(seed int64) Table {
	g, tr := generate(seed, 10, 50, 2000, 7*24*3600, nil) // one window-week of traffic

	const windowSize = 24 * 3600 // one day
	const epoch = 3600

	t := Table{
		Title:  "§4.2: Sliding Window vs λ-Aging Frequency Estimation",
		Header: []string{"estimator", "RMSE vs day-window", "entries kept", "per-ref work"},
	}

	ids := make(map[string]core.ObjectID)
	for i, u := range g.PageURLs {
		ids[u] = core.ObjectID(i + 1)
	}

	for _, lambda := range []float64{0.1, 0.3, 0.6} {
		window := usage.NewSlidingWindow(windowSize)
		aging := usage.NewAgingEstimator(lambda)
		aging.EpochLength = epoch

		var sqErr float64
		var checks int
		next := core.Time(windowSize)
		maxWindowEntries := 0
		for _, r := range tr.Log {
			id := ids[r.URL]
			window.Record(id, r.Time)
			aging.Record(id, r.Time)
			if window.EventCount() > maxWindowEntries {
				maxWindowEntries = window.EventCount()
			}
			if r.Time >= next {
				// Checkpoint: compare normalized rates over sampled objects.
				for _, u := range g.PageURLs {
					oid := ids[u]
					truth := float64(window.Frequency(oid, r.Time)) / (float64(windowSize) / float64(epoch))
					est := aging.Frequency(oid, r.Time)
					d := truth - est
					sqErr += d * d
					checks++
				}
				next += windowSize / 4
			}
		}
		rmse := 0.0
		if checks > 0 {
			rmse = math.Sqrt(sqErr / float64(checks))
		}
		t.AddRow(fmt.Sprintf("λ-aging λ=%.1f", lambda), f3(rmse),
			itoa(aging.Objects()), "O(1)")
		if lambda == 0.3 {
			t.AddRow("sliding window (truth)", "0.000", itoa(maxWindowEntries), "O(expiry scan)")
		}
	}
	t.AddNote("'entries kept': the window retains every in-window reference; aging keeps one entry per object")
	t.AddNote("paper: aging 'removes the overhead for keeping usage information' at bounded estimation error")
	return t
}

// X3BoundedBaselines regenerates the motivating sweep: hit ratio and byte
// hit ratio of the classic bounded policies as cache size grows toward the
// corpus size, against the infinite (bound-free) ceiling.
func X3BoundedBaselines(seed int64) Table {
	g, tr := generate(seed, 15, 80, 4000, 600_000, func(tc *workload.TraceConfig) {
		tc.UpdatesPerTick = 0.0005
	})

	var corpusBytes core.Bytes
	for _, u := range g.PageURLs {
		p, _ := g.Web.Lookup(u)
		corpusBytes += p.Size
	}

	t := Table{
		Title:  "E-X3: Bounded Replacement Policies vs the Bound-free Ceiling",
		Header: []string{"policy", "1% corpus", "5%", "20%", "100%", "INF ceiling"},
	}
	inf := cache.Run(cache.NewInfinite(), tr.Log)
	caps := []core.Bytes{corpusBytes / 100, corpusBytes / 20, corpusBytes / 5, corpusBytes}
	for _, mk := range []struct {
		name string
		fn   func(core.Bytes) cache.Cache
	}{
		{"LRU", cache.NewLRU},
		{"LFU", cache.NewLFU},
		{"GDSF", cache.NewGDSF},
		{"LRU-2", func(b core.Bytes) cache.Cache { return cache.NewLRUK(b, 2) }},
		{"FIFO", cache.NewFIFO},
		{"SIZE", cache.NewSize},
	} {
		cells := []string{mk.name}
		for _, c := range caps {
			res := cache.Run(mk.fn(c), tr.Log)
			cells = append(cells, pct(res.HitRatio()))
		}
		cells = append(cells, pct(inf.HitRatio()))
		t.AddRow(cells...)
	}
	t.AddNote("corpus %v, %d requests; INF = store everything (capacity bound-free reuse ceiling)", corpusBytes, len(tr.Log))
	t.AddNote("expected shape: every bounded policy climbs toward (never beyond) the INF ceiling; at 100%% of corpus they converge")
	return t
}
