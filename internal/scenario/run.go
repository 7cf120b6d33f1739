package scenario

import (
	"fmt"
	"os"
	"sort"

	"cbfww/internal/cache"
	"cbfww/internal/core"
	"cbfww/internal/experiments"
	"cbfww/internal/logmine"
	"cbfww/internal/priority"
	"cbfww/internal/storage"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// Runner expands a spec and executes every cell. Runs are fully
// deterministic: all randomness flows from the spec seed, all latencies
// are simulation ticks, and no wall-clock value reaches the results — so
// the same spec and binary produce byte-identical JSON, which is what
// makes checked-in baselines possible.
type Runner struct {
	Spec *Spec
	// WorkDir roots the disk-backend cells' temp state; empty uses the
	// OS temp dir. Each cell gets its own subdirectory, removed after
	// the run.
	WorkDir string
	// Progress, when non-nil, is called with each cell ID before it runs.
	Progress func(i, n int, id string)
}

// Run executes the matrix and returns its results, cells in expansion
// order.
func (r *Runner) Run() (*Results, error) {
	cells := r.Spec.Cells()
	res := &Results{Name: r.Spec.Name, Seed: r.Spec.Run.Seed}
	for i, c := range cells {
		if r.Progress != nil {
			r.Progress(i+1, len(cells), c.ID())
		}
		m, err := r.runCell(c)
		if err != nil {
			return nil, fmt.Errorf("scenario: cell %s: %w", c.ID(), err)
		}
		res.Cells = append(res.Cells, CellResult{
			ID:           c.ID(),
			Zipf:         c.Zipf,
			OneTimerMass: c.OneTimerMass,
			Churn:        c.Churn,
			Burst:        c.BurstLabel,
			Shards:       c.Shards,
			Mem:          c.Mem.String(),
			Disk:         c.Disk.String(),
			Backend:      c.Backend,
			Capacity:     c.CapacityLabel,
			Policy:       c.Policy,
			Metrics:      m,
		})
	}
	return res, nil
}

// runCell regenerates the cell's world from scratch, so nothing leaks
// between cells; cells sharing workload axes get identical traces (same
// seed, same knobs), which is what makes the policy columns comparable.
func (r *Runner) runCell(c Cell) (map[string]float64, error) {
	run := r.Spec.Run
	g, tr, err := workload.Generate(run.Seed, run.Sites, run.PagesPerSite, run.Sessions, run.Length,
		func(tc *workload.TraceConfig) {
			tc.Users = run.Users
			tc.ZipfS = c.Zipf
			// One-timer mass: deeper walks touch more distinct tail pages
			// exactly once. mass 0 -> follow 0.2 (head-heavy revisits), 1 -> 0.8.
			tc.FollowLinkProb = 0.2 + 0.6*c.OneTimerMass
			tc.UpdatesPerTick = c.Churn
			tc.TopicAffinity = 0.7
			tc.Burst = workload.BurstSchedule{Count: c.Burst.Count, Intensity: c.Burst.Intensity}
		})
	if err != nil {
		return nil, err
	}
	if warehousePolicies[c.Policy] {
		return r.runWarehouseCell(c, g, tr)
	}
	return r.runCacheCell(c, tr)
}

// runWarehouseCell replays the trace through the full warehouse under the
// cell's admission policy and topology.
func (r *Runner) runWarehouseCell(c Cell, g *workload.GeneratedWeb, tr *workload.Trace) (map[string]float64, error) {
	run := r.Spec.Run
	clock := core.NewSimClock(0)
	cfg := warehouse.DefaultConfig()
	cfg.Shards = c.Shards
	cfg.Storage.Tiers = storage.ClassicTiers(c.Mem, c.Disk)
	switch c.Backend {
	case "disk", "mmap":
		dir, err := os.MkdirTemp(r.WorkDir, "cbfww-scenario-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Storage.DataDir = dir
		// The mmap store backs the middle tier; names stay the
		// classic memory/disk/tertiary so every metric key — and hence
		// every baseline comparison — lines up across backends.
		cfg.Storage.Tiers[1].Backend = c.Backend
	}
	switch c.Policy {
	case "newest-top":
		cfg.Priority = priority.Config{
			SimilarityWeight: 0, TopicWeight: 0,
			MinSimilarity: 2, // unattainable: region evidence off
			Default:       1,
			Lambda:        0.3, EpochLength: 3600,
		}
	case "pessimist":
		cfg.Priority = priority.Config{
			SimilarityWeight: 0, TopicWeight: 0,
			MinSimilarity: 2,
			Default:       0,
			Lambda:        0.3, EpochLength: 3600,
		}
	}
	w, err := warehouse.New(cfg, clock, g.Web)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	mgr := w.StorageManager()
	// Snapshot the as-built finite capacities: schedule events scale these
	// bases, so oscillations return to the exact starting targets.
	base := mgr.Tiers()
	events := capacityEvents(c.Capacity, run.Length)
	lats := make([]float64, 0, len(tr.Log))
	err = experiments.Replay(w, clock, tr.Log, run.MaintainEvery, experiments.Hooks{
		BeforeServe: func(logmine.Record) error {
			for ; len(events) > 0 && clock.Now() >= events[0].at; events = events[1:] {
				targets := make(map[string]core.Bytes, len(base)-1)
				for _, ti := range base[:len(base)-1] {
					targets[ti.Name] = scaleBytes(ti.Capacity, events[0].factor)
				}
				if err := mgr.ResizeTiers(targets); err != nil {
					return err
				}
			}
			return nil
		},
		AfterServe: func(_ logmine.Record, res warehouse.GetResult) {
			lats = append(lats, float64(res.Latency))
		},
	})
	if err != nil {
		return nil, err
	}

	st := w.Stats()
	m := map[string]float64{
		"requests":       float64(st.Requests),
		"hit_ratio":      st.HitRatio(),
		"mem_hit_ratio":  ratio(st.MemoryHits, st.Requests),
		"origin_fetches": float64(st.OriginFetches),
		"stale_serves":   float64(st.StaleServes),
		"latency_mean":   st.MeanLatency(),
	}
	// One moved/demoted pair per live tier-table row, keyed by tier name,
	// so deeper stacks report every level without touching this code.
	for _, ti := range mgr.Tiers() {
		m["bytes_moved_"+ti.Name] = float64(ti.Moved)
		m["bytes_demoted_"+ti.Name] = float64(ti.Demoted)
	}
	addPercentiles(m, lats)
	return m, nil
}

// runCacheCell replays the trace through a bounded (or infinite)
// replacement policy sized to the cell's memory tier — the baselines the
// paper argues against. A Modified record invalidates before access,
// mirroring cache.Run.
func (r *Runner) runCacheCell(c Cell, tr *workload.Trace) (map[string]float64, error) {
	run := r.Spec.Run
	mk, ok := cacheMakers[c.Policy]
	if !ok {
		return nil, fmt.Errorf("%w: policy %q", core.ErrInvalid, c.Policy)
	}
	cc := mk(c.Mem)

	events := capacityEvents(c.Capacity, run.Length)

	var requests, hits, misses int
	var movedMem core.Bytes
	lats := make([]float64, 0, len(tr.Log))
	for _, rec := range tr.Log {
		for len(events) > 0 && rec.Time >= events[0].at {
			if rs, ok := cc.(interface{ Resize(core.Bytes) }); ok {
				rs.Resize(scaleBytes(c.Mem, events[0].factor))
			}
			events = events[1:]
		}
		requests++
		before := cc.Used()
		hit := cc.Access(rec.URL, rec.Bytes, rec.Time)
		if rec.Modified {
			// The origin changed under the cached copy: the access above
			// refreshed bookkeeping, but serving it is a miss.
			hit = false
		}
		if after := cc.Used(); after > before {
			movedMem += after - before
		}
		if hit {
			hits++
			lats = append(lats, 0)
		} else {
			misses++
			lats = append(lats, float64(run.OriginLatency))
		}
	}

	m := map[string]float64{
		"requests":             float64(requests),
		"hit_ratio":            ratio(hits, requests),
		"mem_hit_ratio":        ratio(hits, requests),
		"origin_fetches":       float64(misses),
		"stale_serves":         0,
		"latency_mean":         meanOf(lats),
		"bytes_moved_memory":   float64(movedMem),
		"bytes_moved_disk":     0,
		"bytes_moved_tertiary": 0,
	}
	addPercentiles(m, lats)
	return m, nil
}

var cacheMakers = map[string]func(core.Bytes) cache.Cache{
	"lru":      cache.NewLRU,
	"mru":      cache.NewMRU,
	"fifo":     cache.NewFIFO,
	"lfu":      cache.NewLFU,
	"mfu":      cache.NewMFU,
	"gdsf":     cache.NewGDSF,
	"size":     cache.NewSize,
	"lru2":     func(b core.Bytes) cache.Cache { return cache.NewLRUK(b, 2) },
	"infinite": func(core.Bytes) cache.Cache { return cache.NewInfinite() },
}

// capacityEvent is one scheduled retarget: at tick at, scale the cell's
// as-built capacities by factor.
type capacityEvent struct {
	at     core.Time
	factor float64
}

// capacityEvents expands a parsed capacity schedule over a trace of the
// given length. Shrink and grow fire once at the At fraction; oscillate
// fires at every multiple of At, alternating the factor with a return to
// the original targets.
func capacityEvents(cs CapacitySpec, length core.Duration) []capacityEvent {
	if cs.Static() {
		return nil
	}
	if cs.Mode != "oscillate" {
		return []capacityEvent{{core.Time(float64(length) * cs.At), cs.Factor}}
	}
	var evs []capacityEvent
	factor := cs.Factor
	for frac := cs.At; frac < 1; frac += cs.At {
		evs = append(evs, capacityEvent{core.Time(float64(length) * frac), factor})
		if factor == cs.Factor {
			factor = 1
		} else {
			factor = cs.Factor
		}
	}
	return evs
}

func scaleBytes(b core.Bytes, factor float64) core.Bytes {
	s := core.Bytes(float64(b) * factor)
	if s < 1 {
		s = 1
	}
	return s
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// addPercentiles records the nearest-rank latency percentiles.
func addPercentiles(m map[string]float64, lats []float64) {
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	pick := func(p float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	m["latency_p50"] = pick(0.50)
	m["latency_p90"] = pick(0.90)
	m["latency_p99"] = pick(0.99)
}
