package warehouse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/object"
	"cbfww/internal/workload"
)

// Model-based oracle test for the lock-striped warehouse: a deterministic,
// seeded multiset of Get/Refresh/Maintain operations is executed twice —
// concurrently against a many-shard warehouse and serially against a
// single-shard reference (Config.Shards=1, the pre-striping model) over an
// identical synthetic web. The two runs must be observably equivalent:
//
//   - same Requests and Hits: per URL exactly one request admits (a miss)
//     and every other request is served resident, no matter how cold
//     fetches race — a duplicate cold fetcher finds the page admitted when
//     it retakes the shard lock and serves the resident copy as a hit;
//   - same resident set and per-URL versions (no lost updates);
//   - OriginFetches only bounded, not equal: duplicate cold fetches for
//     one URL are allowed (the gateway's singleflight, not the warehouse,
//     deduplicates them), so unique ≤ fetches ≤ requests;
//   - the Fig. 2 structural rule survives the races: after a quiescent
//     Maintain, every raw object's effective priority is the max over its
//     containers' effective priorities — never the sum — and that is what
//     the Storage Manager placed by.
type oracleOp struct {
	refresh bool
	user    string
	url     string
}

// oracleOps builds the deterministic op multiset: G per-goroutine streams
// of seeded Gets plus occasional Refreshes of pre-warmed URLs.
func oracleOps(goroutines, opsPer int, urls, warm []string) [][]oracleOp {
	streams := make([][]oracleOp, goroutines)
	for g := range streams {
		rng := rand.New(rand.NewSource(int64(1000 + g)))
		ops := make([]oracleOp, opsPer)
		for i := range ops {
			if rng.Intn(10) == 0 {
				ops[i] = oracleOp{refresh: true, url: warm[rng.Intn(len(warm))]}
			} else {
				ops[i] = oracleOp{
					user: fmt.Sprintf("user-%d", g),
					url:  urls[rng.Intn(len(urls))],
				}
			}
		}
		streams[g] = ops
	}
	return streams
}

// oracleWarehouse builds a warehouse over a fresh but identical synthetic
// web (same generator seed both times).
func oracleWarehouse(t *testing.T, s stack, shards int) (*Warehouse, []string) {
	t.Helper()
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite = 4, 12
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Shards = shards
	w := s.open(t, cfg, clock, g.Web)
	return w, g.PageURLs
}

func runOracleOp(w *Warehouse, op oracleOp) error {
	if op.refresh {
		_, err := w.Refresh(context.Background(), op.url)
		return err
	}
	_, err := w.Get(op.user, op.url)
	return err
}

func TestOracleShardedMatchesSingleShardModel(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		const (
			goroutines = 8
			opsPer     = 250
			warmCount  = 8
			maintains  = 3
		)
		concurrent, urls := oracleWarehouse(t, s, 8)
		serial, urls2 := oracleWarehouse(t, s, 1)
		if len(urls) != len(urls2) {
			t.Fatalf("generated webs differ: %d vs %d pages", len(urls), len(urls2))
		}
		warm := urls[:warmCount]
		streams := oracleOps(goroutines, opsPer, urls, warm)

		// Pre-warm serially in both, so Refresh always has resident targets.
		for _, w := range []*Warehouse{concurrent, serial} {
			for _, u := range warm {
				if _, err := w.Get("warmup", u); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Concurrent run: one goroutine per stream plus a maintenance loop
		// racing them, against the many-shard warehouse.
		errs := make(chan error, goroutines+1)
		var wg sync.WaitGroup
		for _, ops := range streams {
			wg.Add(1)
			go func(ops []oracleOp) {
				defer wg.Done()
				for _, op := range ops {
					if err := runOracleOp(concurrent, op); err != nil {
						errs <- err
						return
					}
				}
			}(ops)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < maintains; i++ {
				if _, err := concurrent.Maintain(); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// Reference run: the same op multiset, serially, stream by stream.
		for _, ops := range streams {
			for _, op := range ops {
				if err := runOracleOp(serial, op); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < maintains; i++ {
			if _, err := serial.Maintain(); err != nil {
				t.Fatal(err)
			}
		}

		cs, ss := concurrent.Stats(), serial.Stats()
		if cs.Requests != ss.Requests {
			t.Errorf("Requests: sharded %d, model %d", cs.Requests, ss.Requests)
		}
		if cs.Hits != ss.Hits {
			t.Errorf("Hits: sharded %d, model %d", cs.Hits, ss.Hits)
		}
		if got, want := concurrent.ResidentPages(), serial.ResidentPages(); got != want {
			t.Errorf("ResidentPages: sharded %d, model %d", got, want)
		}

		// Origin fetches: at least one per unique URL, at most one per request
		// (duplicate cold fetches are the only slack).
		unique := map[string]bool{}
		for _, ops := range streams {
			for _, op := range ops {
				if !op.refresh {
					unique[op.url] = true
				}
			}
		}
		for _, u := range warm {
			unique[u] = true
		}
		if cs.OriginFetches < len(unique) || cs.OriginFetches > cs.Requests {
			t.Errorf("OriginFetches = %d, want in [%d, %d]", cs.OriginFetches, len(unique), cs.Requests)
		}

		// No lost updates: every touched URL is resident in both warehouses at
		// the same version.
		for u := range unique {
			if !concurrent.Resident(u) {
				t.Errorf("%s not resident in sharded warehouse", u)
				continue
			}
			c, ok1 := concurrent.Versions().Latest(u)
			s, ok2 := serial.Versions().Latest(u)
			if !ok1 || !ok2 {
				t.Errorf("%s: missing version snapshot (sharded=%v model=%v)", u, ok1, ok2)
				continue
			}
			if c.Version != s.Version {
				t.Errorf("%s: version sharded=%d model=%d", u, c.Version, s.Version)
			}
		}

		assertMaxRulePlacement(t, concurrent)
	})
}

// assertMaxRulePlacement runs one quiescent Maintain, recomputes the base
// priorities exactly as applyPriorities does, and asserts (a) the Fig. 2
// structural rule — every object's effective priority is the max over its
// parents' effective priorities, never the sum — and (b) the Storage
// Manager placed every raw object by exactly that effective priority.
func assertMaxRulePlacement(t *testing.T, w *Warehouse) {
	t.Helper()
	if _, err := w.Maintain(); err != nil {
		t.Fatal(err)
	}

	base := make(map[core.ObjectID]core.Priority)
	for _, sh := range w.shards {
		sh.mu.RLock()
		for _, st := range sh.pages {
			f := w.tracker.AgedFrequency(st.physID)
			heat := core.Priority(f / (1 + f))
			p := st.admissionPriority
			if heat > p {
				p = heat
			}
			base[st.physID] = p
		}
		sh.mu.RUnlock()
	}
	w.metaMu.RLock()
	for id, support := range w.logicalSupport {
		base[id] = core.Priority(float64(support) / (float64(support) + 5))
	}
	regionObjs := make(map[int]core.ObjectID, len(w.regionObjOf))
	for idx, objID := range w.regionObjOf {
		regionObjs[idx] = objID
	}
	w.metaMu.RUnlock()
	for idx, objID := range regionObjs {
		base[objID] = core.Priority(w.prios.RegionHeat(idx))
	}
	eff := w.objects.EffectivePriorities(base)

	const eps = 1e-9
	checked := 0
	w.objects.ForEach(object.KindRaw, func(o *object.Object) {
		parents := w.objects.Parents(o.ID)
		if len(parents) == 0 {
			return
		}
		var max core.Priority
		for _, pid := range parents {
			if p := eff[pid]; p > max {
				max = p
			}
		}
		if math.Abs(float64(eff[o.ID]-max)) > eps {
			t.Errorf("raw %d: eff=%v, max over %d parents=%v (structural rule violated)",
				o.ID, eff[o.ID], len(parents), max)
		}
		stored, ok := w.store.Priority(o.ID)
		if !ok {
			t.Errorf("raw %d: not placed in storage", o.ID)
			return
		}
		if math.Abs(float64(stored-eff[o.ID])) > eps {
			t.Errorf("raw %d: stored priority %v != effective %v", o.ID, stored, eff[o.ID])
		}
		checked++
	})
	if checked == 0 {
		t.Fatal("no raw objects checked — max-rule assertion vacuous")
	}
}
