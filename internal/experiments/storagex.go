package experiments

import (
	"container/list"
	"fmt"
	"sort"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/storage"
	"cbfww/internal/usage"
)

// F3StorageMapping regenerates Figure 3: mapping the object hierarchy into
// the storage hierarchy adaptively. A trace replays against four placement
// strategies over the same memory/disk/tertiary geometry:
//
//   - priority: the CBFWW way — λ-aged frequency priorities, re-placed
//     every maintenance period (self-organizing);
//   - lru: chained LRU caches (memory over disk), the conventional way;
//   - random: priorities re-drawn at random each period (placement
//     without any signal);
//   - oracle: priorities from true future access counts (the bound).
//
// The measure is mean access cost in ticks, swept over tier latencies.
func F3StorageMapping(seed int64) Table {
	g, tr := generate(seed, 10, 60, 2500, 400_000, noChurn)

	// Object universe: container pages only (components follow their
	// containers and would only scale every strategy equally).
	ids := make(map[string]core.ObjectID, len(g.PageURLs))
	sizes := make(map[core.ObjectID]core.Bytes, len(g.PageURLs))
	var totalBytes core.Bytes
	for i, url := range g.PageURLs {
		id := core.ObjectID(i + 1)
		ids[url] = id
		p, _ := g.Web.Lookup(url)
		sizes[id] = p.Size
		totalBytes += p.Size
	}
	memCap := totalBytes / 10
	diskCap := totalBytes / 2

	future := make(map[core.ObjectID]int)
	for _, r := range tr.Log {
		future[ids[r.URL]]++
	}

	t := Table{
		Title:  "Figure 3: Adaptive Mapping into the Storage Hierarchy (mean access cost, ticks)",
		Header: []string{"disk/tape latency", "priority (CBFWW)", "lru", "random", "oracle"},
	}
	for _, lat := range []struct{ disk, tape core.Duration }{
		{10, 100}, {10, 1000}, {50, 1000},
	} {
		prio := replayPriorityPlacement(tr.Log, ids, sizes, memCap, diskCap, lat.disk, lat.tape, false, seed)
		lru := replayChainedLRU(tr.Log, ids, sizes, memCap, diskCap, lat.disk, lat.tape)
		rnd := replayPriorityPlacement(tr.Log, ids, sizes, memCap, diskCap, lat.disk, lat.tape, true, seed)
		oracle := replayOracle(tr.Log, ids, sizes, memCap, diskCap, lat.disk, lat.tape, future)
		t.AddRow(fmt.Sprintf("%d/%d", lat.disk, lat.tape), f2(prio), f2(lru), f2(rnd), f2(oracle))
	}
	t.AddNote("memory holds %v of %v total (10%%), disk 50%%; %d requests over %d objects",
		memCap, totalBytes, len(tr.Log), len(ids))
	t.AddNote("expected shape: priority ≈ lru ≪ random, oracle lower-bounds all; gaps widen with tape latency")
	return t
}

// classicStack is the Figure-3 table at the given capacities and access
// costs.
func classicStack(memCap, diskCap core.Bytes, diskLat, tapeLat core.Duration) storage.Config {
	tiers := storage.ClassicTiers(memCap, diskCap)
	tiers[1].Latency, tiers[2].Latency = diskLat, tapeLat
	return storage.Config{Tiers: tiers}
}

// replayPriorityPlacement replays the log against a storage.Manager whose
// priorities come from λ-aged frequencies (or uniform random when random
// is true), re-applied every maintenance period.
func replayPriorityPlacement(log logmine.Log, ids map[string]core.ObjectID,
	sizes map[core.ObjectID]core.Bytes, memCap, diskCap core.Bytes,
	diskLat, tapeLat core.Duration, random bool, seed int64) float64 {

	m, err := storage.NewManager(classicStack(memCap, diskCap, diskLat, tapeLat))
	if err != nil {
		panic(err)
	}
	batch := make([]storage.Admission, 0, len(ids))
	for _, id := range ids {
		batch = append(batch, storage.Admission{ID: id, Size: sizes[id], Version: 1, Priority: 0})
	}
	if err := m.AdmitAll(batch); err != nil {
		panic(err)
	}

	// The random draws follow ID order, not map order, so a seed gives
	// one table.
	order := make([]core.ObjectID, 0, len(ids))
	for _, id := range ids {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	aging := usage.NewAgingEstimator(0.3)
	aging.EpochLength = 3600
	rng := newRand(seed)
	const period = 3600 // hourly self-organization sweep
	nextApply := core.Time(period)

	var cost float64
	for _, r := range log {
		if r.Time >= nextApply {
			prios := make(map[core.ObjectID]core.Priority, len(ids))
			for _, id := range order {
				if random {
					prios[id] = core.Priority(rng.Float64())
				} else {
					f := aging.Frequency(id, r.Time)
					prios[id] = core.Priority(f / (1 + f))
				}
			}
			m.ApplyPriorities(prios)
			for nextApply <= r.Time {
				nextApply += period
			}
		}
		id := ids[r.URL]
		aging.Record(id, r.Time)
		res, _, err := m.FetchStream(id) // no payload: no reader to close
		if err != nil {
			panic(err)
		}
		cost += float64(res.Latency)
	}
	return cost / float64(len(log))
}

// replayOracle places by true future access counts once, up front.
func replayOracle(log logmine.Log, ids map[string]core.ObjectID,
	sizes map[core.ObjectID]core.Bytes, memCap, diskCap core.Bytes,
	diskLat, tapeLat core.Duration, future map[core.ObjectID]int) float64 {

	m, err := storage.NewManager(classicStack(memCap, diskCap, diskLat, tapeLat))
	if err != nil {
		panic(err)
	}
	batch := make([]storage.Admission, 0, len(ids))
	for _, id := range ids {
		batch = append(batch, storage.Admission{
			ID: id, Size: sizes[id], Version: 1,
			Priority: core.Priority(future[id]),
		})
	}
	if err := m.AdmitAll(batch); err != nil {
		panic(err)
	}
	var cost float64
	for _, r := range log {
		res, _, err := m.FetchStream(ids[r.URL]) // no payload: no reader to close
		if err != nil {
			panic(err)
		}
		cost += float64(res.Latency)
	}
	return cost / float64(len(log))
}

// replayChainedLRU models the conventional design: an LRU memory tier over
// an LRU disk tier over infinite tertiary.
func replayChainedLRU(log logmine.Log, ids map[string]core.ObjectID,
	sizes map[core.ObjectID]core.Bytes, memCap, diskCap core.Bytes,
	diskLat, tapeLat core.Duration) float64 {

	mem := newLRUSet(memCap)
	disk := newLRUSet(diskCap)
	var cost float64
	for _, r := range log {
		id := ids[r.URL]
		size := sizes[id]
		switch {
		case mem.touch(id):
			// memory hit: cost 0
		case disk.touch(id):
			cost += float64(diskLat)
			promote(mem, disk, id, size)
		default:
			cost += float64(tapeLat)
			promote(mem, disk, id, size)
		}
	}
	return cost / float64(len(log))
}

// lruSet is a byte-capacity LRU set of object IDs.
type lruSet struct {
	cap   core.Bytes
	used  core.Bytes
	ll    *list.List
	items map[core.ObjectID]*list.Element
}

type lruEntry struct {
	id   core.ObjectID
	size core.Bytes
}

func newLRUSet(capacity core.Bytes) *lruSet {
	return &lruSet{cap: capacity, ll: list.New(), items: make(map[core.ObjectID]*list.Element)}
}

func (s *lruSet) touch(id core.ObjectID) bool {
	e, ok := s.items[id]
	if ok {
		s.ll.MoveToBack(e)
	}
	return ok
}

// insert adds id, returning evicted entries.
func (s *lruSet) insert(id core.ObjectID, size core.Bytes) []lruEntry {
	if size > s.cap {
		return nil
	}
	var out []lruEntry
	for s.used+size > s.cap {
		front := s.ll.Front()
		if front == nil {
			break
		}
		ent := front.Value.(lruEntry)
		s.ll.Remove(front)
		delete(s.items, ent.id)
		s.used -= ent.size
		out = append(out, ent)
	}
	s.items[id] = s.ll.PushBack(lruEntry{id: id, size: size})
	s.used += size
	return out
}

func (s *lruSet) remove(id core.ObjectID) {
	if e, ok := s.items[id]; ok {
		ent := e.Value.(lruEntry)
		s.ll.Remove(e)
		delete(s.items, id)
		s.used -= ent.size
	}
}

// promote moves id into memory; memory evictees demote to disk.
func promote(mem, disk *lruSet, id core.ObjectID, size core.Bytes) {
	disk.remove(id)
	for _, ev := range mem.insert(id, size) {
		disk.insert(ev.id, ev.size)
	}
}

// X4CopyControl regenerates the §4.4 copy-control behaviour under failure
// injection: memory loss recovers exactly from disk; disk+memory loss
// recovers from (possibly stale) tertiary backups; total loss loses data.
func X4CopyControl(seed int64) Table {
	t := Table{
		Title:  "§4.4: Copy Control and Recovery under Tier Failures",
		Header: []string{"scenario", "restored", "stale", "lost", "invariants"},
	}
	scenario := func(name string, drop []storage.Tier, updateBeforeDrop bool) {
		m, err := storage.NewManager(storage.Config{Tiers: storage.ClassicTiers(100*core.KB, core.MB)})
		if err != nil {
			panic(err)
		}
		rng := newRand(seed)
		const n = 50
		batch := make([]storage.Admission, 0, n)
		for i := 1; i <= n; i++ {
			batch = append(batch, storage.Admission{ID: core.ObjectID(i), Size: core.Bytes(rng.Intn(8)+1) * core.KB,
				Version: 1, Priority: core.Priority(rng.Float64())})
		}
		if err := m.AdmitAll(batch); err != nil {
			panic(err)
		}
		if updateBeforeDrop {
			// Half the objects change after the last backup.
			for i := 1; i <= n/2; i++ {
				if err := m.UpdateBytes(core.ObjectID(i), 2, nil); err != nil {
					panic(err)
				}
			}
		}
		for _, tier := range drop {
			if err := m.DropTier(tier); err != nil {
				panic(err)
			}
		}
		rep := m.Recover()
		inv := "ok"
		if err := m.CheckInvariants(); err != nil {
			inv = err.Error()
		}
		t.AddRow(name, itoa(rep.Restored), itoa(rep.Stale), itoa(rep.Lost), inv)
	}
	scenario("drop memory", []storage.Tier{storage.Memory}, false)
	scenario("drop disk", []storage.Tier{storage.Disk}, false)
	scenario("drop memory+disk (updates since backup)",
		[]storage.Tier{storage.Memory, storage.Disk}, true)
	scenario("drop all tiers", []storage.Tier{storage.Memory, storage.Disk, storage.Tertiary}, false)
	t.AddNote("memory copies are exact on disk; tertiary backups may lag (stale recoveries); total loss = refetch from origin")
	return t
}

// L1TertiaryLocality reproduces §4.4's locality-of-reference claim: "web
// data once in hot spot may be retrieved together for analysis purpose.
// Such data are clustered in the tertiary storage." An analyst retrieves
// each archived hot-spot group from tape; the table compares the run cost
// under ID-order layout (scattered) against hot-spot-clustered layout,
// across seek/transfer cost ratios.
func L1TertiaryLocality(seed int64) Table {
	const nObjects, nGroups, groupSize = 400, 8, 30
	rng := newRand(seed)

	// Archive-only: everything on tape.
	m, err := storage.NewManager(storage.Config{Tiers: storage.ClassicTiers(1, 1)})
	if err != nil {
		panic(err)
	}
	batch := make([]storage.Admission, nObjects)
	for i := range batch {
		batch[i] = storage.Admission{ID: core.ObjectID(i + 1), Size: 100, Version: 1}
	}
	if err := m.AdmitAll(batch); err != nil {
		panic(err)
	}

	// Hot-spot groups: random disjoint sets of archived objects (the pages
	// of past events).
	perm := rng.Perm(nObjects)
	groups := make([][]core.ObjectID, nGroups)
	for gi := 0; gi < nGroups; gi++ {
		for k := 0; k < groupSize; k++ {
			groups[gi] = append(groups[gi], core.ObjectID(perm[gi*groupSize+k]+1))
		}
	}

	t := Table{
		Title:  "§4.4: Locality of Reference on Tertiary Storage (analysis-run cost, ticks)",
		Header: []string{"seek/transfer ratio", "scattered (ID order)", "clustered by hot spot", "speedup"},
	}
	for _, seek := range []core.Duration{100, 1000, 10000} {
		if err := m.LayoutTertiary(nil); err != nil {
			panic(err)
		}
		var scattered core.Duration
		for _, g := range groups {
			c, err := m.RunCost(g, seek)
			if err != nil {
				panic(err)
			}
			scattered += c
		}
		var clusteredOrder []core.ObjectID
		for _, g := range groups {
			clusteredOrder = append(clusteredOrder, g...)
		}
		if err := m.LayoutTertiary(clusteredOrder); err != nil {
			panic(err)
		}
		var clustered core.Duration
		for _, g := range groups {
			c, err := m.RunCost(g, seek)
			if err != nil {
				panic(err)
			}
			clustered += c
		}
		t.AddRow(fmt.Sprintf("%dx", int64(seek)/100),
			fmt.Sprintf("%d", int64(scattered)),
			fmt.Sprintf("%d", int64(clustered)),
			fmt.Sprintf("%.1fx", float64(scattered)/float64(clustered)))
	}
	t.AddNote("%d archived objects, %d hot-spot groups of %d; each group retrieved in full", nObjects, nGroups, groupSize)
	t.AddNote("expected shape: speedup grows with the seek/transfer ratio — tape seeks dominate scattered layouts")
	return t
}
