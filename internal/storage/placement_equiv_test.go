package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cbfww/internal/core"
)

// The incremental placement walk must be indistinguishable from the
// whole-population water-fill it replaced. Two oracles check that:
//
//   - a twin manager fed the same operations whose every pass is forced to
//     start at rank 0 and run to the end (fromRankZero), compared on
//     copies, occupancy, counters and residency events after every step;
//   - wantPlacement, a from-scratch sort-and-fill of the decision rule,
//     compared after every step that ran a placement pass — it shares no
//     code with the order, so a mis-ranked tree cannot fool both sides.

// fromRankZero makes m's next placement pass the whole-population one.
func fromRankZero(m *Manager) {
	m.mu.Lock()
	m.stale.add(rankTop)
	m.mu.Unlock()
}

// placementOf snapshots every object's copies.
func placementOf(m *Manager) map[core.ObjectID][]copyState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[core.ObjectID][]copyState, len(m.objects))
	for id, o := range m.objects {
		out[id] = append([]copyState(nil), o.copies...)
	}
	return out
}

// wantPlacement computes, from nothing but sizes, priorities and
// capacities, which finite-tier copies the water-fill grants: the
// reference the production walk is checked against. Returns per object
// and finite tier 0 (absent), 1 (full) or 2 (summary).
func wantPlacement(m *Manager) map[core.ObjectID][]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	objs := make([]*object, 0, len(m.objects))
	for _, o := range m.objects {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool {
		a, b := objs[i], objs[j]
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		return a.id < b.id
	})
	anchor := int(m.last())
	used := make([]core.Bytes, anchor)
	out := make(map[core.ObjectID][]int, len(objs))
	for _, o := range objs {
		got := make([]int, anchor)
		below := true
		for t := anchor - 1; t >= 0; t-- {
			need, shape := o.size, 1
			if t == 0 && float64(o.size) > m.cfg.SummaryThreshold*float64(m.tiers[0].Capacity) {
				need, shape = o.summarySize(m.cfg.SummaryRatio), 2
				if m.cfg.SummaryRatio <= 0 {
					below = false
				}
			}
			if below && used[t]+need <= m.tiers[t].Capacity {
				got[t] = shape
				used[t] += need
			} else {
				below = false
			}
		}
		out[o.id] = got
	}
	return out
}

// checkAgainstReference compares m's finite-tier copies with wantPlacement.
func checkAgainstReference(t *testing.T, m *Manager, step string) {
	t.Helper()
	want := wantPlacement(m)
	for id, copies := range placementOf(m) {
		for tier, w := range want[id] {
			got := 0
			if c := copies[tier]; c.present && c.summaryOnly {
				got = 2
			} else if c.present {
				got = 1
			}
			if got != w {
				t.Fatalf("%s: object %v tier %d: placed %d, water-fill wants %d (0 absent, 1 full, 2 summary)", step, id, tier, got, w)
			}
		}
	}
}

// checkTwins compares everything placement can influence.
func checkTwins(t *testing.T, inc, full *Manager, step string) {
	t.Helper()
	if pa, pb := placementOf(inc), placementOf(full); !reflect.DeepEqual(pa, pb) {
		for id := range pb {
			if !reflect.DeepEqual(pa[id], pb[id]) {
				t.Errorf("%s: object %v copies %+v, full walk %+v", step, id, pa[id], pb[id])
			}
		}
		t.Fatalf("%s: placements diverged", step)
	}
	for tier := Tier(0); tier < inc.numTiers(); tier++ {
		if a, b := inc.used[tier], full.used[tier]; a != b {
			t.Fatalf("%s: used[%d] = %v, full walk %v", step, tier, a, b)
		}
	}
	a, b := inc.Stats(), full.Stats()
	a.PlacementVisits, b.PlacementVisits = 0, 0 // the one counter that is meant to differ
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stats %+v, full walk %+v", step, a, b)
	}
	evA, _ := inc.DrainMemoryChanges()
	evB, _ := full.DrainMemoryChanges()
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("%s: residency events %v, full walk %v", step, evA, evB)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// twins builds two managers over identical tables, each on its own
// backends.
func twins(t *testing.T, s stack, mem, disk core.Bytes) (inc, full *Manager) {
	t.Helper()
	var ms [2]*Manager
	for i := range ms {
		cfg := s.config(t, mem, disk)
		cfg.SummaryRatio = 0.1
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		ms[i] = m
	}
	return ms[0], ms[1]
}

func TestIncrementalPlacementMatchesFullWalk(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		seeds, steps := 6, 250
		if s.onDisk {
			seeds, steps = 3, 160
		}
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				runEquivalence(t, s, int64(seed), steps)
			})
		}
	})
}

func runEquivalence(t *testing.T, s stack, seed int64, steps int) {
	// 200/800 with sizes of 5..60 takes memory from empty to full within
	// about eight admissions and the middle tier within about thirty; the
	// rest of the run churns full tiers. Over 50 bytes is a large document
	// (0.25 x 200): the summary device.
	inc, full := twins(t, s, 200, 800)
	rng := rand.New(rand.NewSource(seed))
	var ids []core.ObjectID
	version := map[core.ObjectID]int{}
	hasPayload := map[core.ObjectID]bool{}
	nextID := core.ObjectID(1)

	// Few distinct priorities, so the ID tie-break decides often.
	prio := func() core.Priority { return core.Priority(rng.Intn(6)) / 5 }
	size := func() core.Bytes {
		if rng.Intn(8) == 0 {
			return core.Bytes(51 + rng.Intn(30))
		}
		return core.Bytes(5 + rng.Intn(40))
	}
	body := func(n core.Bytes) []byte { return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, int(n)) }
	pick := func() core.ObjectID { return ids[rng.Intn(len(ids))] }
	fresh := func(payload bool) Admission {
		a := Admission{ID: nextID, Size: size(), Version: 1, Priority: prio()}
		if payload {
			a.Payload = body(a.Size)
		}
		nextID++
		return a
	}
	track := func(a Admission) {
		ids = append(ids, a.ID)
		version[a.ID] = 1
		hasPayload[a.ID] = a.Payload != nil
	}
	// Each manager owns the payload slices it is handed.
	clone := func(batch []Admission) []Admission {
		out := append([]Admission(nil), batch...)
		for i := range out {
			if out[i].Payload != nil {
				out[i].Payload = append([]byte(nil), out[i].Payload...)
			}
		}
		return out
	}

	fullSteps := 0
	for step := 0; step < steps; step++ {
		var (
			name   string
			op     func(m *Manager) error
			placed bool // the op ran a placement pass that leaves nothing stale
		)
		kind := rng.Intn(12)
		if len(ids) < 3 {
			kind = rng.Intn(3)
		}
		switch kind {
		case 0, 1:
			a := fresh(true)
			name, placed = fmt.Sprintf("AdmitBytes(%v size=%v prio=%v)", a.ID, a.Size, a.Priority), true
			op = func(m *Manager) error {
				return m.AdmitBytes(a.ID, a.Size, a.Version, a.Priority, append([]byte(nil), a.Payload...))
			}
			track(a)
		case 2:
			a := fresh(false)
			name, placed = fmt.Sprintf("AdmitAll(%v size=%v prio=%v, no payload)", a.ID, a.Size, a.Priority), true
			op = func(m *Manager) error { return admitMeta(m, a.ID, a.Size, a.Version, a.Priority) }
			track(a)
		case 3:
			batch := []Admission{fresh(true), fresh(false), fresh(true)}
			dup := len(ids) > 0 && rng.Intn(4) == 0
			for _, a := range batch[:2] {
				track(a)
			}
			if dup {
				// The third entry collides: the batch stops there, the first
				// two stay admitted and unplaced until the next pass.
				batch[2].ID = pick()
			} else {
				track(batch[2])
			}
			name, placed = fmt.Sprintf("AdmitAll(%v.. dup=%v)", batch[0].ID, dup), !dup
			op = func(m *Manager) error {
				if err := m.AdmitAll(clone(batch)); err != nil && !dup {
					return err
				}
				return nil
			}
		case 5:
			id := pick()
			version[id]++
			v, n := version[id], core.Bytes(0)
			inc.mu.RLock()
			n = inc.objects[id].size
			inc.mu.RUnlock()
			data := body(n)
			name = fmt.Sprintf("Update(%v v%d)", id, v)
			op = func(m *Manager) error {
				if hasPayload[id] {
					return m.UpdateBytes(id, v, append([]byte(nil), data...))
				}
				return m.UpdateBytes(id, v, nil)
			}
		case 6:
			// The sweep: reprice a random half of the population.
			prios := map[core.ObjectID]core.Priority{}
			for _, id := range ids {
				if rng.Intn(2) == 0 {
					prios[id] = prio()
				}
			}
			name, placed = fmt.Sprintf("ApplyPriorities(%d of %d)", len(prios), len(ids)), true
			op = func(m *Manager) error { m.ApplyPriorities(prios); return nil }
		case 7, 8:
			id, p := pick(), prio()
			name, placed = fmt.Sprintf("ApplyPriorities(%v: %v)", id, p), true
			op = func(m *Manager) error { m.ApplyPriorities(map[core.ObjectID]core.Priority{id: p}); return nil }
		case 9:
			targets := map[string]core.Bytes{
				"memory": core.Bytes(100 + rng.Intn(200)),
				"disk":   core.Bytes(400 + rng.Intn(800)),
			}
			name, placed = fmt.Sprintf("ResizeTiers(%v)", targets), true
			op = func(m *Manager) error { return m.ResizeTiers(targets) }
		case 10:
			name = "Backup"
			op = func(m *Manager) error { m.Backup(); return nil }
		case 4, 11:
			id := pick()
			name = fmt.Sprintf("Access(%v)", id)
			op = func(m *Manager) error { _, err := access(m, id); return err }
		}
		name = fmt.Sprintf("step %d %s", step, name)
		if err := op(inc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromRankZero(full)
		if err := op(full); err != nil {
			t.Fatalf("%s (full walk): %v", name, err)
		}
		checkTwins(t, inc, full, name)
		if placed {
			checkAgainstReference(t, inc, name)
		}
		if mem := inc.Tiers()[Memory]; mem.Used+45 > mem.Capacity {
			fullSteps++ // no room left for an ordinary newcomer
		}
	}
	if fullSteps < steps/4 || fullSteps == steps {
		t.Fatalf("memory was full on %d of %d steps: the run must cover both the room and the full regime", fullSteps, steps)
	}
}

// A newcomer at a middle rank pushes a chain of lower-priority residents
// down: the walk has to follow the chain past the first object that still
// fits, and stop only once the budgets it carries are back where the last
// pass left them.
func TestMidRankNewcomerDisplacesChain(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		inc, full := twins(t, s, 100, 160)
		admit := func(id core.ObjectID, size core.Bytes, p core.Priority) {
			t.Helper()
			for _, m := range []*Manager{inc, full} {
				if m == full {
					fromRankZero(m)
				}
				if err := m.AdmitBytes(id, size, 1, p, bytes.Repeat([]byte{byte('a' + id)}, int(size))); err != nil {
					t.Fatal(err)
				}
			}
			checkTwins(t, inc, full, fmt.Sprintf("admit %v", id))
			checkAgainstReference(t, inc, fmt.Sprintf("admit %v", id))
		}
		admit(1, 20, 0.9)
		admit(2, 20, 0.7)
		admit(3, 20, 0.6)
		admit(4, 20, 0.5)
		admit(5, 10, 0.4)
		admit(6, 10, 0.3) // memory exactly full: 20+20+20+20+10+10
		admit(7, 10, 0.2) // middle tier only
		admit(8, 20, 0.1)
		admit(9, 20, 0.05) // middle tier at 150 of 160
		if got := inc.used[Memory]; got != 100 {
			t.Fatalf("fixture: memory holds %v, want 100", got)
		}

		// 25 bytes at priority 0.8. In memory objects 2 and 3 still fit
		// behind it (budget 45 -> 65 -> 85), object 4 does not (105), object
		// 5 does (95) and object 6 does not (105): 4 and 6 leave memory, 5
		// stays. In the middle tier object 8 still fits (155) and the tail
		// object 9 is pushed out to the anchor (175). A walk that stops at
		// the first resident that still fits (object 2) leaves both tiers
		// over capacity.
		admit(10, 25, 0.8)
		want := map[core.ObjectID]bool{1: true, 10: true, 2: true, 3: true, 4: false, 5: true, 6: false, 7: false}
		for id, in := range want {
			if got := inc.ResidentAt(id, Memory); got != in {
				t.Errorf("object %v in memory: %v, want %v", id, got, in)
			}
		}
		if inc.ResidentAt(9, 1) || !inc.ResidentAt(8, 1) {
			t.Errorf("middle tier: object 9 should have been displaced to the anchor and object 8 kept")
		}
	})
}

// admitPopulation fills m with n metadata-only objects of 8 KiB at
// priorities spread over (0.1, 1): the standing population the admission
// benchmarks and the visit-count gate place newcomers into.
func admitPopulation(tb testing.TB, m *Manager, n int) {
	tb.Helper()
	batch := make([]Admission, n)
	for i := range batch {
		batch[i] = Admission{
			ID: core.ObjectID(i + 1), Size: 8 * core.KB, Version: 1,
			Priority: 0.1 + 0.9*core.Priority(i%997)/997,
		}
	}
	if err := m.AdmitAll(batch); err != nil {
		tb.Fatal(err)
	}
}

// admitRegimes are the two tier states an admission must stay cheap in:
// every tier has room for everyone, and both finite tiers full with the
// newcomers ranked below every resident (the one-timer long tail).
var admitRegimes = []struct {
	name string
	caps func(n int) (mem, disk core.Bytes)
	prio func(i int) core.Priority
}{
	{"room",
		func(n int) (core.Bytes, core.Bytes) {
			return core.Bytes(4*n) * 8 * core.KB, core.Bytes(4*n) * 8 * core.KB
		},
		func(i int) core.Priority { return 0.1 + 0.9*core.Priority(i%89)/89 }},
	{"full",
		func(n int) (core.Bytes, core.Bytes) {
			return core.Bytes(n/8) * 8 * core.KB, core.Bytes(n/2) * 8 * core.KB
		},
		func(i int) core.Priority { return 0.05 * core.Priority(i%89) / 89 }},
}

// The deterministic form of "admission costs the same at object 16,000 as
// at object 1,000": in both regimes a pass decides on the newcomer and
// stops at the object after it, whatever the population.
func TestAdmissionVisitsOnlyWhatItDisplaces(t *testing.T) {
	for _, regime := range admitRegimes {
		for _, n := range []int{1000, 16000} {
			t.Run(fmt.Sprintf("%s/%d", regime.name, n), func(t *testing.T) {
				mem, disk := regime.caps(n)
				m, err := NewManager(classic(mem, disk))
				if err != nil {
					t.Fatal(err)
				}
				admitPopulation(t, m, n)
				before := m.Stats().PlacementVisits
				const admissions = 200
				for i := 0; i < admissions; i++ {
					if err := admitMeta(m, core.ObjectID(n+i+1), 8*core.KB, 1, regime.prio(i)); err != nil {
						t.Fatal(err)
					}
				}
				if got := m.Stats().PlacementVisits - before; got != admissions {
					t.Fatalf("%d admissions decided on %d objects, want one each", admissions, got)
				}
				checkAgainstReference(t, m, "after admissions")
			})
		}
	}
}
