package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/text"
)

// mergeJoin is the clusterer as it was before centroids were scattered:
// each page merge-joined against each centroid, each centroid a fresh
// MeanStep vector. Known IDs follow Assign's one-membership rule.
type mergeJoin struct {
	minSim     float64
	maxRegions int
	cents      []text.Vector
	weights    []float64
	members    [][]core.ObjectID
	of         map[core.ObjectID]int
}

func (m *mergeJoin) nearest(v text.Vector) (int, float64) {
	idx, sim := -1, -1.0
	for i, c := range m.cents {
		if s := v.Cosine(c); s > sim {
			idx, sim = i, s
		}
	}
	return idx, sim
}

func (m *mergeJoin) assign(p Point) int {
	best, sim := m.nearest(p.Vec)
	forced := m.maxRegions > 0 && len(m.cents) >= m.maxRegions
	joins := best >= 0 && (sim >= m.minSim || forced)
	if old, ok := m.of[p.ID]; ok {
		if joins && old == best {
			return best
		}
		k := slices.Index(m.members[old], p.ID)
		m.members[old] = slices.Delete(m.members[old], k, k+1)
	}
	if !joins {
		m.cents, m.weights = append(m.cents, p.Vec), append(m.weights, 1)
		m.members = append(m.members, []core.ObjectID{p.ID})
		m.of[p.ID] = len(m.cents) - 1
		return len(m.cents) - 1
	}
	m.weights[best]++
	m.cents[best] = m.cents[best].MeanStep(p.Vec, 1/m.weights[best])
	m.members[best] = append(m.members[best], p.ID)
	m.of[p.ID] = best
	return best
}

// sameVector reports whether a and b hold the same terms, weights and
// norm, bit for bit.
func sameVector(a, b text.Vector) bool {
	if a.Len() != b.Len() || math.Float64bits(a.Norm()) != math.Float64bits(b.Norm()) {
		return false
	}
	type entry struct {
		id text.TermID
		w  uint64
	}
	var ea, eb []entry
	a.ForEach(func(id text.TermID, w float64) { ea = append(ea, entry{id, math.Float64bits(w)}) })
	b.ForEach(func(id text.TermID, w float64) { eb = append(eb, entry{id, math.Float64bits(w)}) })
	return slices.Equal(ea, eb)
}

// Scoring a page in its own terms against scattered centroids picks the
// region the merge join picks, at the same similarity bit for bit, and
// stepping them in place leaves the same centroids and members.
func TestOnlineMatchesMergeJoin(t *testing.T) {
	vec := func(pairs ...float64) text.Vector {
		b := text.NewBuilder()
		for i := 0; i+1 < len(pairs); i += 2 {
			b[text.TermID(pairs[i])] = pairs[i+1]
		}
		return b.Vector().Normalize()
	}
	topics, _, _ := topicPoints(t, 4, 25, 21)
	rng := rand.New(rand.NewSource(47))
	random := func(n, span int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			b := text.NewBuilder()
			for k := 1 + rng.Intn(30); k > 0; k-- {
				b[text.TermID(rng.Intn(span))] = rng.ExpFloat64()
			}
			pts[i] = Point{ID: core.ObjectID(i + 1), Vec: b.Vector().Normalize()}
		}
		return pts
	}
	pts := func(vs ...text.Vector) []Point {
		out := make([]Point, len(vs))
		for i, v := range vs {
			out[i] = Point{ID: core.ObjectID(i + 1), Vec: v}
		}
		return out
	}
	cases := []struct {
		name       string
		minSim     float64
		maxRegions int
		points     []Point
	}{
		{"topics", 0.15, 0, topics},
		{"topics at a cap of 3", 0.15, 3, topics},
		{"random terms", 0.3, 0, random(200, 60)},
		{"random terms at a cap of 5", 0.5, 5, random(200, 400)},
		{"a page past every centroid term", 0.2, 0, pts(vec(0, 1, 1, 1), vec(50, 1, 60, 2), vec(1, 1, 90, 1))},
		{"a zero page", 0.2, 0, pts(vec(0, 1), text.Vector{}, vec(0, 1, 1, 1), text.Vector{})},
		{"a tie goes to the first region", 0.9, 0, pts(vec(0, 1), vec(1, 1), vec(0, 1, 1, 1), vec(0, 1, 1, 1))},
		{"weights whose squares underflow", 0.1, 0, pts(vec(0, 1, 2, 1), vec(0, 1).Scale(1e-170), vec(2, 1e-200, 3, 1e-200), vec(0, 2, 2, 1))},
		{"known IDs stay or move", 0.5, 0, append(pts(vec(0, 1), vec(5, 1), vec(0, 1, 1, 0.2)),
			Point{ID: 1, Vec: vec(0, 1)}, Point{ID: 3, Vec: vec(5, 1, 6, 0.1)}, Point{ID: 2, Vec: vec(9, 1)}, Point{ID: 2, Vec: vec(9, 1)})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := NewOnline(c.minSim, c.maxRegions)
			if err != nil {
				t.Fatal(err)
			}
			ref := &mergeJoin{minSim: c.minSim, maxRegions: c.maxRegions, of: map[core.ObjectID]int{}}
			for i, p := range c.points {
				wantIdx, wantSim := ref.nearest(p.Vec)
				idx, sim, ok := o.Nearest(p.Vec)
				if idx != wantIdx || ok != (wantIdx >= 0) || math.Float64bits(sim) != math.Float64bits(wantSim) {
					t.Fatalf("point %d: Nearest = %d, %v, %v; merge join %d, %v", i, idx, sim, ok, wantIdx, wantSim)
				}
				if got, want := o.Assign(p), ref.assign(p); got != want {
					t.Fatalf("point %d: Assign = %d, merge join %d", i, got, want)
				}
			}
			regs := o.Regions()
			if len(regs) != len(ref.cents) {
				t.Fatalf("%d regions, merge join %d", len(regs), len(ref.cents))
			}
			for i, r := range regs {
				if !sameVector(r.Centroid, ref.cents[i]) {
					t.Errorf("region %d: centroid %v, merge join %v", i, r.Centroid, ref.cents[i])
				}
				if !slices.Equal(r.Members, ref.members[i]) || len(r.Members) != o.SizeOf(i) {
					t.Errorf("region %d: members %v (SizeOf %d), merge join %v", i, r.Members, o.SizeOf(i), ref.members[i])
				}
			}
		})
	}
}

// An ID is a member of one region, once: assigning it again where it
// already is absorbs nothing, and moving it leaves its old region.
func TestOnlineReassignKeepsOneMembership(t *testing.T) {
	o, _ := NewOnline(0.5, 0)
	a := text.Builder{0: 1}.Vector()
	b := text.Builder{5: 1}.Vector()
	o.Assign(Point{ID: 1, Vec: a})
	o.Assign(Point{ID: 2, Vec: a})
	before := o.Regions()
	for i := 0; i < 3; i++ {
		if got := o.Assign(Point{ID: 1, Vec: a}); got != 0 {
			t.Fatalf("re-assign %d went to region %d", i, got)
		}
	}
	after := o.Regions()
	if o.SizeOf(0) != 2 || !sameVector(after[0].Centroid, before[0].Centroid) {
		t.Errorf("re-assigning a member: size %d, centroid %v (was %v)", o.SizeOf(0), after[0].Centroid, before[0].Centroid)
	}
	if got := o.Assign(Point{ID: 1, Vec: b}); got != 1 {
		t.Fatalf("a moved ID founded region %d, want 1", got)
	}
	if r := o.assign[1]; r != 1 || o.SizeOf(0) != 1 || o.SizeOf(1) != 1 {
		t.Errorf("after the move: region %d, sizes %d and %d", r, o.SizeOf(0), o.SizeOf(1))
	}
}

// After warm-up, an Assign of a page that brings no new term scores and
// steps the centroids in place: no allocation (a new ID's map slot and
// member slot are amortised below one per call).
func TestOnlineAssignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	o, _ := NewOnline(0.2, 0)
	full := text.NewBuilder()
	for id := text.TermID(0); id < 200; id++ {
		full[id] = 1
	}
	o.Assign(Point{ID: 1, Vec: full.Vector().Normalize()})
	o.Assign(Point{ID: 2, Vec: text.Builder{500: 1, 501: 1}.Vector().Normalize()})
	page := text.NewBuilder()
	for id := text.TermID(0); id < 200; id += 7 {
		page[id] = float64(id%5 + 1)
	}
	v := page.Vector().Normalize()
	id := core.ObjectID(100)
	if n := testing.AllocsPerRun(1000, func() {
		id++
		o.Assign(Point{ID: id, Vec: v})
	}); n != 0 {
		t.Errorf("Assign without new terms allocates %v times, want 0", n)
	}
}

// BenchmarkOnlineAssign admits first-sight pages of about 700 terms into
// a clusterer at its region cap, each centroid spanning about 4,000 terms,
// as a warehouse's regions do once the vocabulary has settled.
func BenchmarkOnlineAssign(b *testing.B) {
	const vocab, pageTerms, topicTerms = 4000, 700, 15
	for _, k := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("regions=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			o, _ := NewOnline(0.2, k)
			// Founders: the whole vocabulary faintly, the region's own topic
			// terms strongly, so each founds its own region.
			for r := 0; r < k; r++ {
				v := text.NewBuilder()
				for id := 0; id < vocab; id++ {
					v[text.TermID(id)] = 0.05 * rng.Float64()
				}
				for id := r * topicTerms; id < (r+1)*topicTerms; id++ {
					v[text.TermID(id)] = 1
				}
				o.Assign(Point{ID: core.ObjectID(r + 1), Vec: v.Vector().Normalize()})
			}
			if o.Len() != k {
				b.Fatalf("%d regions, want %d", o.Len(), k)
			}
			pages := make([]text.Vector, 256)
			for i := range pages {
				v, r := text.NewBuilder(), rng.Intn(k)
				for n := 0; n < pageTerms; n++ {
					v[text.TermID(rng.Intn(vocab))] = 0.1 * rng.ExpFloat64()
				}
				for id := r * topicTerms; id < (r+1)*topicTerms; id++ {
					v[text.TermID(id)] = 1
				}
				pages[i] = v.Vector().Normalize()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Assign(Point{ID: core.ObjectID(k + 1 + i), Vec: pages[i%len(pages)]})
			}
		})
	}
}
