package text

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
)

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	a := d.ID("kyoto")
	b := d.ID("station")
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if d.ID("kyoto") != a {
		t.Error("ID not stable")
	}
	if d.Term(a) != "kyoto" || d.Term(b) != "station" {
		t.Error("Term round-trip failed")
	}
	if d.size() != 2 {
		t.Errorf("Len = %d, want 2", d.size())
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Error("Lookup(missing) found something")
	}
	if d.size() != 2 {
		t.Error("Lookup must not assign")
	}
}

func TestDictionaryTermPanics(t *testing.T) {
	d := NewDictionary()
	defer func() {
		if recover() == nil {
			t.Error("Term(99) did not panic")
		}
	}()
	d.Term(99)
}

func vec(pairs ...float64) Vector {
	b := NewBuilder()
	for i := 0; i+1 < len(pairs); i += 2 {
		b[TermID(pairs[i])] = pairs[i+1]
	}
	return b.Vector()
}

func TestVectorDotAndNorm(t *testing.T) {
	a := vec(0, 1, 1, 2)
	b := vec(1, 3, 2, 4)
	if got := a.Dot(b); got != 6 {
		t.Errorf("Dot = %v, want 6", got)
	}
	if got := b.Dot(a); got != 6 {
		t.Errorf("Dot not symmetric: %v", got)
	}
	if got := a.Norm(); math.Abs(got-math.Sqrt(5)) > 1e-12 {
		t.Errorf("Norm = %v", got)
	}
}

func TestVectorGet(t *testing.T) {
	v := vec(3, 1.5, 9, 2.5)
	if got := v.Get(3); got != 1.5 {
		t.Errorf("Get(3) = %v", got)
	}
	if got := v.Get(9); got != 2.5 {
		t.Errorf("Get(9) = %v", got)
	}
	if got := v.Get(4); got != 0 {
		t.Errorf("Get(absent) = %v, want 0", got)
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
}

func TestVectorForEachSorted(t *testing.T) {
	v := vec(7, 1, 2, 2, 5, 3)
	var ids []TermID
	v.ForEach(func(id TermID, w float64) {
		ids = append(ids, id)
		if w != v.Get(id) {
			t.Errorf("ForEach weight mismatch at %d", id)
		}
	})
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ForEach not in ascending TermID order: %v", ids)
		}
	}
}

func TestBuilderAccumulates(t *testing.T) {
	b := NewBuilder()
	b[1] += 2
	b[1] += 3
	b[4] = 7
	b[9] += 0 // exact zero must be dropped
	b.AddScaled(vec(1, 1, 2, 10), 2)
	v := b.Vector()
	if got := v.Get(1); got != 7 {
		t.Errorf("builder weight(1) = %v, want 7", got)
	}
	if got := v.Get(2); got != 20 {
		t.Errorf("builder weight(2) = %v, want 20", got)
	}
	if got := v.Get(4); got != 7 {
		t.Errorf("builder weight(4) = %v, want 7", got)
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d, want 3 (zero entry dropped)", v.Len())
	}
	top := b.Top(2)
	if len(top) != 2 || top[0] != 2 {
		t.Errorf("Builder.Top = %v", top)
	}
}

func TestVectorCosine(t *testing.T) {
	a := vec(0, 1)
	if got := a.Cosine(a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self cosine = %v, want 1", got)
	}
	b := vec(1, 1)
	if got := a.Cosine(b); got != 0 {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := a.Cosine(Vector{}); got != 0 {
		t.Errorf("cosine with zero vector = %v, want 0", got)
	}
}

func TestVectorDistance(t *testing.T) {
	a := vec(0, 3)
	b := vec(1, 4)
	if got := a.Distance(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := a.Distance(a); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	if d1, d2 := a.Distance(b), b.Distance(a); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("distance not symmetric: %v vs %v", d1, d2)
	}
}

func TestVectorArithmetic(t *testing.T) {
	v := vec(0, 1, 1, 2)
	v = v.AddScaled(vec(1, 1, 2, 3), 2)
	if v.Get(0) != 1 || v.Get(1) != 4 || v.Get(2) != 6 {
		t.Errorf("AddScaled = %v/%v/%v", v.Get(0), v.Get(1), v.Get(2))
	}
	v = v.Scale(0.5)
	if v.Get(1) != 2 {
		t.Errorf("Scale: weight(1) = %v", v.Get(1))
	}
	v = v.Normalize()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("Normalize: norm = %v", v.Norm())
	}
	z := Vector{}.Normalize() // must not panic or NaN
	if z.Norm() != 0 {
		t.Error("zero vector normalize changed norm")
	}
}

// The arithmetic methods return new vectors; the receiver must be
// unchanged (immutability is what makes sharing vectors across shards and
// goroutines safe).
func TestVectorImmutable(t *testing.T) {
	v := vec(0, 1, 1, 2)
	_ = v.AddScaled(vec(0, 5), 1)
	_ = v.Scale(10)
	_ = v.Normalize()
	if v.Get(0) != 1 || v.Get(1) != 2 || math.Abs(v.Norm()-math.Sqrt(5)) > 1e-12 {
		t.Errorf("receiver mutated: %v/%v norm %v", v.Get(0), v.Get(1), v.Norm())
	}
}

func TestVectorTopDeterministic(t *testing.T) {
	v := vec(5, 1, 3, 2, 7, 2, 1, 0.5)
	got := v.Top(3)
	// weight 2 tie between 3 and 7 broken by TermID.
	want := []TermID{3, 7, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Top = %v, want %v", got, want)
		}
	}
	if n := len(v.Top(100)); n != 4 {
		t.Errorf("Top(100) len = %d, want 4", n)
	}
}

// Property: cosine similarity is always within [-1, 1] and symmetric.
func TestCosineProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		ab, bb := NewBuilder(), NewBuilder()
		for i, x := range xs {
			ab[TermID(i%17)] += float64(x)
		}
		for i, y := range ys {
			bb[TermID(i%17)] += float64(y)
		}
		a, b := ab.Vector(), bb.Vector()
		c1, c2 := a.Cosine(b), b.Cosine(a)
		return c1 >= -1 && c1 <= 1 && math.Abs(c1-c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Euclidean distance.
func TestDistanceTriangleProperty(t *testing.T) {
	f := func(xs, ys, zs []uint8) bool {
		mk := func(s []uint8) Vector {
			b := NewBuilder()
			for i, x := range s {
				b[TermID(i%11)] += float64(x)
			}
			return b.Vector()
		}
		a, b, c := mk(xs), mk(ys), mk(zs)
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Dot/Distance agree with a map-based reference implementation.
func TestMergeJoinMatchesReference(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		am, bm := map[TermID]float64{}, map[TermID]float64{}
		ab, bb := NewBuilder(), NewBuilder()
		for i, x := range xs {
			if x == 0 {
				continue
			}
			am[TermID(i%13)] += float64(x)
			ab[TermID(i%13)] += float64(x)
		}
		for i, y := range ys {
			if y == 0 {
				continue
			}
			bm[TermID(i%13)] += float64(y)
			bb[TermID(i%13)] += float64(y)
		}
		var dot, dist2 float64
		for k, x := range am {
			dot += x * bm[k]
			d := x - bm[k]
			dist2 += d * d
		}
		for k, y := range bm {
			if _, ok := am[k]; !ok {
				dist2 += y * y
			}
		}
		a, b := ab.Vector(), bb.Vector()
		return math.Abs(a.Dot(b)-dot) < 1e-6 &&
			math.Abs(a.Distance(b)-math.Sqrt(dist2)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSelectTop(t *testing.T) {
	s := []Score{{Doc: 5, Value: 1}, {Doc: 1, Value: 3}, {Doc: 9, Value: 3}, {Doc: 2, Value: 0.5}, {Doc: 7, Value: 2}}
	got := SelectTop(append([]Score(nil), s...), 3)
	want := []Score{{Doc: 1, Value: 3}, {Doc: 9, Value: 3}, {Doc: 7, Value: 2}}
	if len(got) != len(want) {
		t.Fatalf("SelectTop len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelectTop[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := SelectTop(append([]Score(nil), s...), 0); len(got) != 0 {
		t.Errorf("SelectTop(0) len = %d", len(got))
	}
	all := SelectTop(append([]Score(nil), s...), -1)
	if len(all) != len(s) || all[0].Doc != 1 || all[len(all)-1].Doc != 2 {
		t.Errorf("SelectTop(-1) = %+v", all)
	}
	big := SelectTop(append([]Score(nil), s...), 100)
	if len(big) != len(s) {
		t.Errorf("SelectTop(100) len = %d", len(big))
	}
}

// Property: bounded selection returns exactly the prefix of the full sort.
func TestSelectTopMatchesSort(t *testing.T) {
	f := func(vals []uint8, n uint8) bool {
		s := make([]Score, len(vals))
		for i, v := range vals {
			s[i] = Score{Doc: core.ObjectID(i), Value: float64(v % 7)}
		}
		full := SelectTop(append([]Score(nil), s...), -1)
		k := int(n) % (len(s) + 1)
		got := SelectTop(append([]Score(nil), s...), k)
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A Scorer's cosine is Vector.Cosine's bit for bit, with weights of either
// sign, either side empty, terms on either side past the other's largest,
// and scatters of every size reused from the pool in turn.
func TestScorerMatchesCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vec := func() Vector {
		b, vocab := NewBuilder(), 1+rng.Intn(200)
		for i := rng.Intn(40); i > 0; i-- {
			b[TermID(rng.Intn(vocab))] = rng.NormFloat64()
		}
		return b.Vector()
	}
	for round := 0; round < 500; round++ {
		v := vec()
		sc := v.Scorer()
		for k := 0; k < 8; k++ {
			u := vec()
			if got, want := sc.Cosine(u), v.Cosine(u); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d: Scorer.Cosine = %v, Vector.Cosine = %v", round, got, want)
			}
		}
		sc.Release()
	}
}
