package text

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// TermID is a dense integer assigned to a term by a Dictionary. Sparse
// vectors are keyed by TermID rather than string to keep them small and
// comparisons fast.
type TermID int32

// Dictionary maps terms to dense TermIDs and back. It only grows; terms are
// never removed, matching the warehouse's "store everything" stance. Safe
// for concurrent use: one dictionary is shared by the corpus and every
// index segment, and it synchronizes itself. Its term → ID map is a memo
// whose all holds every term (mu also guards terms), so ID and Lookup take
// no lock on a published term.
type Dictionary struct {
	memo[TermID]
	terms    []string
	tokens   memo[TermID] // raw token → its term's ID or dropped; bounded, per dictionary as IDs are
	counters sync.Pool    // Counts' *counter scratch
}

const dropped TermID = -1 // a token that yields no term

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{counters: sync.Pool{New: func() any { return new(counter) }}}
}

// ID returns the TermID for term, assigning a fresh one if unseen.
func (d *Dictionary) ID(term string) TermID {
	id, _ := d.resolve(term, true)
	return id
}

// Lookup returns the TermID for term without assigning, and whether it
// exists.
func (d *Dictionary) Lookup(term string) (TermID, bool) {
	return d.resolve(term, false)
}

func (d *Dictionary) resolve(term string, assign bool) (TermID, bool) {
	if m := d.pub.Load(); m != nil {
		if id, ok := (*m)[term]; ok {
			return id, true
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.all[term]
	if !ok && assign {
		id, ok = TermID(len(d.terms)), true
		d.terms = append(d.terms, term)
	}
	if ok {
		d.add(term, id, math.MaxInt)
	}
	return id, ok
}

// TermCount is a term, resolved to its TermID, and its count in a document.
type TermCount struct {
	ID TermID
	N  int
}

// Counts returns the term counts of s (TermCounts) resolved to TermIDs,
// assigning IDs to unseen terms, in ascending TermID order: the form the
// corpus and the indexes take, so that a page's terms are resolved once.
// A token costs one token-memo lookup; a miss goes to the stem memo and ID.
func (d *Dictionary) Counts(s string) []TermCount {
	c := d.counters.Get().(*counter)
	defer d.counters.Put(c)
	c.tok = scanTokens(s, c.tok, func(tok []byte) {
		id, ok := d.tokens.get(tok)
		if !ok {
			id = dropped
			if t, ok := stems.canonical(tok); ok {
				id = d.ID(t)
			}
			d.tokens.keep(tok, id)
		}
		if id == dropped {
			return
		}
		if int(id) >= len(c.n) {
			c.n = append(c.n, make([]int32, int(id)+1-len(c.n))...)
		}
		if c.n[id]++; c.n[id] == 1 {
			c.ids = append(c.ids, id)
		}
	})
	return c.flush()
}

// counter is Counts' scratch: n[id] is id's count, ids lists each ID
// counted, and tok is the tokenizer's buffer. n grows to the largest ID
// counted, so a pooled counter holds at most 4 B per term of its
// dictionary, plus 4 B per distinct term of the largest page it counted.
type counter struct {
	n   []int32
	ids []TermID
	tok []byte
}

// flush returns the counts in ascending ID order and empties c. It walks
// n when the page's IDs fill a sixteenth of it or more, and sorts them
// when sparser: a slot walked costs about 1 ns, an ID sorted 10–20 ns.
func (c *counter) flush() []TermCount {
	if len(c.n) < 16*len(c.ids) {
		c.ids = c.ids[:0]
		for id, n := range c.n {
			if n > 0 {
				c.ids = append(c.ids, TermID(id))
			}
		}
	} else {
		slices.Sort(c.ids)
	}
	out := make([]TermCount, len(c.ids))
	for i, id := range c.ids {
		out[i] = TermCount{id, int(c.n[id])}
		c.n[id] = 0
	}
	c.ids = c.ids[:0]
	return out
}

// MergeCounts returns a+b, two ID-sorted count lists, as one: the counts
// of a document made of two parts that share no token (a title and a body
// on separate lines).
func MergeCounts(a, b []TermCount) []TermCount {
	out := make([]TermCount, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].ID < b[0].ID:
			out, a = append(out, a[0]), a[1:]
		case a[0].ID > b[0].ID:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, TermCount{a[0].ID, a[0].N + b[0].N}), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Term returns the term for id; it panics on an ID this dictionary never
// issued, since that is always a programming error.
func (d *Dictionary) Term(id TermID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || int(id) >= len(d.terms) {
		panic(fmt.Sprintf("text: Term(%d) out of range [0,%d)", id, len(d.terms)))
	}
	return d.terms[id]
}

// size returns the number of distinct terms seen.
func (d *Dictionary) size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Vector is a sparse term-weight vector in the vector space model, stored
// as parallel slices sorted by TermID with a cached L2 norm. Vectors are
// immutable values: every arithmetic method returns a new vector, so
// sharing one across goroutines (centroids, profiles, page states) needs
// no synchronization and Clone is free. Build one with a Builder; the zero
// value is the empty vector.
type Vector struct {
	ids  []TermID
	ws   []float64
	norm float64
}

// makeVector wraps sorted parallel slices into a Vector, computing the
// cached norm. The slices must be id-sorted and must not be mutated after.
func makeVector(ids []TermID, ws []float64) Vector {
	var s float64
	for _, x := range ws {
		s += x * x
	}
	return Vector{ids: ids, ws: ws, norm: math.Sqrt(s)}
}

// makeUnit is makeVector(ids, ws).Normalize() for a ws the caller owns:
// the same operations, with ws scaled in place rather than into a copy.
func makeUnit(ids []TermID, ws []float64) Vector {
	v := makeVector(ids, ws)
	if v.norm == 0 {
		return v
	}
	inv := 1 / v.norm
	for i, x := range ws {
		ws[i] = inv * x
	}
	v.norm *= math.Abs(inv)
	return v
}

// Builder is a construction-time accumulator for sparse vectors: a plain
// map, so repeated additions stay O(1), converted once into the sorted
// immutable Vector form. Not safe for concurrent use.
type Builder map[TermID]float64

// NewBuilder returns an empty builder.
func NewBuilder() Builder { return make(Builder) }

// AddScaled accumulates a*v into the builder.
func (b Builder) AddScaled(v Vector, a float64) {
	for i, id := range v.ids {
		b[id] += a * v.ws[i]
	}
}

// Vector freezes the builder into a sorted sparse vector. Entries with
// exactly zero weight are dropped. The builder remains usable afterwards.
func (b Builder) Vector() Vector {
	ids := make([]TermID, 0, len(b))
	for id, w := range b {
		if w != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ws := make([]float64, len(ids))
	for i, id := range ids {
		ws[i] = b[id]
	}
	return makeVector(ids, ws)
}

// Top returns the n highest-weighted term IDs in the builder, in
// descending weight order (ties broken by TermID for determinism).
func (b Builder) Top(n int) []TermID {
	k := newTopTerms(n, len(b))
	for id, w := range b {
		k.push(id, w)
	}
	return k.ids()
}

// topTerms selects the best n of a stream of (term, weight) pairs —
// weight descending, TermID ascending on ties — with a bounded min-heap:
// O(len·log n), and nothing is looked up again once a pair is in hand.
type topTerms struct {
	n int
	h []termWeight // min-heap: the worst kept pair sits at the root
}

type termWeight struct {
	id TermID
	w  float64
}

// better reports whether a ranks above b.
func (a termWeight) better(b termWeight) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	return a.id < b.id
}

// newTopTerms prepares a selection of the best n out of total pairs.
func newTopTerms(n, total int) topTerms {
	if n > total {
		n = total
	}
	if n < 0 {
		n = 0
	}
	return topTerms{n: n, h: make([]termWeight, 0, n)}
}

func (k *topTerms) push(id TermID, w float64) {
	p := termWeight{id, w}
	switch {
	case len(k.h) < k.n:
		k.h = append(k.h, p)
		for i := len(k.h) - 1; i > 0; {
			up := (i - 1) / 2
			if !k.h[up].better(k.h[i]) {
				break
			}
			k.h[up], k.h[i] = k.h[i], k.h[up]
			i = up
		}
	case k.n > 0 && p.better(k.h[0]):
		k.h[0] = p
		k.siftDown(len(k.h))
	}
}

// siftDown restores the heap below the root within h[:end].
func (k *topTerms) siftDown(end int) {
	for i := 0; ; {
		worst := i
		if l := 2*i + 1; l < end && k.h[worst].better(k.h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < end && k.h[worst].better(k.h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		k.h[i], k.h[worst] = k.h[worst], k.h[i]
		i = worst
	}
}

// ids empties the selection best-first: popping the worst to the shrinking
// tail leaves the heap's slice in descending order.
func (k *topTerms) ids() []TermID {
	for end := len(k.h) - 1; end > 0; end-- {
		k.h[0], k.h[end] = k.h[end], k.h[0]
		k.siftDown(end)
	}
	out := make([]TermID, len(k.h))
	for i, p := range k.h {
		out[i] = p.id
	}
	return out
}

// Len returns the number of non-zero entries.
func (v Vector) Len() int { return len(v.ids) }

// Get returns the weight of id (0 for absent terms) by binary search.
func (v Vector) Get(id TermID) float64 {
	i := sort.Search(len(v.ids), func(i int) bool { return v.ids[i] >= id })
	if i < len(v.ids) && v.ids[i] == id {
		return v.ws[i]
	}
	return 0
}

// ForEach calls f for every (term, weight) entry in ascending TermID order.
func (v Vector) ForEach(f func(TermID, float64)) {
	for i, id := range v.ids {
		f(id, v.ws[i])
	}
}

// Clone returns an independent copy of v. Vectors are immutable, so this
// shares the underlying storage and costs nothing; it survives for callers
// that want to document ownership transfer.
func (v Vector) Clone() Vector { return v }

// Norm returns the Euclidean (L2) norm of v. It is cached at construction,
// so calling it is free.
func (v Vector) Norm() float64 { return v.norm }

// Dot returns the inner product of v and u via a merge join over the two
// sorted id slices.
func (v Vector) Dot(u Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(v.ids) && j < len(u.ids) {
		switch {
		case v.ids[i] < u.ids[j]:
			i++
		case v.ids[i] > u.ids[j]:
			j++
		default:
			s += v.ws[i] * u.ws[j]
			i++
			j++
		}
	}
	return s
}

// Cosine returns the cosine similarity of v and u in [0,1] for non-negative
// vectors. The cosine of anything with a zero vector is 0.
func (v Vector) Cosine(u Vector) float64 {
	if v.norm == 0 || u.norm == 0 {
		return 0
	}
	c := v.Dot(u) / (v.norm * u.norm)
	// Guard against floating-point drift outside [-1, 1].
	return math.Max(-1, math.Min(1, c))
}

// Scorer is a vector scattered into a TermID-indexed slice, so a cosine
// against it costs one pass over the other vector's terms, not a merge
// with its own. A Scorer from Vector.Scorer is pooled: Release it when
// done. One kept for good (a region's centroid) moves by Step, in place.
// Cosine and Vector only read it, so they may run concurrently with each
// other but not with Step or Release.
type Scorer struct {
	ids  []TermID  // the vector's terms, ascending; never written in place
	w    []float64 // w[id] is the weight of id; zero off ids, up to cap
	norm float64
}

var scorers = sync.Pool{New: func() any { return new(Scorer) }}

// Scorer scatters v, in O(|v|), for scoring many vectors against it.
func (v Vector) Scorer() *Scorer {
	s := scorers.Get().(*Scorer)
	s.ids, s.norm, s.w = v.ids, v.norm, s.w[:0]
	s.cover(v.ids)
	for i, id := range v.ids {
		s.w[id] = v.ws[i]
	}
	return s
}

// cover extends w to the last of ids, sorted ascending; the slots it adds
// are zero, as every slot off the vector's terms is.
func (s *Scorer) cover(ids []TermID) {
	if len(ids) == 0 {
		return
	}
	if need := int(ids[len(ids)-1]) + 1; need > len(s.w) {
		s.w = slices.Grow(s.w, need-len(s.w))[:need]
	}
}

// Cosine is Vector.Cosine(u) bit for bit: the shared terms' products are
// added in the same TermID order, and a term the vector lacks adds a zero.
func (s *Scorer) Cosine(u Vector) float64 {
	if s.norm == 0 || u.norm == 0 {
		return 0
	}
	var dot float64
	for j, id := range u.ids {
		if int(id) >= len(s.w) {
			break // past the vector's last term
		}
		dot += s.w[id] * u.ws[j]
	}
	return math.Max(-1, math.Min(1, dot/(s.norm*u.norm)))
}

// Step moves the vector to v.MeanStep(u, a), in place and bit for bit:
// each weight is scaled, added to and normalised by the same operations,
// and the squares are summed in the same TermID order, in the merge pass
// that makes each weight. A term stays in the vector once added, even if
// its weight underflows to zero, as in MeanStep. Step allocates only when
// u brings terms the vector lacks: a new id list, since a Vector may share
// the old one.
func (s *Scorer) Step(u Vector, a float64) {
	keep := 1 - a
	s.cover(u.ids)
	var ids []TermID // nil while every merged term is one of the vector's
	var sum float64  // makeVector's, over the merged weights in TermID order
	i := 0
	// scale steps the vector's terms below end, which u lacks.
	scale := func(end int) {
		for ; i < len(s.ids) && int(s.ids[i]) < end; i++ {
			id := s.ids[i]
			w := float64(keep * s.w[id]) // rounded before any add, as in MeanStep
			s.w[id] = w
			sum += w * w
			if ids != nil {
				ids = append(ids, id)
			}
		}
	}
	for j, id := range u.ids {
		scale(int(id))
		var w float64
		if i < len(s.ids) && s.ids[i] == id {
			w = float64(keep * s.w[id])
			w += a * u.ws[j]
			i++
		} else {
			if ids == nil {
				ids = append(make([]TermID, 0, len(s.ids)+len(u.ids)-j), s.ids[:i]...)
			}
			w = a * u.ws[j]
		}
		s.w[id] = w
		sum += w * w
		if ids != nil {
			ids = append(ids, id)
		}
	}
	scale(math.MaxInt)
	if ids != nil {
		s.ids = ids
	}
	// makeUnit's scale, in place.
	if s.norm = math.Sqrt(sum); s.norm == 0 {
		return
	}
	inv := 1 / s.norm
	for _, id := range s.ids {
		s.w[id] = inv * s.w[id]
	}
	s.norm *= math.Abs(inv)
}

// Vector returns the scattered vector as an immutable Vector: its weights
// copied out, its id list shared.
func (s *Scorer) Vector() Vector {
	ws := make([]float64, len(s.ids))
	for i, id := range s.ids {
		ws[i] = s.w[id]
	}
	return Vector{ids: s.ids, ws: ws, norm: s.norm}
}

// Release clears the scatter, walking only the vector's terms, and pools s.
func (s *Scorer) Release() {
	for _, id := range s.ids {
		s.w[id] = 0
	}
	s.ids, s.norm = nil, 0
	scorers.Put(s)
}

// Distance returns the Euclidean distance between v and u (merge join).
func (v Vector) Distance(u Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(v.ids) && j < len(u.ids) {
		switch {
		case v.ids[i] < u.ids[j]:
			s += v.ws[i] * v.ws[i]
			i++
		case v.ids[i] > u.ids[j]:
			s += u.ws[j] * u.ws[j]
			j++
		default:
			d := v.ws[i] - u.ws[j]
			s += d * d
			i++
			j++
		}
	}
	for ; i < len(v.ids); i++ {
		s += v.ws[i] * v.ws[i]
	}
	for ; j < len(u.ids); j++ {
		s += u.ws[j] * u.ws[j]
	}
	return math.Sqrt(s)
}

// AddScaled returns v + a*u as a new vector (merge join).
func (v Vector) AddScaled(u Vector, a float64) Vector {
	ids := make([]TermID, 0, len(v.ids)+len(u.ids))
	ws := make([]float64, 0, len(v.ids)+len(u.ids))
	i, j := 0, 0
	for i < len(v.ids) && j < len(u.ids) {
		switch {
		case v.ids[i] < u.ids[j]:
			ids = append(ids, v.ids[i])
			ws = append(ws, v.ws[i])
			i++
		case v.ids[i] > u.ids[j]:
			ids = append(ids, u.ids[j])
			ws = append(ws, a*u.ws[j])
			j++
		default:
			ids = append(ids, v.ids[i])
			ws = append(ws, v.ws[i]+a*u.ws[j])
			i++
			j++
		}
	}
	for ; i < len(v.ids); i++ {
		ids = append(ids, v.ids[i])
		ws = append(ws, v.ws[i])
	}
	for ; j < len(u.ids); j++ {
		ids = append(ids, u.ids[j])
		ws = append(ws, a*u.ws[j])
	}
	return makeVector(ids, ws)
}

// MeanStep returns v.Scale(1-a).AddScaled(u, a).Normalize() bit for bit
// (the same float operations in the same order) in one merge pass and,
// when u has no term v lacks so that v's ids are shared, one allocation.
func (v Vector) MeanStep(u Vector, a float64) Vector {
	keep := 1 - a
	ws := make([]float64, 0, len(v.ids)+len(u.ids))
	var ids []TermID // nil while every merged term is one of v's
	for i, j := 0, 0; i < len(v.ids) || j < len(u.ids); {
		if j < len(u.ids) && (i == len(v.ids) || u.ids[j] < v.ids[i]) {
			if ids == nil {
				ids = append(make([]TermID, 0, cap(ws)), v.ids[:i]...)
			}
			ids = append(ids, u.ids[j])
			ws = append(ws, a*u.ws[j])
			j++
			continue
		}
		// The conversion rounds the scaled weight before the add, as the
		// chain's separate Scale does, so no platform fuses the two.
		w := float64(keep * v.ws[i])
		if j < len(u.ids) && u.ids[j] == v.ids[i] {
			w += a * u.ws[j]
			j++
		}
		if ids != nil {
			ids = append(ids, v.ids[i])
		}
		ws = append(ws, w)
		i++
	}
	if ids == nil {
		ids = v.ids
	}
	return makeUnit(ids, ws)
}

// Scale returns a*v as a new vector.
func (v Vector) Scale(a float64) Vector {
	ws := make([]float64, len(v.ws))
	for i, x := range v.ws {
		ws[i] = a * x
	}
	return Vector{ids: v.ids, ws: ws, norm: math.Abs(a) * v.norm}
}

// Normalize returns v scaled to unit L2 norm. The zero vector is returned
// unchanged.
func (v Vector) Normalize() Vector {
	if v.norm == 0 {
		return v
	}
	return v.Scale(1 / v.norm)
}

// Top returns the n highest-weighted term IDs in descending weight order
// (ties broken by TermID for determinism).
func (v Vector) Top(n int) []TermID {
	k := newTopTerms(n, len(v.ids))
	for i, id := range v.ids {
		k.push(id, v.ws[i])
	}
	return k.ids()
}
