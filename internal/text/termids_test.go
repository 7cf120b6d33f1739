package text

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cbfww/internal/core"
)

// A published term's ID is read with no lock: with mu held, every lookup
// below would hang if one took it.
func TestDictionaryReadsTakeNoLock(t *testing.T) {
	d := NewDictionary()
	for i := 0; i < 1000; i++ {
		d.ID(fmt.Sprintf("term%d", i))
	}
	pub := *d.pub.Load()
	if len(pub) < 750 {
		t.Fatalf("after 1000 new terms %d are published, want at least 750", len(pub))
	}
	d.mu.Lock()
	for term, want := range pub {
		if id := d.ID(term); id != want {
			t.Fatalf("ID(%q) = %d, published %d", term, id, want)
		}
		if id, ok := d.Lookup(term); !ok || id != want {
			t.Fatalf("Lookup(%q) = %d, %v; published %d", term, id, ok, want)
		}
	}
	d.mu.Unlock()
}

// A term that keeps being asked for is published, even when no new term
// arrives to trigger a republish.
func TestDictionaryPublishesRepeats(t *testing.T) {
	d := NewDictionary()
	for i := 0; i < 200; i++ {
		d.ID(fmt.Sprintf("term%d", i))
	}
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < 200; i++ {
			d.Lookup(fmt.Sprintf("term%d", i))
		}
	}
	if pub := *d.pub.Load(); len(pub) != 200 {
		t.Fatalf("%d of 200 terms asked for 11 times each are published", len(pub))
	}
	if _, ok := d.Lookup("never"); ok {
		t.Fatal("Lookup found a term never assigned")
	}
}

// Goroutines assigning, looking up and reading back one dictionary at once
// agree: one ID per term, Term(ID(t)) == t, and the IDs are dense.
func TestDictionaryConcurrent(t *testing.T) {
	d := NewDictionary()
	const workers, terms = 4, 3000
	got := make([][]TermID, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			ids := make([]TermID, terms)
			for _, i := range rng.Perm(terms) {
				term := fmt.Sprintf("t%d", i)
				if id, ok := d.Lookup(term); ok && d.Term(id) != term {
					t.Errorf("Term(Lookup(%q)) = %q", term, d.Term(id))
				}
				ids[i] = d.ID(term)
				if back := d.Term(ids[i]); back != term {
					t.Errorf("Term(ID(%q)) = %q", term, back)
				}
				if n := d.size(); int(ids[i]) >= n {
					t.Errorf("ID(%q) = %d with only %d terms", term, ids[i], n)
				}
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()
	for g := 1; g < workers; g++ {
		if !reflect.DeepEqual(got[g], got[0]) {
			t.Fatalf("goroutines 0 and %d were given different IDs", g)
		}
	}
	if d.size() != terms {
		t.Fatalf("%d terms hold %d IDs", terms, d.size())
	}
	seen := make([]bool, terms)
	for _, id := range got[0] {
		if id < 0 || int(id) >= terms || seen[id] {
			t.Fatalf("IDs are not dense: %d", id)
		}
		seen[id] = true
	}
}

// randomVector draws a vector over up to n of the first span TermIDs, with
// weights of mixed magnitude so rounding has something to do.
func randomVector(rng *rand.Rand, n, span int) Vector {
	b := NewBuilder()
	for i := rng.Intn(n + 1); i > 0; i-- {
		b[TermID(rng.Intn(span))] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return b.Vector()
}

// sameBits reports whether a and b hold the same terms, weights and norm,
// bit for bit.
func sameBits(a, b Vector) bool {
	if len(a.ids) != len(b.ids) || math.Float64bits(a.norm) != math.Float64bits(b.norm) {
		return false
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] || math.Float64bits(a.ws[i]) != math.Float64bits(b.ws[i]) {
			return false
		}
	}
	return true
}

// The one-pass centroid step is the three-call chain bit for bit: the
// region centroids, and so every region and priority, are unchanged.
func TestMeanStepMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(c, p Vector, a float64) {
		t.Helper()
		want := c.Scale(1-a).AddScaled(p, a).Normalize()
		if got := c.MeanStep(p, a); !sameBits(got, want) {
			t.Fatalf("MeanStep(%v, %v, %v) = %v, chain %v", c, p, a, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		// Overlapping, nested and disjoint term sets, from a near-empty
		// to a centroid-sized vector.
		c := randomVector(rng, 1+rng.Intn(400), 1+rng.Intn(600))
		p := randomVector(rng, rng.Intn(60), 1+rng.Intn(600))
		check(c, p, 1/float64(2+rng.Intn(1000)))
	}
	c := vec(1, 0.5, 3, 0.25, 7, 2)
	check(c, Vector{}, 0.5)                        // an empty page vector
	check(Vector{}, c, 0.5)                        // an empty centroid
	check(Vector{}, Vector{}, 0.5)                 // both empty
	check(c, vec(2, 1, 4, 3, 9, 0.5), 1.0/3)       // disjoint, interleaved
	check(c, vec(10, 1, 11, 2), 0.25)              // disjoint, all after
	check(vec(5, 1), vec(1, 2, 2, 3, 3, 4), 0.125) // disjoint, all before
	check(c, c, 0.2)                               // the same terms
}

// A Scorer stepped in place is a MeanStep chain bit for bit: terms,
// weights, norm and every cosine, over chains that bring new terms, take
// a = 1, pass through the zero vector and carry weights whose squares
// underflow.
func TestScorerStepMatchesMeanStep(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	// page draws up to 40 ascending terms below span, without a Builder:
	// the chains take a quarter of a million steps.
	page := func(span int) Vector {
		n := rng.Intn(41)
		if n == 0 || rng.Intn(20) == 0 {
			return Vector{} // the zero vector
		}
		ids, ws := make([]TermID, 0, n), make([]float64, 0, n)
		scale, signed := math.Pow(10, float64(rng.Intn(7)-3)), rng.Intn(20) == 0
		if rng.Intn(20) == 0 { // squares underflow: a norm of 0 or a subnormal one
			scale = []float64{1e-170, 1e-200, 1e-310}[rng.Intn(3)]
		}
		for id := rng.Intn(1 + span/n); id < span && len(ids) < n; id += 1 + rng.Intn(1+2*span/n) {
			w := rng.ExpFloat64() * scale
			if signed && rng.Intn(2) == 0 {
				w = -w
			}
			if w != 0 {
				ids, ws = append(ids, TermID(id)), append(ws, w)
			}
		}
		return makeVector(ids, ws)
	}
	for chain := 0; chain < 1000; chain++ {
		span := 1 + rng.Intn(300)
		want := page(span)
		sc := want.Scorer()
		steps := 1 + rng.Intn(500)
		for step := 1; step <= steps; step++ {
			u, a := page(span+step/4), 1/float64(1+step) // new terms keep arriving
			if rng.Intn(25) == 0 {
				a = 1
			}
			if got, w := sc.Cosine(u), u.Cosine(want); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("chain %d step %d: Cosine = %v, merge-join %v", chain, step, got, w)
			}
			want = want.MeanStep(u, a)
			sc.Step(u, a)
			if !scatters(sc, want) {
				t.Fatalf("chain %d step %d: Step gave %v, MeanStep %v", chain, step, sc.Vector(), want)
			}
		}
		if !sameBits(sc.Vector(), want) {
			t.Fatalf("chain %d: Vector() = %v, MeanStep %v", chain, sc.Vector(), want)
		}
		sc.Release()
	}
}

// scatters reports whether s holds v bit for bit: the same terms, each
// weight in its slot, the same norm.
func scatters(s *Scorer, v Vector) bool {
	if !slices.Equal(s.ids, v.ids) || math.Float64bits(s.norm) != math.Float64bits(v.norm) {
		return false
	}
	for i, id := range v.ids {
		if math.Float64bits(s.w[id]) != math.Float64bits(v.ws[i]) {
			return false
		}
	}
	return true
}

// pageText is a random title or body over a small vocabulary.
func pageText(rng *rand.Rand, words int) string {
	vocab := []string{"Kyoto", "stations", "station", "travelling", "warehouse", "data", "the", "of", "night", "bus", "<b>", "</b>", "京都", "Straße", "2003", "click"}
	b := make([]byte, 0, words*8)
	for i := 0; i < words; i++ {
		b = append(b, vocab[rng.Intn(len(vocab))]...)
		b = append(b, " \n,."[rng.Intn(4)])
	}
	return string(b)
}

// vectorByStrings is the string-keyed WeightedVector admission used before
// it resolved a page's terms to TermIDs once: each part's counts resolved
// term by term into a Builder under the corpus lock, then sorted.
func vectorByStrings(c *Corpus, title, body map[string]int, omega float64) Vector {
	vectorize := func(counts map[string]int) Vector {
		c.mu.Lock()
		defer c.mu.Unlock()
		b := NewBuilder()
		for term, n := range counts {
			id := c.dict.ID(term)
			b[id] = (1 + math.Log(float64(n))) * c.idfLocked(id)
		}
		return b.Vector().Normalize()
	}
	if omega < 1 {
		omega = 1
	}
	vt := vectorize(title)
	return vectorize(body).AddScaled(vt, omega).Normalize()
}

// indexByStrings is the string-keyed IndexCounts it replaced, into the
// reference index: each term resolved through the dictionary.
func indexByStrings(ref *fullScanIndex, dict *Dictionary, id core.ObjectID, counts map[string]int) {
	ref.remove(id)
	total := 0
	for term, n := range counts {
		tid := dict.ID(term)
		ref.postings[tid] = append(ref.postings[tid], refPosting{Doc: id, TF: n})
		total += n
	}
	ref.docLen[id] = total
}

// A page's terms resolved once to ID-sorted counts give the vector, the
// postings and the document lengths the string-keyed path gave: the same
// terms, bit-equal weights and norm, on a corpus that has and one that has
// not seen documents.
func TestTermIDPathMatchesStringPath(t *testing.T) {
	for _, docs := range []int{0, 40} {
		c := NewCorpus()
		rng := rand.New(rand.NewSource(int64(13 + docs)))
		for i := 0; i < docs; i++ {
			c.Add(pageText(rng, 30))
		}
		byIDs, byStrings := NewInvertedIndex(c.Dict()), newFullScanIndex()
		for i := 0; i < 300; i++ {
			title, body := pageText(rng, rng.Intn(6)), pageText(rng, rng.Intn(300))
			omega := []float64{0.5, 1, 3}[rng.Intn(3)]
			tc, bc := c.dict.Counts(title), c.dict.Counts(body)
			got := c.WeightedVectorCounts(tc, bc, omega)
			want := vectorByStrings(c, TermCounts(title), TermCounts(body), omega)
			if !sameBits(got, want) {
				t.Fatalf("docs %d: vector of %q / %q = %v, string path %v", docs, title, body, got, want)
			}
			id := core.ObjectID(rng.Intn(200)) // some pages replace others
			byIDs.IndexVector(id, MergeCounts(tc, bc), got)
			indexByStrings(byStrings, c.Dict(), id, SumCounts(TermCounts(title), TermCounts(body)))
		}
		postings, docLen := byIDs.view()
		if !reflect.DeepEqual(postings, byStrings.postings) || !reflect.DeepEqual(docLen, byStrings.docLen) {
			t.Fatalf("docs %d: postings or document lengths differ from the string path", docs)
		}
	}
}
