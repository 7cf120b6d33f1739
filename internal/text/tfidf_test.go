package text

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestCorpusCounts(t *testing.T) {
	c := NewCorpus()
	if c.numDocs != 0 || c.dict.size() != 0 {
		t.Fatal("fresh corpus not empty")
	}
	c.Add("kyoto station travel")
	c.Add("kyoto bus")
	if c.numDocs != 2 {
		t.Errorf("%d documents, want 2", c.numDocs)
	}
	if n := c.dict.size(); n != 4 {
		t.Errorf("%d terms, want 4 (kyoto, station, travel, bu)", n)
	}
}

func TestIDFOrdering(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 10; i++ {
		c.Add(fmt.Sprintf("common doc%d", i))
	}
	c.Add("rare common")
	if got, want := c.IDF("common"), c.IDF("rare"); got >= want {
		t.Errorf("IDF(common)=%v should be < IDF(rare)=%v", got, want)
	}
	// Unseen terms get maximal IDF.
	if c.IDF("neverseen") < c.IDF("rare") {
		t.Error("unseen term should have max IDF")
	}
}

func TestTFIDFNormalized(t *testing.T) {
	c := NewCorpus()
	tf := c.Add("kyoto kyoto station")
	v := c.TFIDF(tf)
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("TFIDF norm = %v, want 1", v.Norm())
	}
	// kyoto appears twice: its weight must exceed station's despite equal IDF.
	kid, _ := c.Dict().Lookup("kyoto")
	sid, _ := c.Dict().Lookup("station")
	if v.Get(kid) <= v.Get(sid) {
		t.Errorf("tf dampening broken: kyoto=%v station=%v", v.Get(kid), v.Get(sid))
	}
}

func TestVectorizeNewMatchesAddPlusTFIDF(t *testing.T) {
	c1, c2 := NewCorpus(), NewCorpus()
	doc := "data stream systems process data"
	v1 := c1.VectorizeNew(doc)
	v2 := c2.TFIDF(c2.Add(doc))
	if v1.Len() != v2.Len() {
		t.Fatalf("different support: %d vs %d", v1.Len(), v2.Len())
	}
	// TermIDs are assigned in map-iteration order and differ between the
	// two corpora; compare weights by term name instead.
	v1.ForEach(func(k TermID, x float64) {
		term := c1.Dict().Term(k)
		k2, ok := c2.Dict().Lookup(term)
		if !ok {
			t.Fatalf("term %q missing from second corpus", term)
		}
		if math.Abs(x-v2.Get(k2)) > 1e-12 {
			t.Errorf("mismatch at %q: %v vs %v", term, x, v2.Get(k2))
		}
	})
}

func TestVectorizeDoesNotCount(t *testing.T) {
	c := NewCorpus()
	c.Add("kyoto")
	before := c.numDocs
	_ = c.Vectorize("kyoto station")
	if c.numDocs != before {
		t.Error("Vectorize changed the document count")
	}
	// Two queries about the same unseen topic must be similar.
	q1 := c.Vectorize("shinkansen superexpress")
	q2 := c.Vectorize("shinkansen superexpress access")
	if q1.Cosine(q2) <= 0.5 {
		t.Errorf("unseen-term queries dissimilar: cos=%v", q1.Cosine(q2))
	}
}

func TestWeightedVectorStressesTitle(t *testing.T) {
	c := NewCorpus()
	// Seed corpus so IDFs are comparable.
	c.Add("kyoto station travel bus shinkansen business office location")
	v := c.WeightedVector("kyoto travel", "business office", 3)
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("WeightedVector not normalized: %v", v.Norm())
	}
	kid, _ := c.Dict().Lookup("kyoto")
	bid, _ := c.Dict().Lookup("busi")
	if v.Get(kid) <= v.Get(bid) {
		t.Errorf("title term kyoto (%v) should outweigh body term business (%v)", v.Get(kid), v.Get(bid))
	}
	// omega < 1 is clamped to 1: title and body weigh equally then.
	v2 := c.WeightedVector("kyoto", "osaka", 0.1)
	oid, _ := c.Dict().Lookup("osaka")
	kw, ow := v2.Get(kid), v2.Get(oid)
	// Equal tf, IDF may differ (osaka unseen has higher IDF), so just check
	// the title did not get *less* than a fair share after clamping.
	if kw <= 0 || ow <= 0 {
		t.Errorf("weights missing: kyoto=%v osaka=%v", kw, ow)
	}
}

// §5.3 scenario: two logical documents share the terminal document but have
// different anchor-text titles; the weighted vectors must distinguish them.
func TestWeightedVectorDistinguishesPaths(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 5; i++ {
		c.Add("kyoto station shinkansen superexpress access travel bus ntt office location japan")
	}
	body := "access to the shinkansen superexpress platform schedule"
	tourist := c.WeightedVector("travel in kyoto, list of bus stations, kyoto station", body, 3)
	business := c.WeightedVector("ntt western japan, kyoto office, location", body, 3)
	self := tourist.Cosine(tourist)
	cross := tourist.Cosine(business)
	if cross >= self {
		t.Fatalf("cross similarity %v >= self %v", cross, self)
	}
	if cross > 0.95 {
		t.Errorf("paths to same terminal indistinguishable: cos=%v", cross)
	}
}

func TestCorpusConcurrentAdd(t *testing.T) {
	c := NewCorpus()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.VectorizeNew(fmt.Sprintf("doc %d %d kyoto data stream", g, i))
			}
		}(g)
	}
	wg.Wait()
	if c.numDocs != 800 {
		t.Errorf("%d documents, want 800", c.numDocs)
	}
}

// vectorizeCounts, which skips the IDF while the corpus counts no
// document, gives the general formula's vector bit for bit — each weight
// (1+ln tf)·idf, unit-normalized — over seeded counts, before and after
// the corpus counts documents.
func TestVectorizeCountsMatchesGeneralFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCorpus()
	for _, docs := range []int{0, 25} {
		for c.numDocs < docs {
			c.Add(pageText(rng, 40))
		}
		for i := 0; i < 200; i++ {
			counts := c.dict.Counts(pageText(rng, rng.Intn(300)))
			ids := make([]TermID, len(counts))
			ws := make([]float64, len(counts))
			for j, tc := range counts {
				ids[j], ws[j] = tc.ID, (1+math.Log(float64(tc.N)))*c.idfLocked(tc.ID)
			}
			if got, want := c.vectorizeCounts(counts), makeVector(ids, ws).Normalize(); !sameBits(got, want) {
				t.Fatalf("%d documents: vector %v, general formula %v", docs, got, want)
			}
		}
	}
}
