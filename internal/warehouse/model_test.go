package warehouse

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/text"
)

// modelByStrings is the content model admission computed before a page's
// terms were resolved to TermIDs once: string-keyed counts, each part's
// vector resolved term by term into a Builder, and a string-keyed
// title+body sum for the indexes.
func modelByStrings(c *text.Corpus, p *core.Page, omega float64) (text.Vector, map[string]int) {
	vectorize := func(counts map[string]int) text.Vector {
		b := text.NewBuilder()
		for term, n := range counts {
			b[c.Dict().ID(term)] = (1 + math.Log(float64(n))) * c.IDF(term)
		}
		return b.Vector().Normalize()
	}
	title, body := text.TermCounts(p.Title), text.TermCounts(p.Body)
	if omega < 1 {
		omega = 1
	}
	vt := vectorize(title)
	sum := make(map[string]int, len(title)+len(body))
	for _, part := range []map[string]int{title, body} {
		for t, n := range part {
			sum[t] += n
		}
	}
	return vectorize(body).AddScaled(vt, omega).Normalize(), sum
}

// For seeded random pages, modelOf gives the terms, weights (bit for bit)
// and norm the string-keyed path gave, and the title+body counts it fed
// the indexes.
func TestModelOfMatchesStringPath(t *testing.T) {
	w, _ := admitBench(t, "")
	o := newFirstSightOrigin()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		p := core.Page{Title: o.titles[rng.Intn(len(o.titles))], Body: o.bodies[rng.Intn(len(o.bodies))]}
		if i%2 == 1 { // mixed case, markup, stop words and non-ASCII
			p.Title = strings.ToUpper(p.Title) + " the Straße"
			p.Body = "<p>Kyoto</p> 京都 of " + p.Body[:rng.Intn(len(p.Body))]
		}
		pc := w.modelOf(&p)
		want, wantTerms := modelByStrings(w.corpus, &p, w.cfg.Omega)
		if math.Float64bits(pc.vec.Norm()) != math.Float64bits(want.Norm()) || pc.vec.Len() != want.Len() {
			t.Fatalf("page %d: norm %v over %d terms, string path %v over %d", i, pc.vec.Norm(), pc.vec.Len(), want.Norm(), want.Len())
		}
		pc.vec.ForEach(func(id text.TermID, x float64) {
			if math.Float64bits(x) != math.Float64bits(want.Get(id)) {
				t.Fatalf("page %d: weight of %q = %v, string path %v", i, w.corpus.Dict().Term(id), x, want.Get(id))
			}
		})
		terms := make(map[string]int, len(pc.terms))
		for j, tc := range pc.terms {
			if j > 0 && pc.terms[j-1].ID >= tc.ID {
				t.Fatalf("page %d: counts not in ascending TermID order at %d", i, j)
			}
			terms[w.corpus.Dict().Term(tc.ID)] = tc.N
		}
		if !reflect.DeepEqual(terms, wantTerms) {
			t.Fatalf("page %d: counts %v, string path %v", i, terms, wantTerms)
		}
	}
}
