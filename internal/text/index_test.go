package text

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"cbfww/internal/core"
)

// docsWith lists the documents Search finds for term, in ascending
// ObjectID order.
func docsWith(ix *InvertedIndex, term string) []core.ObjectID {
	var out []core.ObjectID
	for _, s := range ix.Search(term, -1) {
		out = append(out, s.Doc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestIndexLookup(t *testing.T) {
	ix := NewInvertedIndex(nil)
	ix.Index(1, "data warehouse design")
	ix.Index(2, "data stream systems")
	ix.Index(3, "kyoto travel guide")

	if got := docsWith(ix, "data"); !reflect.DeepEqual(got, []core.ObjectID{1, 2}) {
		t.Errorf("docsWith(data) = %v", got)
	}
	if got := docsWith(ix, "warehouses"); !reflect.DeepEqual(got, []core.ObjectID{1}) {
		t.Errorf("docsWith(warehouses) = %v (stemming should match)", got)
	}
	if got := docsWith(ix, "missing"); got != nil {
		t.Errorf("docsWith(missing) = %v", got)
	}
	if got := docsWith(ix, "the"); got != nil {
		t.Errorf("docsWith(stopword) = %v", got)
	}
	if ix.NumDocs() != 3 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
}

func TestIndexReplaceAndRemove(t *testing.T) {
	ix := NewInvertedIndex(nil)
	ix.Index(1, "old content about kyoto")
	ix.Index(1, "new content about osaka")
	if got := docsWith(ix, "kyoto"); len(got) != 0 {
		t.Errorf("stale posting after reindex: %v", got)
	}
	if got := docsWith(ix, "osaka"); !reflect.DeepEqual(got, []core.ObjectID{1}) {
		t.Errorf("docsWith(osaka) = %v", got)
	}
	ix.Remove(1)
	if ix.Contains(1) {
		t.Error("Contains after Remove")
	}
	if got := docsWith(ix, "osaka"); len(got) != 0 {
		t.Errorf("posting after Remove: %v", got)
	}
	ix.Remove(42) // removing unknown id is a no-op
}

func TestIndexSearchRanking(t *testing.T) {
	ix := NewInvertedIndex(nil)
	ix.Index(1, "kyoto kyoto kyoto station")
	ix.Index(2, "kyoto hotel cheap")
	ix.Index(3, "osaka castle guide")
	ix.Index(4, "nara deer park")

	got := ix.Search("kyoto station", 10)
	if len(got) != 2 {
		t.Fatalf("Search returned %d docs: %v", len(got), got)
	}
	if got[0].Doc != 1 {
		t.Errorf("top doc = %v, want 1 (more query-term mass)", got[0].Doc)
	}
	if got[0].Value <= got[1].Value {
		t.Errorf("scores not descending: %v", got)
	}
	if got := ix.Search("zzz", 10); len(got) != 0 {
		t.Errorf("Search(unknown) = %v", got)
	}
	if got := ix.Search("kyoto", 1); len(got) != 1 {
		t.Errorf("Search limit ignored: %v", got)
	}
}

func TestIndexSharedDictionary(t *testing.T) {
	c := NewCorpus()
	ix := NewInvertedIndex(c.Dict())
	c.Add("kyoto station")
	ix.Index(1, "kyoto station")
	// Both should agree on the TermID for "kyoto".
	id1, ok1 := c.Dict().Lookup("kyoto")
	if !ok1 {
		t.Fatal("corpus missing kyoto")
	}
	if got := docsWith(ix, "kyoto"); len(got) != 1 {
		t.Fatalf("index lookup failed: %v", got)
	}
	_ = id1
}

func TestIndexConcurrent(t *testing.T) {
	ix := NewInvertedIndex(nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := core.ObjectID(g*50 + i + 1)
				ix.Index(id, fmt.Sprintf("doc %d kyoto data", id))
				docsWith(ix, "kyoto")
				ix.Search("data", 5)
			}
		}(g)
	}
	wg.Wait()
	if ix.NumDocs() != 200 {
		t.Errorf("NumDocs = %d, want 200", ix.NumDocs())
	}
}

// refPosting is a posting as the reference indexes below keep it: the
// document's ObjectID and its term frequency.
type refPosting struct {
	Doc core.ObjectID
	TF  int
}

// view expands ix's compact layout into the reference form: each term's
// postings in list order, under the documents' ObjectIDs, and the
// document lengths.
func (ix *InvertedIndex) view() (map[TermID][]refPosting, map[core.ObjectID]int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	postings := map[TermID][]refPosting{}
	for tid, list := range ix.lists {
		for _, p := range list {
			postings[TermID(tid)] = append(postings[TermID(tid)], refPosting{Doc: ix.docs[p.doc].id, TF: int(p.tf)})
		}
	}
	docLen := map[core.ObjectID]int{}
	for id, n := range ix.nums {
		docLen[id] = ix.docs[n].length
	}
	return postings, docLen
}

// checkNumbers fails t unless ix's document numbers are consistent: every
// number is either an indexed document's, naming it back, or free and
// empty; and each indexed document has exactly one posting under each of
// its terms and none elsewhere.
func checkNumbers(t *testing.T, ix *InvertedIndex) {
	t.Helper()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) != len(ix.nums)+len(ix.free) {
		t.Fatalf("%d numbers, %d documents and %d free", len(ix.docs), len(ix.nums), len(ix.free))
	}
	for id, n := range ix.nums {
		if ix.docs[n].id != id {
			t.Fatalf("number %d names %d, is %d's", n, ix.docs[n].id, id)
		}
	}
	for _, n := range ix.free {
		if d := ix.docs[n]; d.id != 0 || d.length != 0 || d.terms != nil {
			t.Fatalf("free number %d holds %+v", n, d)
		}
	}
	postings := make([]int, len(ix.docs))
	for _, list := range ix.lists {
		for _, p := range list {
			postings[p.doc]++
		}
	}
	for n, d := range ix.docs {
		if postings[n] != len(d.terms) {
			t.Fatalf("number %d has %d postings and %d terms", n, postings[n], len(d.terms))
		}
	}
}

// fullScanIndex is the InvertedIndex as it was before documents kept
// their terms or numbers: postings by ObjectID in a map, and a removal
// filters every posting list.
type fullScanIndex struct {
	postings map[TermID][]refPosting
	docLen   map[core.ObjectID]int
}

func newFullScanIndex() *fullScanIndex {
	return &fullScanIndex{postings: map[TermID][]refPosting{}, docLen: map[core.ObjectID]int{}}
}

func (f *fullScanIndex) remove(id core.ObjectID) {
	if _, ok := f.docLen[id]; !ok {
		return
	}
	delete(f.docLen, id)
	for tid, list := range f.postings {
		out := list[:0]
		for _, p := range list {
			if p.Doc != id {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			delete(f.postings, tid)
		} else {
			f.postings[tid] = out
		}
	}
}

func (f *fullScanIndex) index(id core.ObjectID, counts []TermCount) {
	f.remove(id)
	total := 0
	for _, tc := range counts {
		f.postings[tc.ID] = append(f.postings[tc.ID], refPosting{Doc: id, TF: tc.N})
		total += tc.N
	}
	f.docLen[id] = total
}

// search is Search as the map-keyed index ran it: per-document scores
// summed in a map in query-term order, normalized by document length and
// ranked by SelectTop.
func (f *fullScanIndex) search(dict *Dictionary, terms []string, n int) []Score {
	scores := map[core.ObjectID]float64{}
	for _, t := range terms {
		tid, ok := dict.Lookup(t)
		if !ok || len(f.postings[tid]) == 0 {
			continue
		}
		idf := idfFor(len(f.docLen), len(f.postings[tid]))
		for _, p := range f.postings[tid] {
			scores[p.Doc] += float64(p.TF) * idf
		}
	}
	var out []Score
	for id, s := range scores {
		if l := f.docLen[id]; l > 0 {
			s /= float64(l)
		}
		out = append(out, Score{Doc: id, Value: s})
	}
	return SelectTop(out, n)
}

// randomCounts draws up to terms distinct TermIDs below vocab, ID-sorted,
// with counts of 1 to 5.
func randomCounts(rng *rand.Rand, vocab, terms int) []TermCount {
	n := map[TermID]int{}
	for i := 0; i < terms; i++ {
		n[TermID(rng.Intn(vocab))] = 1 + rng.Intn(5)
	}
	out := make([]TermCount, 0, len(n))
	for id, c := range n {
		out = append(out, TermCount{id, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// A re-index or removal that filters only the document's own posting
// lists leaves the postings, in the same order, and the document lengths
// that filtering every list left, over a seeded mix of new documents,
// re-indexed ones, removals and removals of unknown IDs.
func TestReindexRemovesOnlyItsPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ix := NewInvertedIndex(nil)
	ref := newFullScanIndex()
	for step := 0; step < 3000; step++ {
		id := core.ObjectID(rng.Intn(60))
		if rng.Intn(4) == 0 {
			ix.Remove(id)
			ref.remove(id)
		} else {
			counts := randomCounts(rng, 150, rng.Intn(30))
			ix.IndexCounts(id, counts)
			ref.index(id, counts)
		}
		if step%100 == 0 || step == 2999 {
			postings, docLen := ix.view()
			if !reflect.DeepEqual(postings, ref.postings) || !reflect.DeepEqual(docLen, ref.docLen) {
				t.Fatalf("step %d: postings or document lengths differ from the full scan", step)
			}
			checkNumbers(t, ix)
		}
	}
}

// Documents that leave the index and come back, many times over, reuse
// the numbers freed, so the number table stays as large as the most
// documents held at once; and Search, with one query term and with
// several, returns the reference's scores bit for bit.
func TestNumberReuseSearchMatchesReference(t *testing.T) {
	const vocab, held = 150, 40
	dict := NewDictionary()
	for i := 0; i < vocab; i++ {
		dict.ID(fmt.Sprintf("term%03d", i))
	}
	rng := rand.New(rand.NewSource(5))
	ix, ref := NewInvertedIndex(dict), newFullScanIndex()
	most := 0
	for step := 0; step < 4000; step++ {
		id := core.ObjectID(1 + rng.Intn(2*held))
		if len(ref.docLen) >= held || rng.Intn(3) == 0 {
			ix.Remove(id) // leave the segment
			ref.remove(id)
		} else {
			counts := randomCounts(rng, vocab, 1+rng.Intn(40)) // come back, with new content
			ix.IndexCounts(id, counts)
			ref.index(id, counts)
		}
		most = max(most, len(ref.docLen))
		if step%20 != 0 {
			continue
		}
		var terms []string
		for k := 1 + rng.Intn(4); k > 0; k-- {
			terms = append(terms, dict.Term(TermID(rng.Intn(vocab))))
		}
		for _, q := range [][]string{terms[:1], terms} {
			got, want := SelectTop(ix.AppendSearch(nil, q), -1), ref.search(dict, q, -1)
			if len(got) != len(want) {
				t.Fatalf("step %d: %v finds %d documents, reference %d", step, q, len(got), len(want))
			}
			for i := range got {
				if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("step %d: %v ranks %v at %d, reference %v", step, q, got[i], i, want[i])
				}
			}
		}
	}
	checkNumbers(t, ix)
	if len(ix.docs) > most {
		t.Errorf("%d document numbers for at most %d documents held at once", len(ix.docs), most)
	}
}

// A term frequency past 32 bits is kept as math.MaxUint32; the document
// length keeps the whole count.
func TestPostingTFSaturates(t *testing.T) {
	ix := NewInvertedIndex(nil)
	const big = 1<<32 + 9 // a count past 32 bits
	ix.IndexCounts(7, []TermCount{{ID: 3, N: big}, {ID: 4, N: 2}})
	postings, docLen := ix.view()
	if got := postings[3]; len(got) != 1 || got[0].TF != math.MaxUint32 {
		t.Errorf("postings of term 3 = %v, want TF %d", got, uint32(math.MaxUint32))
	}
	if got := postings[4]; len(got) != 1 || got[0].TF != 2 {
		t.Errorf("postings of term 4 = %v, want TF 2", got)
	}
	if docLen[7] != big+2 {
		t.Errorf("document length %d, want %d", docLen[7], big+2)
	}
}

// IndexVector keeps the vector's ID slice as the document's terms when it
// lists the counts' IDs, and a copy of its own when it does not.
func TestIndexVectorSharesTermIDs(t *testing.T) {
	c := NewCorpus()
	title, body := c.Dict().Counts("Kyoto station"), c.Dict().Counts("night bus from kyoto to the warehouse")
	counts := MergeCounts(title, body)
	v := c.WeightedVectorCounts(title, body, 3)
	other := c.Vectorize("night bus")
	ix := NewInvertedIndex(c.Dict())
	ix.IndexVector(1, counts, v)
	ix.IndexVector(2, counts, other)
	terms := func(id core.ObjectID) []TermID { return ix.docs[ix.nums[id]].terms }
	if got := terms(1); len(got) != len(counts) || &got[0] != &v.ids[0] {
		t.Errorf("document 1 keeps its own terms %v, want the vector's", got)
	}
	if got := terms(2); &got[0] == &other.ids[0] || len(got) != len(counts) {
		t.Errorf("document 2 keeps %v, want a copy of the counts' %d IDs", got, len(counts))
	}
	for i, tc := range counts {
		if terms(2)[i] != tc.ID {
			t.Fatalf("document 2's terms %v, want the counts' %v", terms(2), counts)
		}
	}
	if got := docsWith(ix, "kyoto"); !reflect.DeepEqual(got, []core.ObjectID{1, 2}) {
		t.Errorf("docsWith(kyoto) = %v", got)
	}
}

// BenchmarkReindex re-indexes one 300-term document in an index of 1 k and
// of 16 k documents over a 4,100-term vocabulary: the cost stays that of
// the document's own terms as the index grows.
func BenchmarkReindex(b *testing.B) {
	for _, docs := range []int{1000, 16000} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ix := NewInvertedIndex(nil)
			for i := 0; i < docs; i++ {
				ix.IndexCounts(core.ObjectID(i), randomCounts(rng, 4100, 340))
			}
			pages := make([][]TermCount, 16)
			for i := range pages {
				pages[i] = randomCounts(rng, 4100, 340)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.IndexCounts(core.ObjectID(i%docs), pages[i%len(pages)])
			}
		})
	}
}
