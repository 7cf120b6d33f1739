package text

import (
	"fmt"
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

// fullScanIndex is the InvertedIndex's re-index as it was before documents
// kept their terms: a removal filters every posting list.
type fullScanIndex struct {
	postings map[TermID][]Posting
	docLen   map[core.ObjectID]int
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
		f.postings[tc.ID] = append(f.postings[tc.ID], Posting{Doc: id, TF: tc.N})
		total += tc.N
	}
	f.docLen[id] = total
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
	ref := &fullScanIndex{postings: map[TermID][]Posting{}, docLen: map[core.ObjectID]int{}}
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
			if !reflect.DeepEqual(ix.postings, ref.postings) || !reflect.DeepEqual(ix.docLen, ref.docLen) {
				t.Fatalf("step %d: postings or document lengths differ from the full scan", step)
			}
			if len(ix.docTerms) != len(ix.docLen) {
				t.Fatalf("step %d: %d documents keep terms, %d are indexed", step, len(ix.docTerms), len(ix.docLen))
			}
		}
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
