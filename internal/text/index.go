package text

import (
	"math"
	"sync"

	"cbfww/internal/core"
)

// Posting is one entry in an inverted-index posting list: a document that
// contains the term, with its term frequency.
type Posting struct {
	Doc core.ObjectID
	TF  int
}

// InvertedIndex maps terms to posting lists over warehouse objects: the
// warehouse's full-text index and the per-level "hierarchy of indices" of
// §4.1, ranked by Search. The index supports removal so objects evicted
// from a tier's detailed index can be dropped. Safe for concurrent use.
type InvertedIndex struct {
	mu       sync.RWMutex
	dict     *Dictionary
	postings map[TermID][]Posting
	docLen   map[core.ObjectID]int      // total term count per doc
	docTerms map[core.ObjectID][]TermID // the terms each doc has a posting under
}

// NewInvertedIndex returns an empty index sharing the given dictionary; a
// nil dictionary gets a fresh private one. Sharing the corpus dictionary
// keeps TermIDs consistent between vectors and postings.
func NewInvertedIndex(dict *Dictionary) *InvertedIndex {
	if dict == nil {
		dict = NewDictionary()
	}
	return &InvertedIndex{
		dict:     dict,
		postings: make(map[TermID][]Posting),
		docLen:   make(map[core.ObjectID]int),
		docTerms: make(map[core.ObjectID][]TermID),
	}
}

// Index adds a document's content under id, replacing any previous content
// for the same id.
func (ix *InvertedIndex) Index(id core.ObjectID, content string) {
	ix.IndexCounts(id, ix.dict.Counts(content))
}

// IndexCounts is Index for counts resolved in the index's dictionary:
// under the index lock it only appends postings.
func (ix *InvertedIndex) IndexCounts(id core.ObjectID, counts []TermCount) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docLen[id]; ok {
		ix.removeLocked(id)
	}
	total := 0
	terms := make([]TermID, len(counts))
	for i, tc := range counts {
		ix.postings[tc.ID] = append(ix.postings[tc.ID], Posting{Doc: id, TF: tc.N})
		total += tc.N
		terms[i] = tc.ID
	}
	ix.docLen[id] = total
	ix.docTerms[id] = terms
}

// Remove deletes all postings for id. Removing an unknown id is a no-op.
func (ix *InvertedIndex) Remove(id core.ObjectID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
}

// removeLocked takes id's one posting out of each of its own terms' lists,
// in place and in order, and walks no other list.
func (ix *InvertedIndex) removeLocked(id core.ObjectID) {
	if _, ok := ix.docLen[id]; !ok {
		return
	}
	delete(ix.docLen, id)
	for _, tid := range ix.docTerms[id] {
		out := ix.postings[tid]
		for i, p := range out {
			if p.Doc == id {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
		if len(out) == 0 {
			delete(ix.postings, tid)
		} else {
			ix.postings[tid] = out
		}
	}
	delete(ix.docTerms, id)
}

// Contains reports whether id is indexed.
func (ix *InvertedIndex) Contains(id core.ObjectID) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.docLen[id]
	return ok
}

// NumDocs returns the number of indexed documents.
func (ix *InvertedIndex) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docLen)
}

// Score ranks indexed documents by TF-IDF-weighted match against the query
// string and returns up to n (id, score) pairs in descending score order.
type Score struct {
	Doc   core.ObjectID
	Value float64
}

// Search performs ranked retrieval: documents are scored by the sum over
// query terms of tf·idf, normalized by document length.
func (ix *InvertedIndex) Search(query string, n int) []Score {
	terms := Terms(query)
	if len(terms) == 0 {
		return nil
	}
	return SelectTop(ix.AppendSearch(nil, terms), n)
}

// AppendSearch scores the pre-canonicalized terms against the index and
// appends one Score per matching document to dst, unranked. Callers
// probing several index segments (the sharded hot index) parse the query
// once, stream every segment's matches into one buffer, and rank the
// union with SelectTop — instead of paying a parse, an accumulator and a
// result slice per segment.
func (ix *InvertedIndex) AppendSearch(dst []Score, terms []string) []Score {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	numDocs := len(ix.docLen)
	if len(terms) == 1 {
		// Single-term fast path: the posting list already holds one entry
		// per document, so scores stream straight out with no map.
		tid, ok := ix.dict.Lookup(terms[0])
		if !ok {
			return dst
		}
		list := ix.postings[tid]
		if len(list) == 0 {
			return dst
		}
		idf := idfFor(numDocs, len(list))
		for _, p := range list {
			s := float64(p.TF) * idf
			if l := ix.docLen[p.Doc]; l > 0 {
				s /= float64(l)
			}
			dst = append(dst, Score{Doc: p.Doc, Value: s})
		}
		return dst
	}
	scores := make(map[core.ObjectID]float64)
	for _, t := range terms {
		tid, ok := ix.dict.Lookup(t)
		if !ok {
			continue
		}
		list := ix.postings[tid]
		if len(list) == 0 {
			continue
		}
		idf := idfFor(numDocs, len(list))
		for _, p := range list {
			scores[p.Doc] += float64(p.TF) * idf
		}
	}
	for id, s := range scores {
		if l := ix.docLen[id]; l > 0 {
			s /= float64(l)
		}
		dst = append(dst, Score{Doc: id, Value: s})
	}
	return dst
}

// SelectTop keeps the n best scores (Value descending, Doc ascending on
// ties) of s, in that order, selecting in place with a bounded min-heap —
// O(len·log n) instead of the O(len·log len) full sort — and returns the
// truncated slice. n < 0 means all. The tail of s beyond the result is left
// in unspecified order.
func SelectTop(s []Score, n int) []Score {
	if n == 0 {
		return s[:0]
	}
	if n < 0 || n >= len(s) {
		sortScores(s)
		return s
	}
	// Min-heap over the first n entries: the worst kept score sits at the
	// root, and every remaining entry either displaces it or is skipped.
	h := s[:n]
	for i := n/2 - 1; i >= 0; i-- {
		scoreSiftDown(h, i)
	}
	for i := n; i < len(s); i++ {
		if scoreBetter(s[i], h[0]) {
			h[0] = s[i]
			scoreSiftDown(h, 0)
		}
	}
	sortScores(h)
	return h
}

// sortScores orders s best-first by heapsort — allocation-free, unlike
// sort.Slice, whose reflective closure shows up on the tiered-search hot
// path. The comparator is a total order (ties break on Doc), so the
// result is deterministic despite heapsort's instability.
func sortScores(s []Score) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		scoreSiftDown(s, i)
	}
	// Popping the min-heap's root (the worst score) to the shrinking tail
	// leaves the slice best-first.
	for end := len(s) - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		scoreSiftDown(s[:end], 0)
	}
}

// scoreBetter reports whether a ranks above b.
func scoreBetter(a, b Score) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Doc < b.Doc
}

// scoreSiftDown restores the min-heap property (worst score at the root)
// below index i.
func scoreSiftDown(h []Score, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && scoreBetter(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && scoreBetter(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// idfFor is ln((1+N)/(1+df)) floored at 0 so extremely common terms don't
// get negative weight.
func idfFor(numDocs, df int) float64 {
	if df == 0 {
		return 0
	}
	x := float64(1+numDocs) / float64(1+df)
	if x <= 1 {
		return 0
	}
	return math.Log(x)
}
