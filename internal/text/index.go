package text

import (
	"math"
	"slices"
	"sync"

	"cbfww/internal/core"
)

// posting is one entry in a posting list: a document, by its number in
// the index, and the term's frequency in it. Eight bytes: tf saturates at
// math.MaxUint32, a term written four billion times in one document.
type posting struct {
	doc uint32
	tf  uint32
}

// document is what an index keeps per document number: the document's
// ObjectID, its length (total term count) and the terms it has a posting
// under. A free number holds the zero document.
type document struct {
	id     core.ObjectID
	length int
	terms  []TermID // ascending; never written in place, so it may be a vector's
}

// InvertedIndex maps terms to posting lists over warehouse objects: the
// warehouse's full-text index and the per-level "hierarchy of indices" of
// §4.1, ranked by Search. The index supports removal so objects evicted
// from a tier's detailed index can be dropped. Safe for concurrent use.
//
// Documents are numbered densely per index, and a removed document's
// number is reused first, so an index that documents leave and re-enter
// (a hot segment under memory-tier churn) keeps as many numbers as it
// ever held documents at once, fewer than 2^32. lists is indexed by
// TermID up to the largest term indexed: a slice header, 24 B, per
// dictionary term.
type InvertedIndex struct {
	mu    sync.RWMutex
	dict  *Dictionary
	lists [][]posting // lists[t] is term t's postings
	docs  []document  // docs[n] is document number n
	nums  map[core.ObjectID]uint32
	free  []uint32 // numbers of removed documents
}

// NewInvertedIndex returns an empty index sharing the given dictionary; a
// nil dictionary gets a fresh private one. Sharing the corpus dictionary
// keeps TermIDs consistent between vectors and postings.
func NewInvertedIndex(dict *Dictionary) *InvertedIndex {
	if dict == nil {
		dict = NewDictionary()
	}
	return &InvertedIndex{dict: dict, nums: make(map[core.ObjectID]uint32)}
}

// Index adds a document's content under id, replacing any previous content
// for the same id.
func (ix *InvertedIndex) Index(id core.ObjectID, content string) {
	ix.IndexCounts(id, ix.dict.Counts(content))
}

// IndexCounts is Index for counts resolved in the index's dictionary:
// under the index lock it only appends postings. The index keeps its own
// copy of the counts' term IDs.
func (ix *InvertedIndex) IndexCounts(id core.ObjectID, counts []TermCount) {
	terms := make([]TermID, len(counts))
	for i, tc := range counts {
		terms[i] = tc.ID
	}
	ix.index(id, counts, terms)
}

// IndexVector is IndexCounts for a page whose vector v was made from
// counts. Every counted term gets a positive weight, so v's term IDs are
// the counts' IDs, and the index keeps v's immutable ID slice as the
// document's terms instead of a copy: the page's term IDs are stored
// once. Should v's terms differ from the counts', it copies.
func (ix *InvertedIndex) IndexVector(id core.ObjectID, counts []TermCount, v Vector) {
	if !slices.EqualFunc(v.ids, counts, func(t TermID, tc TermCount) bool { return t == tc.ID }) {
		ix.IndexCounts(id, counts)
		return
	}
	ix.index(id, counts, v.ids)
}

// index posts counts under id, whose terms lists the counts' IDs in order.
func (ix *InvertedIndex) index(id core.ObjectID, counts []TermCount, terms []TermID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n, ok := ix.nums[id]
	if ok {
		ix.unpostLocked(n)
	} else {
		n = ix.numberLocked(id)
	}
	total := 0
	for _, tc := range counts {
		if int(tc.ID) >= len(ix.lists) {
			need := int(tc.ID) + 1
			ix.lists = slices.Grow(ix.lists, need-len(ix.lists))[:need]
		}
		tf := uint32(min(uint64(tc.N), math.MaxUint32))
		ix.lists[tc.ID] = append(ix.lists[tc.ID], posting{doc: n, tf: tf})
		total += tc.N
	}
	ix.docs[n] = document{id: id, length: total, terms: terms}
}

// numberLocked gives id a document number: the last one freed, or a new one.
func (ix *InvertedIndex) numberLocked(id core.ObjectID) uint32 {
	var n uint32
	if k := len(ix.free); k > 0 {
		n, ix.free = ix.free[k-1], ix.free[:k-1]
	} else {
		n = uint32(len(ix.docs))
		ix.docs = append(ix.docs, document{})
	}
	ix.nums[id] = n
	return n
}

// Remove deletes all postings for id. Removing an unknown id is a no-op.
func (ix *InvertedIndex) Remove(id core.ObjectID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n, ok := ix.nums[id]
	if !ok {
		return
	}
	ix.unpostLocked(n)
	delete(ix.nums, id)
	ix.docs[n] = document{}
	ix.free = append(ix.free, n)
}

// unpostLocked takes document n's one posting out of each of its own
// terms' lists, in place and in order, and walks no other list.
func (ix *InvertedIndex) unpostLocked(n uint32) {
	for _, tid := range ix.docs[n].terms {
		list := ix.lists[tid]
		for i, p := range list {
			if p.doc == n {
				list = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(list) == 0 {
			list = nil // an emptied list frees its array, as a deleted map entry did
		}
		ix.lists[tid] = list
	}
}

// Contains reports whether id is indexed.
func (ix *InvertedIndex) Contains(id core.ObjectID) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.nums[id]
	return ok
}

// NumDocs returns the number of indexed documents.
func (ix *InvertedIndex) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.nums)
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
	numDocs := len(ix.nums)
	if len(terms) == 1 {
		// Single-term fast path: the posting list already holds one entry
		// per document, so scores stream straight out with no map.
		list := ix.listOf(terms[0])
		if len(list) == 0 {
			return dst
		}
		idf := idfFor(numDocs, len(list))
		for _, p := range list {
			d := &ix.docs[p.doc]
			s := float64(p.tf) * idf
			if d.length > 0 {
				s /= float64(d.length)
			}
			dst = append(dst, Score{Doc: d.id, Value: s})
		}
		return dst
	}
	scores := make(map[uint32]float64)
	for _, t := range terms {
		list := ix.listOf(t)
		if len(list) == 0 {
			continue
		}
		idf := idfFor(numDocs, len(list))
		for _, p := range list {
			scores[p.doc] += float64(p.tf) * idf
		}
	}
	for n, s := range scores {
		d := &ix.docs[n]
		if d.length > 0 {
			s /= float64(d.length)
		}
		dst = append(dst, Score{Doc: d.id, Value: s})
	}
	return dst
}

// listOf returns term's posting list, nil for a term the index lacks.
func (ix *InvertedIndex) listOf(term string) []posting {
	tid, ok := ix.dict.Lookup(term)
	if !ok || int(tid) >= len(ix.lists) {
		return nil
	}
	return ix.lists[tid]
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
