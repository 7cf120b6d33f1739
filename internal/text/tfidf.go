package text

import (
	"math"
	"sync"
)

// Corpus accumulates document-frequency statistics and produces TF-IDF
// vectors in the vector space model (§5.1 of the paper). It is an *online*
// corpus: documents are added one at a time as the warehouse admits them,
// and IDF weights reflect everything seen so far. Corpus is safe for
// concurrent use.
type Corpus struct {
	mu      sync.RWMutex
	dict    *Dictionary
	docFreq map[TermID]int // number of docs containing the term
	numDocs int
}

// NewCorpus returns an empty corpus with its own dictionary.
func NewCorpus() *Corpus {
	return &Corpus{
		dict:    NewDictionary(),
		docFreq: make(map[TermID]int),
	}
}

// Dict exposes the corpus dictionary for rendering vectors and for the
// indexes sharing its TermIDs. It only grows, and it locks itself: the
// indexes grow it without holding the corpus lock.
func (c *Corpus) Dict() *Dictionary { return c.dict }

// Add registers a document given as raw text, updating document
// frequencies, and returns its raw term-frequency vector.
func (c *Corpus) Add(content string) Vector {
	counts := c.dict.Counts(content)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.numDocs++
	ids := make([]TermID, len(counts))
	ws := make([]float64, len(counts))
	for i, tc := range counts {
		c.docFreq[tc.ID]++
		ids[i], ws[i] = tc.ID, float64(tc.N)
	}
	return makeVector(ids, ws)
}

// idfLocked returns the smoothed inverse document frequency of id. Must be
// called with at least a read lock held.
func (c *Corpus) idfLocked(id TermID) float64 {
	df := c.docFreq[id]
	// Smoothed IDF: ln((1+N)/(1+df)) + 1. Always positive, defined even for
	// unseen terms, standard in online settings.
	return math.Log(float64(1+c.numDocs)/float64(1+df)) + 1
}

// IDF returns the smoothed inverse document frequency of term; unseen terms
// get the maximum IDF for the current corpus size.
func (c *Corpus) IDF(term string) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.dict.Lookup(term)
	if !ok {
		return math.Log(float64(1+c.numDocs)) + 1
	}
	return c.idfLocked(id)
}

// TFIDF converts a raw term-frequency vector (as returned by Add or built
// by the caller) into a unit-normalized TF-IDF vector. TF is
// log-dampened: 1 + ln(tf).
func (c *Corpus) TFIDF(tf Vector) Vector {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// tf is already id-sorted, so the output can be built in place without
	// a map round trip.
	ids := make([]TermID, 0, tf.Len())
	ws := make([]float64, 0, tf.Len())
	tf.ForEach(func(id TermID, f float64) {
		if f <= 0 {
			return
		}
		ids = append(ids, id)
		ws = append(ws, (1+math.Log(f))*c.idfLocked(id))
	})
	return makeUnit(ids, ws)
}

// VectorizeNew adds content to the corpus and returns its TF-IDF vector in
// one step — the common admission path.
func (c *Corpus) VectorizeNew(content string) Vector {
	return c.TFIDF(c.Add(content))
}

// Vectorize returns the TF-IDF vector of content against the current corpus
// statistics without adding it (used for queries). Terms the corpus has
// never seen are still included, with maximal IDF, so that two queries
// about the same unseen topic remain similar to each other.
func (c *Corpus) Vectorize(content string) Vector {
	return c.vectorizeCounts(c.dict.Counts(content))
}

// vectorizeCounts is Vectorize for ID-sorted counts: no map, no sort.
// While the corpus counts no document every term's IDF is ln(1/1)+1 = 1
// exactly, so it is not looked up: a product with 1 is the weight itself.
func (c *Corpus) vectorizeCounts(counts []TermCount) Vector {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]TermID, len(counts))
	ws := make([]float64, len(counts))
	for i, tc := range counts {
		ids[i], ws[i] = tc.ID, 1+math.Log(float64(tc.N))
		if c.numDocs > 0 {
			ws[i] *= c.idfLocked(tc.ID)
		}
	}
	return makeUnit(ids, ws)
}

// WeightedVector builds the comprehensive feature vector of a logical
// document per §5.3 of the paper:
//
//	v = ω·v_title + v_body
//
// where ω > 1 stresses title terms (anchor texts along the path plus the
// terminal document's title) over body terms. The result is unit-normalized.
func (c *Corpus) WeightedVector(title, body string, omega float64) Vector {
	return c.WeightedVectorCounts(c.dict.Counts(title), c.dict.Counts(body), omega)
}

// WeightedVectorCounts is WeightedVector for counts resolved in the
// corpus's dictionary (admission resolves a page's terms once, outside
// every lock, and feeds the vector and the indexes from the same counts).
func (c *Corpus) WeightedVectorCounts(title, body []TermCount, omega float64) Vector {
	if omega < 1 {
		omega = 1
	}
	vt := c.vectorizeCounts(title)
	v := c.vectorizeCounts(body).AddScaled(vt, omega)
	return makeUnit(v.ids, v.ws) // AddScaled's slices are new: scale them in place
}
