// Package topic implements the Topic Manager and Topic Sensor of §3.
//
// The Topic Manager maintains "words and phrases with weights showing the
// importance", learned from the content of objects weighted by their
// priorities, plus co-occurrence relationships between terms. The Topic
// Sensor polls news feeds for bursting terms — "popular topics which have
// concentration of usage for rather short period" — and feeds those bursts
// back into the manager so that admission-time priorities and prefetching
// can anticipate the coming request wave.
package topic

import (
	"math"
	"sort"
	"sync"

	"cbfww/internal/core"
	"cbfww/internal/text"
)

// WeightedTerm is a term with an importance weight.
type WeightedTerm struct {
	Term   string
	Weight float64
}

// Manager holds the evolving term-importance model. Safe for concurrent
// use.
type Manager struct {
	mu   sync.RWMutex
	dict *text.Dictionary
	// weights[id] is the importance of term id, accumulated from
	// prioritized content and sensor bursts, decayed over time; zero for a
	// term never weighted. TermID-indexed, up to the largest term weighted,
	// so Heat reads a page's terms by index.
	weights []float64
	// norm2 is the squared Euclidean norm of weights, maintained
	// incrementally so Heat never has to scan the whole model.
	norm2 float64
	// cooc counts weighted co-occurrence between term pairs; kept sparse
	// and pruned. Key is the lower TermID; value maps the higher TermID to
	// accumulated weight.
	cooc map[text.TermID]map[text.TermID]float64
}

// NewManager returns an empty manager sharing the given dictionary (so
// TermIDs agree with the corpus); nil gets a private dictionary.
func NewManager(dict *text.Dictionary) *Manager {
	if dict == nil {
		dict = text.NewDictionary()
	}
	return &Manager{
		dict: dict,
		cooc: make(map[text.TermID]map[text.TermID]float64),
	}
}

// bump adds d to one term's weight and keeps norm2 in sync:
// (w+d)² − w² = d·(2w + d).
func (m *Manager) bump(id text.TermID, d float64) {
	if int(id) >= len(m.weights) {
		m.weights = append(m.weights, make([]float64, int(id)+1-len(m.weights))...)
	}
	old := m.weights[id]
	m.weights[id] = old + d
	m.norm2 += d * (2*old + d)
}

// Learn folds a document vector into the term-importance model, weighted
// by the document's priority ("By analyzing contents with priorities we
// can get words and phrases with weights showing the importance").
// Co-occurrence between the document's top terms is also recorded.
func (m *Manager) Learn(vec text.Vector, priority core.Priority) {
	if priority < 0 {
		priority = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vec.ForEach(func(id text.TermID, w float64) {
		m.bump(id, float64(priority)*w)
	})
	top := vec.Top(8)
	ws := make([]float64, len(top))
	for i, id := range top {
		ws[i] = vec.Get(id)
	}
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			a, b := top[i], top[j]
			if a > b {
				a, b = b, a
			}
			if m.cooc[a] == nil {
				m.cooc[a] = make(map[text.TermID]float64)
			}
			m.cooc[a][b] += float64(priority) * ws[i] * ws[j]
		}
	}
}

// BoostTerm raises a single term's weight directly — the path the Topic
// Sensor uses for burst terms.
func (m *Manager) BoostTerm(term string, w float64) {
	terms := text.Terms(term)
	if len(terms) == 0 || w <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range terms {
		m.bump(m.dict.ID(t), w)
	}
}

// Heat scores how hot a document vector is under the current topic
// weights: the dot product with the (unit-normalized) weight vector, in
// [0, 1] for unit document vectors. A zero model scores everything 0. The
// products are added in the vector's TermID order; a term the model never
// weighted adds nothing.
func (m *Manager) Heat(vec text.Vector) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.norm2 <= 0 {
		return 0
	}
	var dot float64
	vec.ForEach(func(id text.TermID, w float64) {
		if int(id) < len(m.weights) {
			dot += w * m.weights[id]
		}
	})
	return dot / math.Sqrt(m.norm2)
}

// Decay multiplies all weights by factor in (0,1], zeroing negligible
// ones. Hot topics have short lifetimes (§4.4); the warehouse calls Decay
// on a fixed cadence.
func (m *Manager) Decay(factor float64) {
	if factor <= 0 || factor > 1 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.norm2 = 0
	for id, w := range m.weights {
		if w *= factor; math.Abs(w) < 1e-9 {
			w = 0
		}
		m.weights[id] = w
		m.norm2 += w * w
	}
	for a, row := range m.cooc {
		for b := range row {
			row[b] *= factor
			if row[b] < 1e-9 {
				delete(row, b)
			}
		}
		if len(row) == 0 {
			delete(m.cooc, a)
		}
	}
}

// HotTerms returns the n most important terms of nonzero weight.
func (m *Manager) HotTerms(n int) []WeightedTerm {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b := make(text.Builder)
	for id, w := range m.weights {
		if w != 0 {
			b[text.TermID(id)] = w
		}
	}
	ids := b.Top(n)
	out := make([]WeightedTerm, len(ids))
	for i, id := range ids {
		out[i] = WeightedTerm{Term: m.dict.Term(id), Weight: m.weights[id]}
	}
	return out
}

// Related returns up to n terms that co-occur most strongly with term
// ("Relationships between topics can also be computed using coexistence
// relationship").
func (m *Manager) Related(term string, n int) []WeightedTerm {
	terms := text.Terms(term)
	if len(terms) == 0 {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.dict.Lookup(terms[0])
	if !ok {
		return nil
	}
	acc := make(map[text.TermID]float64)
	for b, w := range m.cooc[id] {
		acc[b] += w
	}
	for a, row := range m.cooc {
		if w, ok := row[id]; ok {
			acc[a] += w
		}
	}
	out := make([]WeightedTerm, 0, len(acc))
	for tid, w := range acc {
		out = append(out, WeightedTerm{Term: m.dict.Term(tid), Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Term < out[j].Term
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// ExpandQuery appends the strongest related term of each query term —
// §3(1): "A query given by a user is modified by the contents of Topic
// Manager". The original query text always survives unchanged at the
// front.
func (m *Manager) ExpandQuery(query string, perTerm int) string {
	out := query
	seen := map[string]bool{}
	for _, t := range text.Terms(query) {
		seen[t] = true
	}
	for _, t := range text.Terms(query) {
		for _, rel := range m.Related(t, perTerm) {
			if !seen[rel.Term] {
				seen[rel.Term] = true
				out += " " + rel.Term
			}
		}
	}
	return out
}
