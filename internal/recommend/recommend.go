// Package recommend implements the Recommendation Manager of §3(5).
//
// "High quality contents and useful navigation paths can be obtained from
// usage and content mining, and used for recommendation. Views of relevant
// contents are maintained for each user... Navigation that takes advantage
// of experiences of others is also known as 'Social Navigation'."
//
// Two recommenders live here:
//
//   - Content: per-user interest profiles (aged mean of visited document
//     vectors) ranked against the warehouse's objects by cosine.
//   - Navigation: given the page a user is on, the frequently traversed
//     paths (logical documents) that start there, ranked by support — the
//     guided-navigation trigger of §4.1 ("supporting guided navigation when
//     a reference is detected towards the start point ... of a logical page
//     path").
package recommend

import (
	"sort"
	"sync"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/text"
)

// Suggestion is one content recommendation: an object and its score.
type Suggestion = text.Score

// PathSuggestion is one navigation recommendation.
type PathSuggestion struct {
	// URLs is the suggested continuation, starting with the next hop.
	URLs []string
	// Support is how many traversals the full path has.
	Support int
}

// Manager holds user profiles and the mined path set. Safe for concurrent
// use.
type Manager struct {
	mu sync.RWMutex
	// profileDecay blends old interests with the newest visit; 0.2 means
	// each visit contributes 20% of the new profile.
	profileBlend float64
	profiles     map[string]text.Vector
	visited      map[string]map[core.ObjectID]bool
	paths        []logmine.Path
	// byEntry indexes mined paths by entry URL.
	byEntry map[string][]int
}

// NewManager returns an empty recommender. profileBlend in (0,1] controls
// how fast profiles track new interests; out-of-range values default to
// 0.2.
func NewManager(profileBlend float64) *Manager {
	if profileBlend <= 0 || profileBlend > 1 {
		profileBlend = 0.2
	}
	return &Manager{
		profileBlend: profileBlend,
		profiles:     make(map[string]text.Vector),
		visited:      make(map[string]map[core.ObjectID]bool),
		byEntry:      make(map[string][]int),
	}
}

// ObserveVisit folds a visit into the user's interest profile.
func (m *Manager) ObserveVisit(user string, id core.ObjectID, vec text.Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.profiles[user]
	if !ok {
		m.profiles[user] = vec.Clone()
	} else {
		m.profiles[user] = p.MeanStep(vec, m.profileBlend)
	}
	v := m.visited[user]
	if v == nil {
		v = make(map[core.ObjectID]bool)
		m.visited[user] = v
	}
	v[id] = true
}

// Candidate is an object offered for recommendation, with its vector.
type Candidate struct {
	ID  core.ObjectID
	Vec text.Vector
}

// Recommend ranks the candidates by similarity to the user's profile,
// excluding already-visited objects, and returns the top n (n < 0: all),
// score descending, ID ascending on ties. A user without a profile gets
// nothing (cold start is the Topic Manager's job). The lock is held only to
// read the profile and drop what the user has seen; the scoring runs with
// no lock held, so the visits it would stall go on.
func (m *Manager) Recommend(user string, candidates []Candidate, n int) []Suggestion {
	m.mu.RLock()
	profile, ok := m.profiles[user]
	if !ok {
		m.mu.RUnlock()
		return nil
	}
	seen, unseen := m.visited[user], make([]int, 0, len(candidates))
	for i, c := range candidates {
		if !seen[c.ID] {
			unseen = append(unseen, i)
		}
	}
	m.mu.RUnlock()
	sc := profile.Scorer()
	defer sc.Release()
	out := make([]Suggestion, 0, len(unseen))
	for _, i := range unseen {
		if s := sc.Cosine(candidates[i].Vec); s > 0 {
			out = append(out, Suggestion{Doc: candidates[i].ID, Value: s})
		}
	}
	return text.SelectTop(out, n)
}

// SetPaths replaces the mined path set used for navigation suggestions.
func (m *Manager) SetPaths(paths []logmine.Path) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.paths = append([]logmine.Path(nil), paths...)
	m.byEntry = make(map[string][]int)
	for i, p := range m.paths {
		m.byEntry[p.Entry()] = append(m.byEntry[p.Entry()], i)
	}
}

// NextHops suggests continuations for a user standing on url: the mined
// paths entering at url, ranked by support, each trimmed to the hops after
// url.
func (m *Manager) NextHops(url string, n int) []PathSuggestion {
	m.mu.RLock()
	defer m.mu.RUnlock()
	idxs := m.byEntry[url]
	out := make([]PathSuggestion, 0, len(idxs))
	for _, i := range idxs {
		p := m.paths[i]
		if len(p.URLs) < 2 {
			continue
		}
		out = append(out, PathSuggestion{
			URLs:    append([]string(nil), p.URLs[1:]...),
			Support: p.Support,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return len(out[i].URLs) > len(out[j].URLs)
	})
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}
