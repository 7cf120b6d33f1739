package topic

import (
	"sort"
	"sync"

	"cbfww/internal/core"
	"cbfww/internal/text"
)

// Burst is a term whose frequency in fresh news spikes above its running
// baseline — a hot topic the sensor predicts will drive near-future
// queries.
type Burst struct {
	Term string
	// Score is the burst strength: fresh occurrences relative to the
	// term's baseline rate (higher = more anomalous).
	Score float64
}

// Sensor polls news feeds and detects bursting terms. Safe for concurrent
// use.
type Sensor struct {
	mu    sync.Mutex
	clock core.Clock
	feeds []*NewsFeed
	// baseline is an exponentially aged per-term headline frequency.
	baseline map[string]float64
	// halfLifeWeight is the multiplier applied to baselines at each poll.
	decay float64
	last  core.Time
}

// NewSensor returns a sensor over the given feeds. decay in (0,1) controls
// how fast baselines forget (smaller = faster); 0.9 is a reasonable
// default for hourly polling.
func NewSensor(clock core.Clock, decay float64, feeds ...*NewsFeed) *Sensor {
	if decay <= 0 || decay >= 1 {
		decay = 0.9
	}
	return &Sensor{
		clock:    clock,
		feeds:    feeds,
		baseline: make(map[string]float64),
		decay:    decay,
		last:     core.TimeNever,
	}
}

// AddFeed registers another feed.
func (s *Sensor) AddFeed(f *NewsFeed) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.feeds = append(s.feeds, f)
}

// Poll reads all articles published since the previous poll, updates
// baselines and returns the bursting terms in descending score order.
// Terms never seen before burst maximally (their baseline is empty).
func (s *Sensor) Poll() []Burst {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	fresh := make(map[string]float64)
	for _, f := range s.feeds {
		for _, a := range f.Since(s.last, now) {
			for _, term := range termsOf(a.Headline) {
				fresh[term]++
			}
		}
	}
	s.last = now

	// Score before baselines absorb the fresh counts: score = fresh
	// occurrences divided by (baseline + ½). A term never seen before
	// bursts even on a single mention (score 2); a term whose mention rate
	// matches its baseline scores well under 1 and stays quiet.
	var bursts []Burst
	for term, n := range fresh {
		score := n / (s.baseline[term] + 0.5)
		if score > 1 {
			bursts = append(bursts, Burst{Term: term, Score: score})
		}
	}
	sort.Slice(bursts, func(i, j int) bool {
		if bursts[i].Score != bursts[j].Score {
			return bursts[i].Score > bursts[j].Score
		}
		return bursts[i].Term < bursts[j].Term
	})

	// Age baselines, then absorb the fresh counts.
	for term, b := range s.baseline {
		nb := b * s.decay
		if nb < 1e-9 {
			delete(s.baseline, term)
			continue
		}
		s.baseline[term] = nb
	}
	for term, n := range fresh {
		s.baseline[term] += n
	}
	return bursts
}

// FeedInto polls and pushes every burst into the manager as a term boost
// scaled by gain — the standing wiring between sensor and manager ("They
// can be used for modifying weights of topics managed by Topic Manager").
// It returns the bursts for callers that also want to prefetch.
func (s *Sensor) FeedInto(m *Manager, gain float64) []Burst {
	bursts := s.Poll()
	for _, b := range bursts {
		m.BoostTerm(b.Term, b.Score*gain)
	}
	return bursts
}

// termsOf mirrors text.Terms but is kept separate so the sensor could
// apply news-specific normalization later.
func termsOf(headline string) []string {
	return text.Terms(headline)
}
