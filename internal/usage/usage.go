// Package usage maintains the per-object history of past use that every
// CBFWW priority decision feeds on. Table 2 of the paper defines the
// attribute set:
//
//	frequency f_i   — frequency of references
//	firstref  t_i   — time of first reference
//	lastkref  t_i^k — time of the last k'th reference
//	lastkmod  u_i^k — time of the last k'th modification
//	shared    r     — number of containers sharing the object
//
// Two frequency estimators are provided, matching §4.2: an exact sliding
// window (precise, O(window) memory) and λ-aging (constant memory,
// exponentially weighted). E-X1 in EXPERIMENTS.md benchmarks the trade-off.
// The Tracker keeps λ-aging alone, as the paper chooses; the window is the
// lab's exact reference.
package usage

import (
	"fmt"
	"sync"

	"cbfww/internal/core"
)

// History records the usage attributes of a single object. The zero value
// is not ready for use; call NewHistory. History methods are not
// individually synchronized; the Tracker serializes access.
type History struct {
	id core.ObjectID

	// firstref is the time of the first reference; modifications never
	// change it (paper: "Modifications do not change the t_i").
	firstref core.Time

	// refs is a ring of the last K reference times, newest first. refs[k-1]
	// is the time of the last k-th reference.
	refs []core.Time

	// mods is a ring of the last K modification times, newest first.
	mods []core.Time

	// count is the total number of references ever.
	count uint64

	// shared is the number of containers (physical/logical pages) that
	// include this object.
	shared int
}

// HistoryDepth is the number of recent reference/modification times kept
// (the maximum k for lastkref/lastkmod).
const HistoryDepth = 8

// NewHistory returns a fresh history for id with no recorded events.
func NewHistory(id core.ObjectID) *History {
	return &History{
		id:       id,
		firstref: core.TimeNever,
	}
}

// Touch records a reference at time t.
func (h *History) Touch(t core.Time) {
	if h.firstref == core.TimeNever {
		h.firstref = t
	}
	h.count++
	h.refs = pushRecent(h.refs, t)
}

// Modify records a modification (content update) at time t.
func (h *History) Modify(t core.Time) {
	h.mods = pushRecent(h.mods, t)
}

// pushRecent prepends t, keeping at most HistoryDepth entries.
func pushRecent(ring []core.Time, t core.Time) []core.Time {
	if len(ring) < HistoryDepth {
		ring = append(ring, 0)
	}
	copy(ring[1:], ring)
	ring[0] = t
	return ring
}

// LastKRef returns t_i^k, the time of the last k-th reference. Per the
// paper, if the object has not been referenced at least k times the result
// is -infinity (TimeNever). k = 1 is the LRU "time since last reference"
// attribute. k must be in [1, HistoryDepth].
func (h *History) LastKRef(k int) core.Time {
	if k < 1 || k > HistoryDepth {
		panic(fmt.Sprintf("usage: LastKRef(%d) out of range [1,%d]", k, HistoryDepth))
	}
	if k > len(h.refs) {
		return core.TimeNever
	}
	return h.refs[k-1]
}

// LastKMod returns u_i^k, the time of the last k-th modification, or
// TimeNever when fewer than k modifications have occurred.
func (h *History) LastKMod(k int) core.Time {
	if k < 1 || k > HistoryDepth {
		panic(fmt.Sprintf("usage: LastKMod(%d) out of range [1,%d]", k, HistoryDepth))
	}
	if k > len(h.mods) {
		return core.TimeNever
	}
	return h.mods[k-1]
}

// SetShared records the current container count. Negative counts are
// clamped to zero.
func (h *History) SetShared(r int) {
	if r < 0 {
		r = 0
	}
	h.shared = r
}

// Snapshot is an immutable copy of the Table 2 attributes, safe to hand out
// of the Tracker's lock.
type Snapshot struct {
	ID       core.ObjectID
	Count    uint64
	FirstRef core.Time
	LastRef  core.Time // LastKRef(1)
	LastMod  core.Time // LastKMod(1)
	Shared   int
}

// Snapshot copies the current attribute values.
func (h *History) Snapshot() Snapshot {
	return Snapshot{
		ID:       h.id,
		Count:    h.count,
		FirstRef: h.firstref,
		LastRef:  h.LastKRef(1),
		LastMod:  h.LastKMod(1),
		Shared:   h.shared,
	}
}

// Tracker owns the histories of all objects and their λ-aged frequency:
// O(objects) memory, whatever the reference rate. It is safe for
// concurrent use.
type Tracker struct {
	mu        sync.RWMutex
	clock     core.Clock
	histories map[core.ObjectID]*History
	aging     *AgingEstimator
}

// NewTracker returns a Tracker using the given clock and λ-aging with the
// given lambda.
func NewTracker(clock core.Clock, lambda float64) *Tracker {
	return &Tracker{
		clock:     clock,
		histories: make(map[core.ObjectID]*History),
		aging:     NewAgingEstimator(lambda),
	}
}

// SetAgingEpoch sets the λ-aging epoch length in ticks (default 1). Call
// before recording references; a warehouse at one tick per second
// typically ages hourly.
func (t *Tracker) SetAgingEpoch(d core.Duration) {
	if d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aging.EpochLength = d
}

// Touch records a reference to id at the clock's current time and returns
// the updated snapshot.
func (t *Tracker) Touch(id core.ObjectID) Snapshot {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.histories[id]
	if h == nil {
		h = NewHistory(id)
		t.histories[id] = h
	}
	h.Touch(now)
	t.aging.Record(id, now)
	return h.Snapshot()
}

// Modify records a content modification to id at the current time.
func (t *Tracker) Modify(id core.ObjectID) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.histories[id]
	if h == nil {
		h = NewHistory(id)
		t.histories[id] = h
	}
	h.Modify(now)
}

// SetShared records the container count of id.
func (t *Tracker) SetShared(id core.ObjectID, r int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.histories[id]
	if h == nil {
		h = NewHistory(id)
		t.histories[id] = h
	}
	h.SetShared(r)
}

// Get returns the snapshot for id and whether any history exists.
func (t *Tracker) Get(id core.ObjectID) (Snapshot, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h, ok := t.histories[id]
	if !ok {
		return Snapshot{}, false
	}
	return h.Snapshot(), true
}

// LastKRef exposes the full-depth attribute for query processing; ok is
// false when the object has no history at all.
func (t *Tracker) LastKRef(id core.ObjectID, k int) (core.Time, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h, ok := t.histories[id]
	if !ok {
		return core.TimeNever, false
	}
	return h.LastKRef(k), true
}

// AgedFrequency returns the λ-aged frequency estimate of id as of now.
func (t *Tracker) AgedFrequency(id core.ObjectID) float64 {
	now := t.clock.Now()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.aging.Frequency(id, now)
}
