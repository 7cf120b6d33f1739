package usage

import (
	"container/list"
	"math"

	"cbfww/internal/core"
)

// SlidingWindow is the exact frequency estimator of §4.2: it counts
// references to each object within a movable interval of fixed length.
// Precise, but it must "keep track of detailed usage information for all
// data about the current window" — O(references in window) memory. The
// estimator is not internally synchronized; its caller serializes access.
type SlidingWindow struct {
	size   core.Duration
	events *list.List // of windowEvent, oldest at front
	counts map[core.ObjectID]int
}

type windowEvent struct {
	id core.ObjectID
	at core.Time
}

// NewSlidingWindow returns a window of the given length in ticks. A
// non-positive size panics: a zero-length window counts nothing and is
// always a configuration bug.
func NewSlidingWindow(size core.Duration) *SlidingWindow {
	if size <= 0 {
		panic("usage: sliding window size must be positive")
	}
	return &SlidingWindow{
		size:   size,
		events: list.New(),
		counts: make(map[core.ObjectID]int),
	}
}

// Record notes a reference to id at time t. Times must be non-decreasing.
func (w *SlidingWindow) Record(id core.ObjectID, t core.Time) {
	w.advance(t)
	w.events.PushBack(windowEvent{id: id, at: t})
	w.counts[id]++
}

// Frequency returns the number of references to id in (now-size, now].
func (w *SlidingWindow) Frequency(id core.ObjectID, now core.Time) int {
	w.advance(now)
	return w.counts[id]
}

// EventCount returns the total number of references currently inside the
// window — the memory cost the paper warns about.
func (w *SlidingWindow) EventCount() int { return w.events.Len() }

// advance expires events older than now-size.
func (w *SlidingWindow) advance(now core.Time) {
	cutoff := now.Add(-core.Duration(w.size))
	for e := w.events.Front(); e != nil; {
		ev := e.Value.(windowEvent)
		if ev.at.After(cutoff) {
			break
		}
		next := e.Next()
		w.events.Remove(e)
		if c := w.counts[ev.id] - 1; c > 0 {
			w.counts[ev.id] = c
		} else {
			delete(w.counts, ev.id)
		}
		e = next
	}
}

// AgingEstimator implements the paper's λ-aging frequency estimate:
//
//	f_{i,j} = λ·f* + (1-λ)·f_{i,j-1}
//
// where f* is the reference count since the last computation and f_{i,j-1}
// the previous estimate. "This method removes the overhead for keeping
// usage information": memory is O(objects), independent of reference rate.
//
// The implementation is lazy: instead of recomputing every object at every
// epoch boundary, each object stores the epoch of its last update and the
// decay (1-λ)^(elapsed epochs) is applied on access. EpochLength converts
// tick time to epochs.
type AgingEstimator struct {
	lambda float64
	// EpochLength is the number of ticks per aging epoch (default 1).
	EpochLength core.Duration
	entries     map[core.ObjectID]*agingEntry
}

type agingEntry struct {
	estimate float64 // f_{i,j-1}: estimate as of epoch
	pending  float64 // f*: references in the current (not yet closed) epoch
	epoch    int64   // epoch of the last update
}

// NewAgingEstimator returns a λ-aging estimator. Lambda must be in (0, 1];
// λ=1 degenerates to "count within the current epoch only".
func NewAgingEstimator(lambda float64) *AgingEstimator {
	if lambda <= 0 || lambda > 1 {
		panic("usage: lambda must be in (0, 1]")
	}
	return &AgingEstimator{
		lambda:      lambda,
		EpochLength: 1,
		entries:     make(map[core.ObjectID]*agingEntry),
	}
}

func (a *AgingEstimator) epochOf(t core.Time) int64 {
	return int64(t) / int64(a.EpochLength)
}

// settle folds completed epochs into the estimate.
func (a *AgingEstimator) settle(e *agingEntry, epoch int64) {
	if epoch <= e.epoch {
		return
	}
	// Close the epoch the pending count belongs to.
	e.estimate = a.lambda*e.pending + (1-a.lambda)*e.estimate
	e.pending = 0
	// Decay across the empty epochs in between: each contributes f* = 0.
	if gap := epoch - e.epoch - 1; gap > 0 {
		e.estimate *= math.Pow(1-a.lambda, float64(gap))
	}
	e.epoch = epoch
}

// Record notes a reference to id at time t.
func (a *AgingEstimator) Record(id core.ObjectID, t core.Time) {
	e := a.entries[id]
	if e == nil {
		e = &agingEntry{epoch: a.epochOf(t)}
		a.entries[id] = e
	}
	a.settle(e, a.epochOf(t))
	e.pending++
}

// Frequency returns the aged frequency estimate of id as of time now. The
// current epoch's pending references are included at full weight, since
// the paper's f* term covers "frequency since last computation".
func (a *AgingEstimator) Frequency(id core.ObjectID, now core.Time) float64 {
	e, ok := a.entries[id]
	if !ok {
		return 0
	}
	epoch := a.epochOf(now)
	if epoch <= e.epoch {
		return a.lambda*e.pending + (1-a.lambda)*e.estimate
	}
	// Compute without mutating so Frequency can run under a read lock.
	// This mirrors settle() followed by the in-epoch formula with an empty
	// pending count: close the entry's epoch, decay across the empty gap,
	// then blend with the (empty) current epoch.
	est := a.lambda*e.pending + (1-a.lambda)*e.estimate
	if gap := epoch - e.epoch - 1; gap > 0 {
		est *= math.Pow(1-a.lambda, float64(gap))
	}
	return (1 - a.lambda) * est
}

// Objects returns the number of tracked objects — the estimator's memory
// footprint in entries.
func (a *AgingEstimator) Objects() int { return len(a.entries) }
