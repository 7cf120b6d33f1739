// Package core holds the small set of types shared by every CBFWW
// subsystem: object identifiers, the simulated clock, storage-size
// quantities and common sentinel errors.
//
// Every algorithm in this repository is driven by a core.Clock rather than
// wall time, so simulations are deterministic and tests can advance time
// explicitly.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ObjectID uniquely identifies an object managed by the warehouse. IDs are
// assigned by an IDAllocator and are never reused within one warehouse
// instance.
type ObjectID uint64

// InvalidID is the zero ObjectID; no live object ever has it.
const InvalidID ObjectID = 0

// String renders the ID in the form used by logs and query results.
func (id ObjectID) String() string { return "obj:" + strconv.FormatUint(uint64(id), 10) }

// Valid reports whether the ID refers to a (potentially) live object.
func (id ObjectID) Valid() bool { return id != InvalidID }

// IDAllocator hands out fresh ObjectIDs. It is safe for concurrent use.
type IDAllocator struct{ last atomic.Uint64 }

// NewIDAllocator returns an allocator whose first ID is 1.
func NewIDAllocator() *IDAllocator { return &IDAllocator{} }

// Next returns a fresh, never-before-returned ObjectID.
func (a *IDAllocator) Next() ObjectID { return ObjectID(a.last.Add(1)) }

// Bump raises the allocator's high-water mark to at least id, so that
// objects restored with persisted IDs never collide with fresh ones.
func (a *IDAllocator) Bump(id ObjectID) {
	for {
		cur := a.last.Load()
		if cur >= uint64(id) || a.last.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}

// Time is a point on the simulation timeline. The unit is abstract "ticks";
// workload generators conventionally use one tick per second so that a
// month-long trace spans ~2.6 million ticks, but nothing in the system
// depends on that convention.
type Time int64

// TimeNever is the sentinel "no such event yet" timestamp. The paper uses
// -infinity for the time of the k-th reference when fewer than k references
// have happened; TimeNever plays that role.
const TimeNever Time = -1 << 62

// Duration is a span between two Times, in ticks.
type Duration int64

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String renders the tick count; TimeNever renders as "never".
func (t Time) String() string {
	if t == TimeNever {
		return "never"
	}
	return "t" + strconv.FormatInt(int64(t), 10)
}

// Clock supplies the current simulation time. Implementations must be safe
// for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() Time
}

// SimClock is a manually advanced Clock for simulations and tests.
type SimClock struct {
	mu  sync.Mutex
	now Time
}

// NewSimClock returns a SimClock starting at the given time.
func NewSimClock(start Time) *SimClock { return &SimClock{now: start} }

// Now returns the current simulated time.
func (c *SimClock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d ticks and returns the new time.
// Advancing by a negative duration panics: simulation time is monotonic.
func (c *SimClock) Advance(d Duration) Time {
	if d < 0 {
		panic("core: SimClock.Advance with negative duration")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Set jumps the clock to exactly t. Moving backwards panics.
func (c *SimClock) Set(t Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.now {
		panic("core: SimClock.Set moving backwards")
	}
	c.now = t
}

// WallClock adapts real time to the Clock interface at one tick per second
// since the epoch captured at construction. It exists for the interactive
// binaries; simulations never use it.
type WallClock struct{ epoch time.Time }

// NewWallClock returns a WallClock whose tick 0 is "now".
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now()} }

// Now returns whole seconds elapsed since the clock was created.
func (c *WallClock) Now() Time { return Time(time.Since(c.epoch) / time.Second) }

// Sleep waits d or until ctx is done, whichever is first: it returns nil
// once d has passed, ctx.Err() if ctx ended first (at once when d is not
// positive). It is the wall-clock wait of retry backoffs and politeness.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Bytes is a storage size. It is signed so that accounting deltas can be
// expressed directly, but live object sizes are always non-negative.
type Bytes int64

// Common size units.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// String renders the size with a binary-unit suffix, e.g. "1.5MB".
func (b Bytes) String() string {
	neg := ""
	v := b
	if v < 0 {
		neg, v = "-", -v
	}
	switch {
	case v >= TB:
		return fmt.Sprintf("%s%.1fTB", neg, float64(v)/float64(TB))
	case v >= GB:
		return fmt.Sprintf("%s%.1fGB", neg, float64(v)/float64(GB))
	case v >= MB:
		return fmt.Sprintf("%s%.1fMB", neg, float64(v)/float64(MB))
	case v >= KB:
		return fmt.Sprintf("%s%.1fKB", neg, float64(v)/float64(KB))
	default:
		return fmt.Sprintf("%s%dB", neg, int64(v))
	}
}

// Priority is the warehouse-wide object priority. Higher is more valuable.
// Priorities are comparable across object kinds; the Priority Manager keeps
// them normalized to [0, 1] for admission-time assignment, but structural
// propagation and topic boosts may push values above 1, which is fine —
// only the order matters for placement.
type Priority float64

// The bounds of admission-time priorities.
const (
	PriorityMin Priority = 0
	PriorityMax Priority = 1
)

// Clamp returns p restricted to [lo, hi].
func (p Priority) Clamp(lo, hi Priority) Priority {
	if p < lo {
		return lo
	}
	if p > hi {
		return hi
	}
	return p
}

// Sentinel errors shared across packages. Subsystems wrap these with
// context via fmt.Errorf("...: %w", err).
var (
	// ErrNotFound reports that the named object, version or key does not
	// exist in the queried structure.
	ErrNotFound = errors.New("not found")
	// ErrExists reports an attempt to create something that already exists.
	ErrExists = errors.New("already exists")
	// ErrInvalid reports a structurally invalid argument (bad ID, negative
	// size, malformed query, ...).
	ErrInvalid = errors.New("invalid argument")
	// ErrConstraint reports that an operation was refused by the Constraint
	// Manager (admission or consistency constraint violated).
	ErrConstraint = errors.New("constraint violated")
	// ErrClosed reports use of a component after Close.
	ErrClosed = errors.New("closed")
	// ErrCorrupt reports stored bytes that fail integrity verification
	// (torn segment frame, CRC mismatch, truncated record).
	ErrCorrupt = errors.New("corrupt data")
)
