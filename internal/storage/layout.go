package storage

import (
	"errors"
	"fmt"
	"sort"

	"cbfww/internal/core"
)

// §4.4, locality of reference: "Related objects are stored in adjacent
// areas of storage (disks, tapes) so that they can be retrieved together
// efficiently. ... web data once in hot spot may be retrieved together for
// analysis purpose. Such data are clustered in the tertiary storage."
//
// The manager models tertiary storage — the anchor, the last row of the
// tier table whatever its name — as a linear medium: every object with an
// anchor copy has a position, and a multi-object retrieval pays a
// seek whenever consecutive accesses are not physically adjacent. The
// vacuum-cleaner sweep can lay related objects out together so an
// analysis run over a past hot spot costs one seek instead of hundreds.

// LayoutTertiary assigns tertiary positions following the given order:
// listed objects first (in order), then every other tertiary resident in
// ascending ID order. Objects without a tertiary copy are ignored in the
// listing but get positions once a Backup lands them. Unknown IDs are
// skipped, so that one object gone does not hold up the others' layout,
// and each is named in the error returned, which wraps core.ErrNotFound.
func (m *Manager) LayoutTertiary(order []core.ObjectID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[core.ObjectID]bool, len(order))
	var errs []error
	pos := 0
	for _, id := range order {
		o, ok := m.objects[id]
		if !ok {
			errs = append(errs, fmt.Errorf("storage: layout: %v: %w", id, core.ErrNotFound))
			continue
		}
		if seen[id] {
			return fmt.Errorf("storage: layout: %v listed twice: %w", id, core.ErrInvalid)
		}
		seen[id] = true
		if o.copies[m.last()].present {
			o.tertiaryPos = pos
			pos++
		}
	}
	rest := make([]core.ObjectID, 0, len(m.objects))
	for id, o := range m.objects {
		if !seen[id] && o.copies[m.last()].present {
			rest = append(rest, id)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, id := range rest {
		m.objects[id].tertiaryPos = pos
		pos++
	}
	return errors.Join(errs...)
}

// TertiaryPosition returns the object's position on the tertiary medium;
// ok is false when it has no tertiary copy.
func (m *Manager) TertiaryPosition(id core.ObjectID) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.objects[id]
	if !ok || !o.copies[m.last()].present {
		return 0, false
	}
	return o.tertiaryPos, true
}

// RunCost models retrieving the given objects from tertiary storage in
// order: each object costs the anchor's latency to transfer, plus seekCost
// whenever it is not physically adjacent to (directly after) the previous
// one. Objects without tertiary copies are an error — the analysis
// workload this models reads archived data.
func (m *Manager) RunCost(ids []core.ObjectID, seekCost core.Duration) (core.Duration, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var cost core.Duration
	prev := -2 // forces a seek on the first access
	for _, id := range ids {
		o, ok := m.objects[id]
		if !ok || !o.copies[m.last()].present {
			return 0, fmt.Errorf("storage: run cost: %v not on tertiary: %w", id, core.ErrNotFound)
		}
		if o.tertiaryPos != prev+1 {
			cost += seekCost
		}
		cost += m.latency(m.last())
		prev = o.tertiaryPos
	}
	return cost, nil
}
