package version

import (
	"fmt"
	"sort"

	"cbfww/internal/text"
)

// Delta describes how content changed between two snapshots, at the term
// level — the granularity the warehouse's indexes and topic model care
// about ("A user can know the data in the past").
type Delta struct {
	FromVersion, ToVersion int
	// Added / Removed are the canonical terms whose counts grew / shrank,
	// sorted. TitleChanged flags a title rewrite.
	Added, Removed []string
	TitleChanged   bool
	// SizeDelta is the byte-size change.
	SizeDelta int64
}

// empty reports whether the delta carries no observable change.
func (d Delta) empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && !d.TitleChanged && d.SizeDelta == 0
}

// String renders the delta compactly: "v1->v2 +3 terms -1 term (+120B)".
func (d Delta) String() string {
	s := fmt.Sprintf("v%d->v%d +%d -%d terms", d.FromVersion, d.ToVersion, len(d.Added), len(d.Removed))
	if d.TitleChanged {
		s += " title-changed"
	}
	if d.SizeDelta != 0 {
		s += fmt.Sprintf(" (%+dB)", d.SizeDelta)
	}
	return s
}

// Diff computes the term-level delta from snapshot a to snapshot b.
func Diff(a, b Snapshot) Delta {
	d := Delta{
		FromVersion:  a.Version,
		ToVersion:    b.Version,
		TitleChanged: a.Title != b.Title,
		SizeDelta:    int64(b.Size - a.Size),
	}
	before := text.TermCounts(a.Title + "\n" + a.Body)
	after := text.TermCounts(b.Title + "\n" + b.Body)
	for term, n := range after {
		if n > before[term] {
			d.Added = append(d.Added, term)
		}
	}
	for term, n := range before {
		if n > after[term] {
			d.Removed = append(d.Removed, term)
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// DiffVersions diffs two stored versions of url; ok is false when either
// version is not stored.
func (s *Store) DiffVersions(url string, fromVersion, toVersion int) (Delta, bool) {
	s.mu.RLock()
	h := s.histories[url]
	var a, b *Snapshot
	for i := range h {
		switch h[i].Version {
		case fromVersion:
			a = &h[i]
		case toVersion:
			b = &h[i]
		}
	}
	s.mu.RUnlock()
	if a == nil || b == nil {
		return Delta{}, false
	}
	ma, errA := s.Materialize(url, *a)
	mb, errB := s.Materialize(url, *b)
	if errA != nil || errB != nil {
		return Delta{}, false
	}
	return Diff(ma, mb), true
}
