// Package version implements the Version Manager of §3(6): "If there is
// extra capacity, previous contents of web pages can be stored. A user can
// know the data in the past."
//
// The store keeps snapshots per URL ordered by time, supports retrieval
// as-of a timestamp, and bounds per-object history depth (the "extra
// capacity" dial). A store over a body source keeps only each snapshot's
// metadata; the bodies stay wherever the source keeps them.
package version

import (
	"fmt"
	"sort"
	"sync"

	"cbfww/internal/core"
)

// Snapshot is one stored content version.
type Snapshot struct {
	// Version is the origin's version counter.
	Version int
	// Time is when the warehouse captured this content.
	Time core.Time
	// Title and Body are the captured content. A store over a body source
	// keeps no Body; Materialize reads it back.
	Title, Body string
	// Size is the content's storage footprint.
	Size core.Bytes
}

// Bodies is where a store's snapshot bodies live: the warehouse's anchor
// tier, which holds a record of every version it stored.
type Bodies interface {
	// Keep asks the source to keep url's version until Release.
	Keep(url string, version int)
	// Release ends the keeping of a version the store pruned.
	Release(url string, version int)
	// Body reads a kept version's body back, failing with
	// core.ErrNotFound when it is no longer stored.
	Body(url string, version int) (string, error)
}

// Store keeps version histories per URL. Safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	// maxDepth bounds snapshots kept per URL (0 = unlimited — the true
	// capacity-bound-free setting).
	maxDepth  int
	histories map[string][]Snapshot // ascending by (Time, Version)
	bytes     core.Bytes
	// bodies, when set, holds the bodies of the captured versions; nil
	// keeps each snapshot's Body inline. Fixed at construction.
	bodies Bodies
}

// NewStore returns a store keeping up to maxDepth snapshots per URL
// (0 = unlimited), bodies inline.
func NewStore(maxDepth int) *Store {
	return NewStoreOn(maxDepth, nil)
}

// NewStoreOn is NewStore over a body source: a captured version is kept in
// bodies until the store prunes it, and the stored snapshot carries no
// Body.
func NewStoreOn(maxDepth int, bodies Bodies) *Store {
	if maxDepth < 0 {
		maxDepth = 0
	}
	return &Store{maxDepth: maxDepth, histories: make(map[string][]Snapshot), bodies: bodies}
}

// Capture appends a snapshot. Out-of-order captures are sorted in;
// capturing the same version again replaces the stored copy (idempotent
// refresh). Oldest snapshots are dropped beyond maxDepth, and released
// from the body source.
func (s *Store) Capture(url string, snap Snapshot) error {
	if url == "" {
		return fmt.Errorf("version: %w: empty URL", core.ErrInvalid)
	}
	if snap.Version < 1 {
		return fmt.Errorf("version: %w: version %d", core.ErrInvalid, snap.Version)
	}
	if s.bodies != nil {
		s.bodies.Keep(url, snap.Version)
		snap.Body = ""
	}
	s.mu.Lock()
	dropped := s.captureLocked(url, snap)
	s.mu.Unlock()
	for _, v := range dropped {
		s.bodies.Release(url, v)
	}
	return nil
}

// captureLocked stores snap and returns the versions pruned beyond
// maxDepth whose bodies a source keeps. Requires s.mu.
func (s *Store) captureLocked(url string, snap Snapshot) []int {
	h := s.histories[url]
	// Replace same-version capture.
	for i := range h {
		if h[i].Version == snap.Version {
			s.bytes += snap.Size - h[i].Size
			h[i] = snap
			return nil
		}
	}
	h = append(h, snap)
	sort.Slice(h, func(i, j int) bool {
		if h[i].Time != h[j].Time {
			return h[i].Time < h[j].Time
		}
		return h[i].Version < h[j].Version
	})
	s.bytes += snap.Size
	var dropped []int
	if s.maxDepth > 0 && len(h) > s.maxDepth {
		drop := len(h) - s.maxDepth
		for _, old := range h[:drop] {
			s.bytes -= old.Size
			if s.bodies != nil {
				dropped = append(dropped, old.Version)
			}
		}
		h = append([]Snapshot(nil), h[drop:]...)
	}
	s.histories[url] = h
	return dropped
}

// Materialize returns snap with its body: read back from the body source
// for a snapshot of url that carries none, as it is otherwise.
func (s *Store) Materialize(url string, snap Snapshot) (Snapshot, error) {
	if snap.Body != "" || s.bodies == nil {
		return snap, nil
	}
	body, err := s.bodies.Body(url, snap.Version)
	if err != nil {
		return snap, fmt.Errorf("version: materialize %s v%d: %w", url, snap.Version, err)
	}
	snap.Body = body
	return snap, nil
}

// Latest returns the newest snapshot for url.
func (s *Store) Latest(url string) (Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := s.histories[url]
	if len(h) == 0 {
		return Snapshot{}, false
	}
	return h[len(h)-1], true
}

// AsOf returns the snapshot that was current at time t — the newest
// capture with Time <= t.
func (s *Store) AsOf(url string, t core.Time) (Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := s.histories[url]
	i := sort.Search(len(h), func(i int) bool { return h[i].Time > t })
	if i == 0 {
		return Snapshot{}, false
	}
	return h[i-1], true
}

// History returns all snapshots of url in ascending time order.
func (s *Store) History(url string) []Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Snapshot(nil), s.histories[url]...)
}

// Depth returns the number of stored snapshots for url.
func (s *Store) Depth(url string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.histories[url])
}

// Bytes returns total stored content size across all histories.
func (s *Store) Bytes() core.Bytes {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// URLs returns all URLs with history, sorted.
func (s *Store) URLs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.histories))
	for u := range s.histories {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}
