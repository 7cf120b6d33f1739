// Package version implements the Version Manager of §3(6): "If there is
// extra capacity, previous contents of web pages can be stored. A user can
// know the data in the past."
//
// The store keeps full snapshots per URL ordered by time, supports
// retrieval as-of a timestamp, and bounds per-object history depth (the
// "extra capacity" dial).
package version

import (
	"fmt"
	"sort"
	"sync"

	"cbfww/internal/blob"
	"cbfww/internal/core"
)

// Snapshot is one stored content version.
type Snapshot struct {
	// Version is the origin's version counter.
	Version int
	// Time is when the warehouse captured this content.
	Time core.Time
	// Title and Body are the captured content. When the store uses a blob
	// backend, Body is empty in stored snapshots and BodyRef addresses the
	// content; Materialize resolves it.
	Title, Body string
	// BodyRef is the content address of the body in the blob store
	// (empty when the body is inline).
	BodyRef blob.Ref
	// Size is the content's storage footprint.
	Size core.Bytes
}

// Store keeps version histories per URL. Safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	// maxDepth bounds snapshots kept per URL (0 = unlimited — the true
	// capacity-bound-free setting).
	maxDepth  int
	histories map[string][]Snapshot // ascending by (Time, Version)
	bytes     core.Bytes
	// blobs, when set, stores bodies content-addressed on disk: identical
	// bodies across versions and URLs occupy space once, and pruned
	// versions release their references for garbage collection.
	blobs *blob.Store
}

// NewStore returns a store keeping up to maxDepth snapshots per URL
// (0 = unlimited).
func NewStore(maxDepth int) *Store {
	if maxDepth < 0 {
		maxDepth = 0
	}
	return &Store{maxDepth: maxDepth, histories: make(map[string][]Snapshot)}
}

// UseBlobs switches the store to blob-backed bodies. Must be called
// before the first Capture and before LoadFrom, which sets the blob
// store's reference counts from the loaded histories.
func (s *Store) UseBlobs(bs *blob.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs = bs
}

// Capture appends a snapshot. Out-of-order captures are sorted in;
// capturing the same version again replaces the stored copy (idempotent
// refresh). Oldest snapshots are dropped beyond maxDepth (releasing their
// blob references when blob-backed).
func (s *Store) Capture(url string, snap Snapshot) error {
	if url == "" {
		return fmt.Errorf("version: %w: empty URL", core.ErrInvalid)
	}
	if snap.Version < 1 {
		return fmt.Errorf("version: %w: version %d", core.ErrInvalid, snap.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blobs != nil && snap.Body != "" {
		ref, err := s.blobs.Put([]byte(snap.Body))
		if err != nil {
			return fmt.Errorf("version: archive body: %w", err)
		}
		snap.BodyRef = ref
		snap.Body = ""
	}
	h := s.histories[url]
	// Replace same-version capture.
	for i := range h {
		if h[i].Version == snap.Version {
			s.bytes += snap.Size - h[i].Size
			s.releaseLocked(h[i])
			h[i] = snap
			s.histories[url] = h
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
	if s.maxDepth > 0 && len(h) > s.maxDepth {
		drop := len(h) - s.maxDepth
		for _, old := range h[:drop] {
			s.bytes -= old.Size
			s.releaseLocked(old)
		}
		h = append([]Snapshot(nil), h[drop:]...)
	}
	s.histories[url] = h
	return nil
}

// releaseLocked drops a pruned snapshot's blob reference, if any.
func (s *Store) releaseLocked(old Snapshot) {
	if s.blobs != nil && old.BodyRef != "" {
		// A release failure only delays garbage collection; the store
		// stays correct, so the error is deliberately ignored.
		_ = s.blobs.Release(old.BodyRef)
	}
}

// Materialize resolves a snapshot's body from the blob store when it is
// blob-backed; inline snapshots pass through unchanged.
func (s *Store) Materialize(snap Snapshot) (Snapshot, error) {
	if snap.BodyRef == "" || snap.Body != "" {
		return snap, nil
	}
	s.mu.RLock()
	bs := s.blobs
	s.mu.RUnlock()
	if bs == nil {
		return snap, fmt.Errorf("version: %w: snapshot is blob-backed but store has no blobs", core.ErrInvalid)
	}
	body, err := bs.Get(snap.BodyRef)
	if err != nil {
		return snap, fmt.Errorf("version: materialize: %w", err)
	}
	snap.Body = string(body)
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
