package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"cbfww/internal/core"
)

// BlobKey names one stored blob: an object's content at a specific
// version, either the full body or its levels-of-detail summary. A tier
// backend may hold several versions of the same object transiently (the
// manager deletes superseded keys as it goes), so the version is part of
// the identity, not an attribute.
type BlobKey struct {
	ID      core.ObjectID
	Version int
	Summary bool
}

// BlobStore is one tier's byte store. Bytes enter and leave it only as
// streams (PutFrom, Open); readBlob and putBlob adapt the few callers that
// hold or need a whole slice. Implementations are safe for concurrent use;
// the manager serializes placement but lets reads overlap.
type BlobStore interface {
	// Open returns a streaming reader over the blob stored under k, or
	// core.ErrNotFound. Backends with integrity framing (the segment
	// store) verify it here and return core.ErrCorrupt on damage, so a
	// caller that gets a reader never sees a short stream. The caller
	// must Close the reader.
	Open(k BlobKey) (BlobReader, error)
	// PutFrom stores the next n bytes of r under k, replacing any
	// previous blob with that key. File-backed tiers stream r to their
	// medium through bounded chunk buffers; a source that runs short of n
	// fails the write and leaves the store as it was.
	PutFrom(k BlobKey, r io.Reader, n int64) error
	// Delete removes k. Deleting an absent key is a no-op.
	Delete(k BlobKey) error
	// Contains reports whether k is stored.
	Contains(k BlobKey) bool
	// Keys lists every stored key in unspecified order.
	Keys() []BlobKey
	// Sync flushes buffered state to stable storage.
	Sync() error
	// Close releases file handles. The store is unusable afterwards.
	Close() error
}

// readBlob reads the whole blob stored under k.
func readBlob(s BlobStore, k BlobKey) ([]byte, error) {
	br, err := s.Open(k)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	data := make([]byte, br.Len())
	if _, err := io.ReadFull(br, data); err != nil {
		return nil, fmt.Errorf("storage: read %v: %w", k, err)
	}
	return data, nil
}

// putBlob stores data under k. The store may retain the slice (the heap
// store adopts it; a file store receives it in one Write), so callers must
// not mutate it afterwards.
func putBlob(s BlobStore, k BlobKey, data []byte) error {
	return s.PutFrom(k, &memReader{data: data}, int64(len(data)))
}

// reclaimer is implemented by the log-structured backends, whose
// overwrites and deletes leave garbage behind: reclaim compacts the store
// when more than maxGarbage of its record bytes are garbage.
type reclaimer interface {
	reclaim(maxGarbage float64) error
}

// memStore is the in-heap BlobStore: a mutex-guarded map. It backs the
// memory tier always, and every tier in all-in-heap mode (empty DataDir).
type memStore struct {
	mu sync.RWMutex
	m  map[BlobKey][]byte
}

func newMemStore() *memStore {
	return &memStore{m: make(map[BlobKey][]byte)}
}

func (s *memStore) Open(k BlobKey) (BlobReader, error) {
	s.mu.RLock()
	data, ok := s.m[k]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: mem open %v: %w", k, core.ErrNotFound)
	}
	return &memReader{data: data}, nil
}

// PutFrom materializes, as a heap store must — except when the source is
// an unread memReader of exactly n bytes (putBlob, or a migration from
// another heap tier): then it adopts the underlying slice, so heap↔heap
// movement copies nothing.
func (s *memStore) PutFrom(k BlobKey, r io.Reader, n int64) error {
	var data []byte
	if mr, ok := r.(*memReader); ok && mr.off == 0 && int64(len(mr.data)) == n {
		mr.off = len(mr.data)
		data = mr.data
	} else {
		data = make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return fmt.Errorf("storage: mem put-from %v: %w", k, err)
		}
	}
	s.mu.Lock()
	s.m[k] = data
	s.mu.Unlock()
	return nil
}

func (s *memStore) Delete(k BlobKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, k)
	return nil
}

func (s *memStore) Contains(k BlobKey) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[k]
	return ok
}

func (s *memStore) Keys() []BlobKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]BlobKey, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	return keys
}

func (s *memStore) Sync() error  { return nil }
func (s *memStore) Close() error { return nil }

// openBackends builds one blob store per tier-table row: all in-heap
// when DataDir is empty, otherwise each persistent tier rooted under
// DataDir/<tier name> ("disk" and "tertiary" on the default table, so
// legacy data directories keep their paths). The mmap tier is the same
// segment log as the others, opened mapped with its own record magic.
func openBackends(cfg Config, tiers []TierSpec) ([]BlobStore, error) {
	b := make([]BlobStore, len(tiers))
	if cfg.DataDir == "" {
		for t := range b {
			b[t] = newMemStore()
		}
		return b, nil
	}
	segSize := cfg.SegmentSize
	if segSize <= 0 {
		segSize = 4 * core.MB
	}
	for _, ts := range tiers[:len(tiers)-1] {
		if ts.Backend != "heap" {
			if err := sweepLegacy(filepath.Join(cfg.DataDir, ts.Name)); err != nil {
				return nil, err
			}
		}
	}
	for t, ts := range tiers {
		dir := filepath.Join(cfg.DataDir, ts.Name)
		var err error
		switch ts.Backend {
		case "heap":
			b[t] = newMemStore()
		case "disk":
			b[t], err = OpenDiskStore(dir, segSize)
		case "mmap":
			b[t], err = openLog(dir, segSize, mmapMagic, true)
		case "segment":
			b[t], err = OpenSegmentStore(dir, segSize)
		default:
			err = fmt.Errorf("storage: %w: unknown backend %q", core.ErrInvalid, ts.Backend)
		}
		if err != nil {
			for _, s := range b[:t] {
				s.Close()
			}
			return nil, err
		}
	}
	return b, nil
}

// sweepLegacy removes, unread, every entry of a finite file-backed tier's
// directory that is not a segment of its log: what an older layout left
// there (the file-per-blob tree's fan-out directories and temp files, the
// mmap arena). RecoverFromDisk re-derives those copies from the anchor,
// whose directory is never swept.
func sweepLegacy(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: sweep %s: %w", dir, err)
	}
	for _, e := range ents {
		if _, ok := segNumber(e.Name()); ok {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("storage: sweep %s: %w", dir, err)
		}
	}
	return nil
}

// sortKeys orders keys by (ID, Version, Summary) for deterministic walks.
func sortKeys(keys []BlobKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		return !a.Summary && b.Summary
	})
}
