package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cbfww/internal/core"
)

// MmapStore is the byte-addressable BlobStore backing the "warm" tier
// between heap and disk: the NVM-shaped level of the dynamic hierarchy.
// It is a SegmentStore — the same appends, rotation, replay with tail
// truncation, compaction, fsync Sync and reader pinning as the disk and
// tertiary tiers, its records framed with magic 0xCB — whose segment
// handles also carry a read-only MAP_SHARED mapping. Only the read
// differs: a load from the mapping, no syscall and no page-cache copy
// into user space.
//
// CRCs are verified once, at replay on open — the tier's integrity
// premise is the mapping's (memory-like), so Open does only an O(1)
// frame check and hands out a zero-copy window into the mapping. That
// keeps a 4MB stream the same cost as a 64B one. A mapping lives as long
// as its segment handle: the window pins the segment, so neither Compact
// nor Close unmaps it under a reader.
type MmapStore struct {
	*SegmentStore
}

const mmapMagic = 0xCB

// OpenMmapStore opens (creating the directory if needed) an mmap store in
// dir whose segments rotate at segSize. The single arena file of the
// earlier layout (arena-*.dat, .arena-* temps) is removed unread:
// RecoverFromDisk re-derives those copies from the tiers below.
func OpenMmapStore(dir string, segSize core.Bytes) (*MmapStore, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: open mmap store: %w", err)
	}
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "arena-") && strings.HasSuffix(name, ".dat") || strings.HasPrefix(name, ".arena-") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("storage: open mmap store: %w", err)
			}
		}
	}
	log, err := openLog(dir, segSize, mmapMagic, true)
	if err != nil {
		return nil, err
	}
	return &MmapStore{log}, nil
}

// Open returns a zero-copy window into the segment's mapping. The frame
// around the payload is checked in O(1) — magic, key identity, length —
// and a mismatch surfaces as core.ErrCorrupt; payload CRCs were verified
// at replay, and the mapping is memory, so there is no per-open scan.
func (s *MmapStore) Open(k BlobKey) (BlobReader, error) {
	loc, sf, ok := s.pin(k)
	if !ok {
		return nil, fmt.Errorf("storage: mmap open %v: %w", k, core.ErrNotFound)
	}
	if !s.frames(sf.data[loc.off-recHeaderLen:loc.off], k, loc.n) {
		s.releaseSegFile(sf)
		return nil, fmt.Errorf("storage: mmap open %v: frame mismatch: %w", k, core.ErrCorrupt)
	}
	return &mmapReader{
		memReader: memReader{data: sf.data[loc.off : loc.off+int64(loc.n)]},
		release:   func() error { return s.releaseSegFile(sf) },
	}, nil
}

// mmapReader is the mmap tier's BlobReader: the heap tier's cursor, over
// the payload window in a segment mapping — one Write, zero copies, flat
// cost from 64B to 4MB. Close releases the pin on the segment; a window
// must not be used after Close (the mapping may be gone).
type mmapReader struct {
	memReader
	release func() error
}

func (r *mmapReader) Close() error {
	rel := r.release
	r.release = nil
	if rel == nil {
		return nil
	}
	return rel()
}
