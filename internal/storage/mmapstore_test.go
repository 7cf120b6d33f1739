package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cbfww/internal/core"
)

func openMmap(t *testing.T, dir string) *MmapStore {
	t.Helper()
	s, err := OpenMmapStore(dir)
	if err != nil {
		t.Fatalf("OpenMmapStore: %v", err)
	}
	return s
}

// TestMmapReopenReplay: the arena replays to the same index after a
// close/reopen cycle — puts, overwrites and deletes all land durably.
func TestMmapReopenReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mmap")
	s := openMmap(t, dir)
	k1 := BlobKey{ID: 1, Version: 1}
	k2 := BlobKey{ID: 2, Version: 1}
	k3 := BlobKey{ID: 3, Version: 1}
	want1 := streamPayload(10_000)
	if err := putBlob(s, k1, streamPayload(5_000)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := putBlob(s, k1, want1); err != nil { // overwrite: replay keeps the newer record
		t.Fatalf("Put overwrite: %v", err)
	}
	if err := putBlob(s, k2, streamPayload(64)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := putBlob(s, k3, streamPayload(128)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Delete(k3); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = openMmap(t, dir)
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("Len after reopen = %d, want 2", s.Len())
	}
	got, err := readBlob(s, k1)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if len(got) != len(want1) || !bytes.Equal(got, want1) {
		t.Fatalf("reopen payload mismatch: got %d bytes", len(got))
	}
	if s.Contains(k3) {
		t.Fatal("deleted key resurrected by replay")
	}
	// The store must stay writable after a replayed open.
	if err := putBlob(s, BlobKey{ID: 9, Version: 1}, streamPayload(256)); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
}

// TestMmapTornRecordTruncated: a record whose payload was damaged on
// disk (torn write) ends the usable prefix at replay — records before
// it survive, the damaged one and everything after are dropped, and
// the store appends cleanly over the dead tail.
func TestMmapTornRecordTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mmap")
	s := openMmap(t, dir)
	k1 := BlobKey{ID: 1, Version: 1}
	k2 := BlobKey{ID: 2, Version: 1}
	if err := putBlob(s, k1, streamPayload(4_000)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.mu.RLock()
	tornStart := s.size // k2's record begins at the current append offset
	s.mu.RUnlock()
	if err := putBlob(s, k2, streamPayload(4_000)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one byte inside the second record's payload on disk.
	path := filepath.Join(dir, arenaName(0))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open arena: %v", err)
	}
	pos := tornStart + recHeaderLen + 100
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, pos); err != nil {
		t.Fatalf("read arena: %v", err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, pos); err != nil {
		t.Fatalf("corrupt arena: %v", err)
	}
	f.Close()

	s = openMmap(t, dir)
	defer s.Close()
	if !s.Contains(k1) {
		t.Fatal("intact record before the tear was lost")
	}
	if s.Contains(k2) {
		t.Fatal("torn record survived replay")
	}
	// The dead tail is append space again.
	if err := putBlob(s, k2, streamPayload(512)); err != nil {
		t.Fatalf("Put over dead tail: %v", err)
	}
	got, err := readBlob(s, k2)
	if err != nil || len(got) != 512 {
		t.Fatalf("Get after re-put: %v (%d bytes)", err, len(got))
	}
}

// TestMmapOpenFrameMismatch: Open's O(1) frame check surfaces header
// damage as core.ErrCorrupt instead of serving wrong bytes.
func TestMmapOpenFrameMismatch(t *testing.T) {
	s := openMmap(t, filepath.Join(t.TempDir(), "mmap"))
	defer s.Close()
	k := BlobKey{ID: 7, Version: 2}
	if err := putBlob(s, k, streamPayload(1_000)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.mu.Lock()
	loc := s.index[k]
	s.arena.data[loc.off-recHeaderLen] = 0x00 // scribble the magic byte
	s.mu.Unlock()
	_, err := s.Open(k)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Open on damaged frame: err = %v, want ErrCorrupt", err)
	}
}

// TestMmapStreamSurvivesCompact: a zero-copy window opened before a
// compaction keeps serving its bytes — the retired arena stays mapped
// until the reader closes, and only then is its file unlinked.
func TestMmapStreamSurvivesCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mmap")
	s := openMmap(t, dir)
	defer s.Close()
	k := BlobKey{ID: 1, Version: 1}
	churn := BlobKey{ID: 2, Version: 1}
	want := streamPayload(200_000)
	if err := putBlob(s, k, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i := 0; i < 8; i++ { // pile up garbage so reclaim(0.5) fires
		if err := putBlob(s, churn, streamPayload(100_000)); err != nil {
			t.Fatalf("Put churn: %v", err)
		}
	}

	r, err := s.Open(k)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	oldPath := filepath.Join(dir, arenaName(0))
	if err := s.reclaim(0.5); err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if s.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1 (garbage ratio %v)", s.Compactions, s.GarbageRatio())
	}
	// Old arena file must survive while the reader pins its mapping.
	if _, err := os.Stat(oldPath); err != nil {
		t.Fatalf("old arena removed under live reader: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read across compaction: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes changed under compaction: got %d bytes", len(got))
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close reader: %v", err)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatalf("old arena not unlinked after reader drained: %v", err)
	}
	// The compacted store still round-trips.
	got, err = readBlob(s, k)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after compaction: %v (%d bytes)", err, len(got))
	}
}

// TestMmapStreamSurvivesGrowth: a window into the old, smaller mapping
// stays valid while appends force the arena to grow and remap.
func TestMmapStreamSurvivesGrowth(t *testing.T) {
	s := openMmap(t, filepath.Join(t.TempDir(), "mmap"))
	defer s.Close()
	k := BlobKey{ID: 1, Version: 1}
	want := streamPayload(4_096)
	if err := putBlob(s, k, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, err := s.Open(k)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Push well past the 1MB minimum arena so ensureLocked remaps.
	big := streamPayload(600_000)
	for i := 0; i < 4; i++ {
		if err := putBlob(s, BlobKey{ID: core.ObjectID(10 + i), Version: 1}, big); err != nil {
			t.Fatalf("Put big: %v", err)
		}
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read across growth: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes changed under growth remap: got %d bytes", len(got))
	}
	r.Close()
}
