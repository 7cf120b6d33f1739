package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cbfww/internal/core"
)

// openMmap opens the mmap tier's log: a segment log with its own record
// magic, served through mappings.
func openMmap(t *testing.T, dir string, segSize core.Bytes) *SegmentStore {
	t.Helper()
	s, err := openLog(dir, segSize, mmapMagic, true)
	if err != nil {
		t.Fatalf("open mapped log: %v", err)
	}
	return s
}

// TestMmapReopenReplay: the store replays to the same index after a
// close/reopen cycle — puts, overwrites and deletes all land durably.
func TestMmapReopenReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mmap")
	s := openMmap(t, dir, 0)
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

	s = openMmap(t, dir, 0)
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
// it survive, the damaged one and everything after are dropped and
// truncated away, and the store appends cleanly after them.
func TestMmapTornRecordTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mmap")
	s := openMmap(t, dir, 0)
	k1 := BlobKey{ID: 1, Version: 1}
	k2 := BlobKey{ID: 2, Version: 1}
	if err := putBlob(s, k1, streamPayload(4_000)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.mu.RLock()
	tornStart := s.activeSize // k2's record begins at the current append offset
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
	path := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	pos := tornStart + recHeaderLen + 100
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, pos); err != nil {
		t.Fatalf("read segment: %v", err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, pos); err != nil {
		t.Fatalf("corrupt segment: %v", err)
	}
	f.Close()

	s = openMmap(t, dir, 0)
	defer s.Close()
	if !s.Contains(k1) {
		t.Fatal("intact record before the tear was lost")
	}
	if s.Contains(k2) {
		t.Fatal("torn record survived replay")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != tornStart {
		t.Fatalf("torn tail not truncated: %v bytes, want %d (%v)", fi.Size(), tornStart, err)
	}
	// The truncated tail is append space again.
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
	s := openMmap(t, filepath.Join(t.TempDir(), "mmap"), 0)
	defer s.Close()
	k := BlobKey{ID: 7, Version: 2}
	if err := putBlob(s, k, streamPayload(1_000)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// The mapping is read-only: scribble the magic byte through the file,
	// which the shared mapping sees.
	s.mu.Lock()
	loc := s.index[k]
	_, err := s.files[loc.seg].f.WriteAt([]byte{0x00}, loc.off-recHeaderLen)
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("scribble: %v", err)
	}
	_, err = s.Open(k)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Open on damaged frame: err = %v, want ErrCorrupt", err)
	}
}

// TestMmapStreamSurvivesCompact: a zero-copy window opened before a
// compaction keeps serving its bytes — the retired segment is unlinked at
// once but stays mapped until the reader closes, and only then is it
// unmapped.
func TestMmapStreamSurvivesCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mmap")
	s := openMmap(t, dir, 0)
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
	old := s.files[0]
	if err := s.reclaim(0.5); err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if s.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1 (garbage ratio %v)", s.Compactions, s.GarbageRatio())
	}
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("old segment not unlinked by Compact: %v", err)
	}
	// The old mapping must survive while the reader pins it.
	if old.data == nil {
		t.Fatal("old segment unmapped under live reader")
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
	if old.data != nil {
		t.Fatal("old segment still mapped after reader drained")
	}
	// The compacted store still round-trips.
	got, err = readBlob(s, k)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after compaction: %v (%d bytes)", err, len(got))
	}
}

// TestMmapStreamSurvivesGrowth: a window into the first segment's
// mapping stays valid while appends rotate through new segments.
func TestMmapStreamSurvivesGrowth(t *testing.T) {
	s := openMmap(t, filepath.Join(t.TempDir(), "mmap"), 1*core.MB)
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
	// Push well past the 1MB segment size so appends rotate.
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
		t.Fatalf("bytes changed under rotation: got %d bytes", len(got))
	}
	r.Close()
}

// TestMmapArenaDataDirReopens: a data directory whose mmap tier holds the
// single arena file of the earlier layout (arena-000000.dat, records
// zero-padded to 1 MiB) still opens. The arena is removed unread, every
// object is served, and RecoverFromDisk restores the tier's copies from
// the anchor.
func TestMmapArenaDataDirReopens(t *testing.T) {
	cfg := stacks[2].config(t, 16, 1*core.MB)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	body := func(id int) []byte { return bytes.Repeat([]byte{byte('a' + id)}, 1000+id) }
	for id := 1; id <= n; id++ {
		if err := m.AdmitBytes(core.ObjectID(id), 2000, 1, core.Priority(id), body(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the mmap tier as the arena layout: the same 0xCB records,
	// back to back in one file, zero-padded to the 1 MiB minimum.
	dir := filepath.Join(cfg.DataDir, cfg.Tiers[1].Name)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	arena := make([]byte, 0, 1<<20)
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		arena = append(arena, data...)
		os.Remove(p)
	}
	if len(arena) == 0 {
		t.Fatal("mmap tier empty: nothing to rewrite")
	}
	arena = arena[:1<<20]
	if err := os.WriteFile(filepath.Join(dir, "arena-000000.dat"), arena, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".arena-crashed"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err = NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, rep, err := m.RecoverFromDisk(); err != nil || got != n || rep.Lost != 0 {
		t.Fatalf("recovered %d objects (lost %d), %v; want %d", got, rep.Lost, err, n)
	}
	mustInvariants(t, m)
	for id := 1; id <= n; id++ {
		if _, data, err := fetch(m, core.ObjectID(id)); err != nil || !bytes.Equal(data, body(id)) {
			t.Fatalf("object %d = %d bytes, %v", id, len(data), err)
		}
	}
	if m.Backend(Disk).Len() == 0 {
		t.Error("mmap tier holds no copy after recovery")
	}
	for _, pattern := range []string{"arena-*.dat", ".arena-*"} {
		if left, _ := filepath.Glob(filepath.Join(dir, pattern)); len(left) != 0 {
			t.Errorf("arena files left behind: %v", left)
		}
	}
}

// TestMmapReadersRaceCompact: windows opened while another goroutine
// overwrites, rotates and compacts keep their bytes until Close — a
// segment is unmapped only once no reader pins it.
func TestMmapReadersRaceCompact(t *testing.T) {
	s := openMmap(t, filepath.Join(t.TempDir(), "mmap"), 16*core.KB)
	defer s.Close()
	const keys = 8
	key := func(id int) BlobKey { return BlobKey{ID: core.ObjectID(id), Version: 1} }
	want := func(id int) []byte { return bytes.Repeat([]byte{byte(id)}, 3000+id) }
	for id := 1; id <= keys; id++ {
		if err := putBlob(s, key(id), want(id)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4) // one per reader: each sends at most once
	for r := 1; r <= 4; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				br, err := s.Open(key(id))
				if err != nil {
					errc <- err
					return
				}
				got, err := io.ReadAll(br)
				br.Close()
				if err != nil || !bytes.Equal(got, want(id)) {
					errc <- fmt.Errorf("key %d: %d bytes, %v", id, len(got), err)
					return
				}
				id = id%keys + 1
			}
		}(r)
	}
	var werr error
	for i := 0; i < 60 && werr == nil; i++ {
		id := i%keys + 1
		werr = putBlob(s, key(id), want(id))
		if werr == nil && i%6 == 5 {
			werr = s.Compact()
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	if werr != nil {
		t.Fatal(werr)
	}
	for err := range errc {
		t.Error(err)
	}
}
