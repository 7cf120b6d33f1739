package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cbfww/internal/core"
)

// regularFiles counts the regular files under dir.
func regularFiles(t testing.TB, dir string) int {
	t.Helper()
	n := 0
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n++
		}
		return nil
	})
	return n
}

// TestSegmentStoreEmptyHasNoFile: opening an empty directory creates no
// segment; the first append does, and a compaction that finds nothing
// live leaves no file behind.
func TestSegmentStoreEmptyHasNoFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := regularFiles(t, dir); n != 0 {
		t.Fatalf("empty store holds %d files, want 0", n)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	k := BlobKey{ID: 1, Version: 1}
	if err := putBlob(s, k, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if n := regularFiles(t, dir); n != 1 {
		t.Fatalf("after the first append: %d files, want 1", n)
	}
	if err := s.Delete(k); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := regularFiles(t, dir); n != 0 {
		t.Fatalf("compacted empty store holds %d files, want 0", n)
	}
	// Numbers move on: the next segment is not seg-000000 again.
	if err := putBlob(s, k, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); err != nil {
		t.Fatalf("append after an empty compaction: %v", err)
	}
}

// TestSegmentSyncCoversRotatedSegments: records appended before a
// rotation reach the disk at the next Sync — every segment written since
// the last Sync is fsynced, not only the active one.
func TestSegmentSyncCoversRotatedSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentStore(dir, 1) // every record fills a segment
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	synced := make(map[string]int)
	defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
	syncFile = func(f *os.File) error {
		synced[filepath.Base(f.Name())]++
		return f.Sync()
	}
	for i := 0; i < 3; i++ {
		if err := putBlob(s, BlobKey{ID: core.ObjectID(i + 1), Version: 1}, []byte("record")); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segs) != 3 {
		t.Fatalf("%d segments, want 3", len(s.segs))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, n := range s.segs {
		if synced[segName(n)] != 1 {
			t.Errorf("%s synced %d times, want 1 (synced: %v)", segName(n), synced[segName(n)], synced)
		}
	}
	// Nothing appended since: the next Sync fsyncs no segment again.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for name, c := range synced {
		if c != 1 {
			t.Errorf("%s synced %d times after an idle Sync, want 1", name, c)
		}
	}
}

// TestDiskStoreFlippedByteIsCorrupt: a flipped payload byte in a disk-tier
// record fails Open with ErrCorrupt, so no reader — and no body byte —
// is ever handed out.
func TestDiskStoreFlippedByteIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := BlobKey{ID: 5, Version: 2}
	payload := streamPayload(64 << 10)
	if err := putBlob(s, k, payload); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(recHeaderLen + len(payload)/2)
	if _, err := f.WriteAt([]byte{payload[len(payload)/2] ^ 1}, at); err != nil {
		t.Fatal(err)
	}
	f.Close()
	br, err := s.Open(k)
	if !errors.Is(err, core.ErrCorrupt) || br != nil {
		t.Fatalf("Open of a damaged record = %v, %v; want nil, ErrCorrupt", br, err)
	}
}

// FuzzSegmentReplay feeds arbitrary bytes to OpenSegmentStore as a
// segment file. Replay must not panic or read past the file, and every
// key it indexes either opens to the payload its record's CRC covers or
// fails with ErrCorrupt.
func FuzzSegmentReplay(f *testing.F) {
	rec := func(kind byte, k BlobKey, payload []byte) []byte {
		var l recordLog
		l.magic = segMagic
		b := make([]byte, recHeaderLen, recLen(len(payload)))
		l.putHeader(b, kind, k, len(payload))
		b = append(b, payload...)
		return binary.BigEndian.AppendUint32(b, recCRC(b[:recHeaderLen], payload))
	}
	good := rec(recKindPut, BlobKey{ID: 1, Version: 1}, []byte("hello"))
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), rec(recKindDelete, BlobKey{ID: 1, Version: 1}, nil)...))
	f.Add(append(append([]byte(nil), good...), good[:recHeaderLen+2]...))
	huge := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(huge[15:19], 0xFFFFFFF0)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegmentStore(dir, 0)
		if err != nil {
			t.Fatalf("OpenSegmentStore: %v", err)
		}
		defer s.Close()
		if s.activeSize > int64(len(data)) {
			t.Fatalf("replay consumed %d bytes of %d", s.activeSize, len(data))
		}
		for _, k := range s.Keys() {
			br, err := s.Open(k)
			if errors.Is(err, core.ErrCorrupt) {
				continue
			}
			if err != nil {
				t.Fatalf("Open %v: %v", k, err)
			}
			got, err := io.ReadAll(br)
			br.Close()
			if err != nil {
				t.Fatalf("read %v: %v", k, err)
			}
			loc := s.index[k]
			end := loc.off + int64(loc.n)
			if end+recTrailerLen > int64(len(data)) || !bytes.Equal(got, data[loc.off:end]) {
				t.Fatalf("%v: served %d bytes that are not its record's payload", k, len(got))
			}
			if crc32.ChecksumIEEE(data[loc.off-recHeaderLen:end]) != binary.BigEndian.Uint32(data[end:]) {
				t.Fatalf("%v: served a record whose CRC does not match", k)
			}
		}
	})
}

// TestDiskLogTornTailRecovered: after Sync a restarted manager sees every
// disk-tier record; when a crash tore the log's tail instead, the torn
// record is truncated away and RecoverFromDisk restores the lost disk
// copy from the anchor.
func TestDiskLogTornTailRecovered(t *testing.T) {
	cfg := Config{Tiers: ClassicTiers(16, 1*core.MB), DataDir: t.TempDir()}
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
	reopen := func(when string) *Manager {
		t.Helper()
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if got, rep, err := m.RecoverFromDisk(); err != nil || got != n || rep.Lost != 0 {
			t.Fatalf("%s: recovered %d objects (lost %d), %v; want %d", when, got, rep.Lost, err, n)
		}
		mustInvariants(t, m)
		for id := 1; id <= n; id++ {
			if _, data, err := fetch(m, core.ObjectID(id)); err != nil || !bytes.Equal(data, body(id)) {
				t.Fatalf("%s: object %d = %d bytes, %v", when, id, len(data), err)
			}
			if !m.Backend(Disk).Contains(BlobKey{ID: core.ObjectID(id), Version: 1}) {
				t.Fatalf("%s: object %d has no disk copy", when, id)
			}
		}
		return m
	}
	m = reopen("after Sync")
	if got := m.Backend(Disk).Len(); got != n {
		t.Fatalf("disk tier holds %d records after reopen, want %d", got, n)
	}
	m.Close()

	seg := filepath.Join(cfg.DataDir, "disk", segName(0))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	m = reopen("after a torn tail")
	// The restored copy landed where the torn record was cut away.
	if fi2, _ := os.Stat(seg); fi2.Size() != fi.Size() {
		t.Errorf("disk log after recovery is %d bytes, want %d (torn record truncated, then rewritten)", fi2.Size(), fi.Size())
	}
}
