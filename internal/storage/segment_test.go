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

// TestSegmentNamesReplayExactly: replay takes exactly the names segName
// makes — a segment numbered past six digits is replayed, and a file that
// only begins like a segment's name is not one.
func TestSegmentNamesReplayExactly(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(999_999)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmentStore(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := []BlobKey{{ID: 1, Version: 1}, {ID: 2, Version: 1}}
	for _, k := range keys { // 64-byte segments: the second rotates to 1,000,000
		if err := putBlob(s, k, streamPayload(40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1_000_000))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(999_999)+".tmp"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegmentStore(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(keys) || len(r.segs) != 2 {
		t.Fatalf("replayed %d keys from segments %v, want %d keys from 2", r.Len(), r.segs, len(keys))
	}
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

// FuzzSegmentReplay feeds arbitrary bytes as a segment file to
// a segment log opened unmapped and mapped (the mmap tier's), whose reads
// are windows into a mapping. Replay must not panic or read past the file, and every key it
// indexes either opens to the payload its record's CRC covers or fails
// with ErrCorrupt; a mapped window is drained to its end without a fault.
func FuzzSegmentReplay(f *testing.F) {
	rec := func(magic, kind byte, k BlobKey, payload []byte) []byte {
		l := recordLog{magic: magic}
		b := make([]byte, recHeaderLen, recLen(len(payload)))
		l.putHeader(b, kind, k, len(payload))
		b = append(b, payload...)
		return binary.BigEndian.AppendUint32(b, recCRC(b[:recHeaderLen], payload))
	}
	f.Add([]byte{})
	for _, magic := range []byte{segMagic, mmapMagic} {
		good := rec(magic, recKindPut, BlobKey{ID: 1, Version: 1}, []byte("hello"))
		f.Add(good)
		f.Add(append(append([]byte(nil), good...), rec(magic, recKindDelete, BlobKey{ID: 1, Version: 1}, nil)...))
		f.Add(append(append([]byte(nil), good...), good[:recHeaderLen+2]...))
		huge := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(huge[15:19], 0xFFFFFFF0)
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mapped := range []bool{false, true} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			var s *SegmentStore
			var store BlobStore
			var err error
			if mapped {
				s, err = openLog(dir, 0, mmapMagic, true)
				store = s
			} else {
				s, err = OpenSegmentStore(dir, 0)
				store = s
			}
			if err != nil {
				t.Fatalf("open (mapped %v): %v", mapped, err)
			}
			checkReplay(t, data, s, store)
			s.Close()
		}
	})
}

// checkReplay checks one store replayed from data against the bytes: no
// more consumed than given, and every indexed key served as the exact
// payload of a record whose CRC matches, or refused with ErrCorrupt.
func checkReplay(t *testing.T, data []byte, s *SegmentStore, store BlobStore) {
	t.Helper()
	if s.activeSize > int64(len(data)) {
		t.Fatalf("replay consumed %d bytes of %d", s.activeSize, len(data))
	}
	for _, k := range s.Keys() {
		br, err := store.Open(k)
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
}

// TestDroppedRecordStaysDropped: a record replay dropped (a flipped
// payload byte) is truncated away with everything after it, so neither it
// nor a later record that a Delete could not see comes back at the next
// replay — even when a new record of the same length lands where the
// dropped one was.
func TestDroppedRecordStaysDropped(t *testing.T) {
	opens := map[string]func(dir string) (BlobStore, error){
		"mmap":    func(dir string) (BlobStore, error) { return openLog(dir, 0, mmapMagic, true) },
		"disk":    func(dir string) (BlobStore, error) { return OpenDiskStore(dir, 0) },
		"segment": func(dir string) (BlobStore, error) { return OpenSegmentStore(dir, 0) },
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mustOpen := func() BlobStore {
				t.Helper()
				s, err := open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			shut := func(s BlobStore) {
				t.Helper()
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			a, b, c, d := BlobKey{ID: 1, Version: 1}, BlobKey{ID: 2, Version: 1}, BlobKey{ID: 3, Version: 1}, BlobKey{ID: 4, Version: 1}
			s := mustOpen()
			for i, k := range []BlobKey{a, b, c} {
				if err := putBlob(s, k, streamPayload(1000*(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			shut(s)
			f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			at := recLen(1000) + recHeaderLen + 500 // inside B's payload
			if _, err := f.WriteAt([]byte{streamPayload(2000)[500] ^ 1}, at); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s = mustOpen()
			if got := s.Keys(); len(got) != 1 || got[0] != a {
				t.Fatalf("after the flip: keys %v, want only %v", got, a)
			}
			if err := s.Delete(c); err != nil {
				t.Fatal(err)
			}
			if err := putBlob(s, d, streamPayload(2000)); err != nil {
				t.Fatal(err)
			}
			shut(s)
			s = mustOpen()
			defer s.Close()
			for k, want := range map[BlobKey]bool{a: true, b: false, c: false, d: true} {
				if s.Contains(k) != want {
					t.Errorf("key %v present = %v after reopen, want %v", k, !want, want)
				}
			}
			if got, err := readBlob(s, d); err != nil || !bytes.Equal(got, streamPayload(2000)) {
				t.Errorf("D after reopen: %d bytes, %v", len(got), err)
			}
		})
	}
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
