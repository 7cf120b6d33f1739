package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"cbfww/internal/core"
)

// TestRecordFrameBytes pins the on-medium record layout both log stores
// write, byte for byte, so a store written by an earlier build reopens.
func TestRecordFrameBytes(t *testing.T) {
	k := BlobKey{ID: 0x0102030405060708, Version: 9, Summary: true}
	payload := []byte("payload")
	frame := func(magic byte) []byte {
		rec := []byte{magic, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 9, 0, 0, 0, byte(len(payload))}
		rec = append(rec, payload...)
		return binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	}

	segDir := t.TempDir()
	seg, err := OpenSegmentStore(segDir, core.MB)
	if err != nil {
		t.Fatal(err)
	}
	if err := putBlob(seg, k, payload); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	got, err := os.ReadFile(filepath.Join(segDir, segName(0)))
	if err != nil || !bytes.Equal(got, frame(0xC5)) {
		t.Fatalf("segment bytes = %x (%v), want %x", got, err, frame(0xC5))
	}

	mmDir := t.TempDir()
	mm, err := openLog(mmDir, core.MB, mmapMagic, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := putBlob(mm, k, payload); err != nil {
		t.Fatal(err)
	}
	mm.Close()
	got, err = os.ReadFile(filepath.Join(mmDir, segName(0)))
	if err != nil || !bytes.Equal(got, frame(0xCB)) {
		t.Fatalf("mmap segment bytes = %x (%v), want %x", got, err, frame(0xCB))
	}
}

// TestSegmentAppendChunking: a record larger than the chunk buffer, one
// that exactly fills it, and one whose trailer alone spills into the next
// chunk all replay intact.
func TestSegmentAppendChunking(t *testing.T) {
	dir := t.TempDir()
	seg, err := OpenSegmentStore(dir, 16*core.MB)
	if err != nil {
		t.Fatal(err)
	}
	chunk := len(CopyBuffer())
	sizes := []int{0, 1, chunk - recHeaderLen - recTrailerLen, chunk - recHeaderLen - 1, chunk - recHeaderLen, chunk, 3*chunk + 17}
	for i, n := range sizes {
		if err := seg.PutFrom(BlobKey{ID: core.ObjectID(i + 1), Version: 1}, bytes.NewReader(streamPayload(n)), int64(n)); err != nil {
			t.Fatalf("PutFrom %d bytes: %v", n, err)
		}
	}
	seg.Close()
	seg, err = OpenSegmentStore(dir, 16*core.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for i, n := range sizes {
		got, err := readBlob(seg, BlobKey{ID: core.ObjectID(i + 1), Version: 1})
		if err != nil || !bytes.Equal(got, streamPayload(n)) {
			t.Errorf("record of %d bytes after replay: %d bytes, %v", n, len(got), err)
		}
	}
}

// TestSegmentCompactCannotLoseData: when the next segment cannot be
// created, Compact fails before it has touched anything — the anchor tier
// "never refuses data", so it must not be able to lose it either. A reopen
// still finds every live key.
func TestSegmentCompactCannotLoseData(t *testing.T) {
	dir := t.TempDir()
	seg, err := OpenSegmentStore(dir, 4*core.KB)
	if err != nil {
		t.Fatal(err)
	}
	want := map[BlobKey][]byte{}
	for i := 0; i < 12; i++ { // several rotations
		k := BlobKey{ID: core.ObjectID(i + 1), Version: 1}
		want[k] = streamPayload(1000 + i)
		if err := putBlob(seg, k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i += 3 { // and some garbage to reclaim
		k := BlobKey{ID: core.ObjectID(i + 1), Version: 1}
		if err := seg.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	// Occupy the name the next segment needs: O_EXCL creation fails.
	next := seg.segs[len(seg.segs)-1] + 1
	if err := os.WriteFile(filepath.Join(dir, segName(next)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := seg.Compact(); err == nil {
		t.Fatal("Compact succeeded with the next segment name taken")
	}
	check := func(s *SegmentStore, when string) {
		t.Helper()
		if s.Len() != len(want) {
			t.Errorf("%s: %d keys, want %d", when, s.Len(), len(want))
		}
		for k, data := range want {
			if got, err := readBlob(s, k); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: key %v: %d bytes, %v", when, k, len(got), err)
			}
		}
	}
	check(seg, "after failed Compact")
	seg.Close()
	seg, err = OpenSegmentStore(dir, 4*core.KB)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	check(seg, "after reopen")

	// The reopen adopted the planted file as its (empty) active segment, so
	// the next name is free: the same store now compacts, and a replay that
	// sees only the new generation agrees.
	if err := seg.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	check(seg, "after Compact")
	if g := seg.GarbageRatio(); g != 0 {
		t.Errorf("garbage ratio after Compact = %v", g)
	}
	seg.Close()
	seg, err = OpenSegmentStore(dir, 4*core.KB)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	check(seg, "after Compact and reopen")
}
