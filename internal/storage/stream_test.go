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

// streamBackends builds one of each backend, file-backed ones under a
// temp dir.
func streamBackends(t *testing.T) map[string]BlobStore {
	t.Helper()
	disk, err := OpenDiskStore(filepath.Join(t.TempDir(), "disk"), 1*core.MB)
	if err != nil {
		t.Fatalf("OpenDiskStore: %v", err)
	}
	seg, err := OpenSegmentStore(filepath.Join(t.TempDir(), "tertiary"), 1*core.MB)
	if err != nil {
		t.Fatalf("OpenSegmentStore: %v", err)
	}
	mm, err := openLog(filepath.Join(t.TempDir(), "mmap"), 1*core.MB, mmapMagic, true)
	if err != nil {
		t.Fatalf("open mapped log: %v", err)
	}
	t.Cleanup(func() { disk.Close(); seg.Close(); mm.Close() })
	return map[string]BlobStore{"mem": newMemStore(), "disk": disk, "segment": seg, "mmap": mm}
}

func streamPayload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	return data
}

// TestOpenRoundTrip: every backend's Open serves the exact stored bytes,
// via both Read and WriteTo, reports Len, and fails absent keys with
// ErrNotFound.
func TestOpenRoundTrip(t *testing.T) {
	for name, s := range streamBackends(t) {
		t.Run(name, func(t *testing.T) {
			k := BlobKey{ID: 7, Version: 3}
			data := streamPayload(100_000)
			if err := putBlob(s, k, data); err != nil {
				t.Fatalf("Put: %v", err)
			}
			br, err := s.Open(k)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if br.Len() != int64(len(data)) {
				t.Errorf("Len = %d, want %d", br.Len(), len(data))
			}
			got, err := io.ReadAll(br)
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			br.Close()
			if !bytes.Equal(got, data) {
				t.Fatalf("Read bytes differ from stored (%d vs %d)", len(got), len(data))
			}

			br, err = s.Open(k)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			var sink bytes.Buffer
			n, err := br.WriteTo(&sink)
			br.Close()
			if err != nil || n != int64(len(data)) {
				t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, len(data))
			}
			if !bytes.Equal(sink.Bytes(), data) {
				t.Fatalf("WriteTo bytes differ from stored")
			}

			if _, err := s.Open(BlobKey{ID: 99, Version: 1}); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("Open of absent key = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestPutFromRoundTrip: streaming writes land byte-identical to Put, and
// a source that runs short of the declared length fails without
// corrupting the store.
func TestPutFromRoundTrip(t *testing.T) {
	for name, s := range streamBackends(t) {
		t.Run(name, func(t *testing.T) {
			k := BlobKey{ID: 11, Version: 1}
			data := streamPayload(300_000)
			if err := s.PutFrom(k, bytes.NewReader(data), int64(len(data))); err != nil {
				t.Fatalf("PutFrom: %v", err)
			}
			got, err := readBlob(s, k)
			if err != nil {
				t.Fatalf("Get after PutFrom: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("stored bytes differ from streamed input")
			}

			// A short source must not replace the existing blob.
			short := BlobKey{ID: 12, Version: 1}
			if err := s.PutFrom(short, bytes.NewReader(data[:10]), int64(len(data))); err == nil {
				t.Fatalf("PutFrom with short source succeeded, want error")
			}
			if s.Contains(short) {
				t.Errorf("short PutFrom left key %v in the index", short)
			}
			// The store keeps working after the aborted write.
			k2 := BlobKey{ID: 13, Version: 1}
			if err := s.PutFrom(k2, bytes.NewReader(data), int64(len(data))); err != nil {
				t.Fatalf("PutFrom after aborted write: %v", err)
			}
			if got, err := readBlob(s, k2); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Get after recovery: %v", err)
			}
		})
	}
}

// TestSegmentOpenTornRecord: a torn or bit-flipped segment record fails
// Open with core.ErrCorrupt — never a reader that would short-read at
// serve time.
func TestSegmentOpenTornRecord(t *testing.T) {
	dir := t.TempDir()
	seg, err := OpenSegmentStore(dir, 1*core.MB)
	if err != nil {
		t.Fatalf("OpenSegmentStore: %v", err)
	}
	defer seg.Close()
	k := BlobKey{ID: 21, Version: 2}
	data := streamPayload(64 * 1024)
	if err := putBlob(seg, k, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	segFile := filepath.Join(dir, segName(0))

	flip := func(off int64) {
		t.Helper()
		f, err := os.OpenFile(segFile, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatalf("open segment file: %v", err)
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatalf("read byte: %v", err)
		}
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatalf("write byte: %v", err)
		}
	}

	// Bit-flip mid-payload: CRC verification must catch it on Open.
	flip(recHeaderLen + 1000)
	if _, err := seg.Open(k); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Open over flipped payload = %v, want ErrCorrupt", err)
	}
	flip(recHeaderLen + 1000) // restore
	if br, err := seg.Open(k); err != nil {
		t.Fatalf("Open after restore = %v, want clean read", err)
	} else {
		br.Close()
	}

	// Header damage: the frame check must catch it.
	flip(0) // magic byte
	if _, err := seg.Open(k); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Open over damaged magic = %v, want ErrCorrupt", err)
	}
	flip(0)

	// Truncation through the payload: a torn tail, not a short read.
	if err := os.Truncate(segFile, recHeaderLen+1000); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := seg.Open(k); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Open over truncated record = %v, want ErrCorrupt", err)
	}
}

// TestSegmentStreamSurvivesCompact: a stream opened before Compact keeps
// serving its exact bytes after Compact has closed and unlinked the old
// segment files, because the reader owns its descriptor. The regression
// was a truncated response after Content-Length was committed whenever
// the background Backup→Compact pass raced an in-flight tertiary
// GET /body.
func TestSegmentStreamSurvivesCompact(t *testing.T) {
	seg, err := OpenSegmentStore(filepath.Join(t.TempDir(), "tertiary"), 256*core.KB)
	if err != nil {
		t.Fatalf("OpenSegmentStore: %v", err)
	}
	defer seg.Close()
	k := BlobKey{ID: 31, Version: 1}
	data := streamPayload(96 * 1024)
	if err := putBlob(seg, k, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Churn another key so the compaction has garbage to drop.
	for i := 0; i < 4; i++ {
		if err := putBlob(seg, BlobKey{ID: 32, Version: 1}, streamPayload(32*1024)); err != nil {
			t.Fatalf("Put churn: %v", err)
		}
	}

	br, err := seg.Open(k)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer br.Close()
	head := make([]byte, 1024)
	if _, err := io.ReadFull(br, head); err != nil {
		t.Fatalf("read head: %v", err)
	}

	if err := seg.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if seg.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", seg.Compactions)
	}

	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("read after Compact: %v", err)
	}
	if got := append(head, rest...); !bytes.Equal(got, data) {
		t.Fatalf("stream across Compact = %d bytes, differs from stored %d", len(got), len(data))
	}
	if err := br.Close(); err != nil {
		t.Errorf("Close after Compact: %v", err)
	}

	// The store itself still serves the key from the rewritten segments.
	br2, err := seg.Open(k)
	if err != nil {
		t.Fatalf("Open after Compact: %v", err)
	}
	got, err := io.ReadAll(br2)
	br2.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-Compact read = %d bytes, %v; want stored payload", len(got), err)
	}
}

// TestFetchStreamAccounting: FetchStream counts accesses and serves the
// same bytes Fetch would, per tier.
func TestFetchStreamAccounting(t *testing.T) {
	m := newTestManagerBytes(t)
	payload := streamPayload(64)
	if err := m.AdmitBytes(1, 64, 1, 0.9, payload); err != nil {
		t.Fatalf("AdmitBytes: %v", err)
	}
	before := m.Stats().Accesses
	res, br, err := m.FetchStream(1)
	if err != nil {
		t.Fatalf("FetchStream: %v", err)
	}
	defer br.Close()
	if m.Stats().Accesses != before+1 {
		t.Errorf("FetchStream did not count an access")
	}
	got, err := io.ReadAll(br)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("FetchStream bytes = %d, %v; want stored payload", len(got), err)
	}
	if res.Tier != Memory {
		t.Errorf("high-priority object served from %v, want memory", res.Tier)
	}

	// PeekStream: same bytes, no access counted.
	before = m.Stats().Accesses
	pr, ver, err := m.PeekStream(1)
	if err != nil {
		t.Fatalf("PeekStream: %v", err)
	}
	defer pr.Close()
	if ver != 1 {
		t.Errorf("PeekStream version = %d, want 1", ver)
	}
	if m.Stats().Accesses != before {
		t.Errorf("PeekStream counted an access")
	}
	if got, _ := io.ReadAll(pr); !bytes.Equal(got, payload) {
		t.Fatalf("PeekStream bytes differ")
	}
}

// newTestManagerBytes builds a small all-heap manager for streaming tests.
func newTestManagerBytes(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(classic(1*core.KB, 4*core.KB))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

// TestHeapStreamAllocs: the heap-tier stream path (FetchStream + WriteTo)
// must run allocation-flat — a fixed handful of allocs regardless of body
// size, never a body-sized buffer.
func TestHeapStreamAllocs(t *testing.T) {
	m := newTestManagerBytes(t)
	payload := streamPayload(512)
	if err := m.AdmitBytes(1, 512, 1, 0.9, payload); err != nil {
		t.Fatalf("AdmitBytes: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, br, err := m.FetchStream(1)
		if err != nil {
			t.Fatalf("FetchStream: %v", err)
		}
		if _, err := br.WriteTo(io.Discard); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		br.Close()
	})
	// One alloc for the memReader, one for the BlobKey-to-interface
	// conversions inside the map lookups; give headroom to 4 but never a
	// body-scaled number.
	if allocs > 4 {
		t.Errorf("heap stream path allocs/op = %.1f, want <= 4", allocs)
	}
}
