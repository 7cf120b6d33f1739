package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cbfww/internal/core"
)

// payloadCfg is the small classic table the byte-movement tests share
// (newTestManager's shape).
func payloadCfg(t *testing.T, s stack) Config {
	cfg := s.config(t, 100, 1000)
	cfg.SummaryRatio = 0.1
	cfg.SummaryThreshold = 0.5
	return cfg
}

// payloadFixture builds a manager for the tests that are about the bytes.
func payloadFixture(t *testing.T, s stack) *Manager {
	t.Helper()
	m, err := NewManager(payloadCfg(t, s))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func mustInvariants(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitBytesMovesBytes: an admitted payload lands in tertiary and is
// copied — not just labeled — into every tier its priority earns.
func TestAdmitBytesMovesBytes(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		body := []byte("the quick brown fox jumps over the lazy dog")
		if err := m.AdmitBytes(1, 40, 1, 0.9, body); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)

		k := BlobKey{ID: 1, Version: 1}
		for tier := Memory; tier <= Tertiary; tier++ {
			got, err := readBlob(m.Backend(tier), k)
			if err != nil {
				t.Fatalf("%v backend: %v", tier, err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("%v bytes = %q, want %q", tier, got, body)
			}
		}
		res, data, err := fetch(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != Memory || !bytes.Equal(data, body) {
			t.Fatalf("Fetch tier=%v data=%q", res.Tier, data)
		}
	})
}

// TestSummaryBlobsMaterialized: a large document's memory summary is a
// real stored blob of roughly SummaryRatio the size, not a flag.
func TestSummaryBlobsMaterialized(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		body := bytes.Repeat([]byte("x"), 80) // 80 > 0.5 * 100: a "large document"
		if err := m.AdmitBytes(7, 80, 1, 0.9, body); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
		sk := BlobKey{ID: 7, Version: 1, Summary: true}
		got, err := readBlob(m.Backend(Memory), sk)
		if err != nil {
			t.Fatalf("summary blob missing from memory backend: %v", err)
		}
		want := body[:8] // summarySize = 0.1 * 80
		if !bytes.Equal(got, want) {
			t.Fatalf("summary bytes = %q, want %q", got, want)
		}
		// The full body sits one level down, byte for byte.
		if got, err := readBlob(m.Backend(Disk), BlobKey{ID: 7, Version: 1}); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("disk full copy = %q, %v", got, err)
		}
	})
}

// TestDemotionDeletesBytes: dropping an object's priority removes its
// fast-tier blobs, not just the copy flags.
func TestDemotionDeletesBytes(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		if err := m.AdmitBytes(1, 40, 1, 0.9, []byte("payload-one")); err != nil {
			t.Fatal(err)
		}
		m.ApplyPriorities(map[core.ObjectID]core.Priority{1: 0.0001})
		mustInvariants(t, m)
		// Priority alone doesn't demote while capacity is free; crowd it out.
		for i := 2; i <= 30; i++ {
			if err := m.AdmitBytes(core.ObjectID(i), 40, 1, 0.5, []byte(fmt.Sprintf("filler-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		mustInvariants(t, m)
		tier, ok := m.Contains(1)
		if !ok || tier != Tertiary {
			t.Fatalf("object 1 at %v (ok=%v), want tertiary-only", tier, ok)
		}
		k := BlobKey{ID: 1, Version: 1}
		if m.Backend(Memory).Contains(k) || m.Backend(Disk).Contains(k) {
			t.Fatal("demoted object still has fast-tier bytes")
		}
		if _, err := readBlob(m.Backend(Tertiary), k); err != nil {
			t.Fatalf("tertiary lost the payload: %v", err)
		}
	})
}

// TestRecoverAfterDiskDropRestoresExactCopies is the direct test of the
// copy-control invariant "data in main memory have exact copies on disk":
// when the disk tier fails wholesale, Recover must rebuild the disk copies
// of every memory-resident object from the memory bytes, byte for byte.
func TestRecoverAfterDiskDropRestoresExactCopies(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		want := map[core.ObjectID][]byte{}
		for i := 1; i <= 2; i++ {
			id := core.ObjectID(i)
			body := []byte(fmt.Sprintf("memory-resident body %d", i))
			if err := m.AdmitBytes(id, 40, 1, 0.9, body); err != nil {
				t.Fatal(err)
			}
			want[id] = body
		}
		if got := m.ResidentIDs(Memory); len(got) != 2 {
			t.Fatalf("memory residents = %v, want both objects", got)
		}
		if err := m.DropTier(Disk); err != nil {
			t.Fatal(err)
		}
		if m.Backend(Disk).Len() != 0 {
			t.Fatal("dropped disk tier still holds blobs")
		}
		rep := m.Recover()
		if rep.Lost != 0 {
			t.Fatalf("recover lost %d objects despite memory copies", rep.Lost)
		}
		mustInvariants(t, m)
		for id, body := range want {
			if !m.ResidentAt(id, Memory) {
				t.Fatalf("%v no longer memory-resident after recover", id)
			}
			got, err := readBlob(m.Backend(Disk), BlobKey{ID: id, Version: 1})
			if err != nil {
				t.Fatalf("%v disk copy not restored: %v", id, err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("%v restored disk bytes = %q, want %q", id, got, body)
			}
		}
	})
}

// TestBackupVersionDriftStaleRecover: a tertiary backup older than the
// current version (Backup ran, then the content changed, then both fast
// tiers died) must surface as Stale from Recover and on access, serving
// the old bytes — the warehouse's cue to refetch.
func TestBackupVersionDriftStaleRecover(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		v1 := []byte("version one content")
		v2 := []byte("version two content, never backed up")
		if err := m.AdmitBytes(1, 40, 1, 0.9, v1); err != nil {
			t.Fatal(err)
		}
		m.Backup() // tertiary now holds v1 exactly
		if err := m.UpdateBytes(1, 2, v2); err != nil {
			t.Fatal(err)
		}
		// Fast copies carry v2; the backup lags at v1.
		if got, err := readBlob(m.Backend(Tertiary), BlobKey{ID: 1, Version: 1}); err != nil || !bytes.Equal(got, v1) {
			t.Fatalf("tertiary backup = %q, %v; want v1 bytes", got, err)
		}
		if err := m.DropTier(Memory); err != nil {
			t.Fatal(err)
		}
		if err := m.DropTier(Disk); err != nil {
			t.Fatal(err)
		}
		rep := m.Recover()
		if rep.Stale != 1 {
			t.Fatalf("recover stale = %d, want 1", rep.Stale)
		}
		mustInvariants(t, m)
		res, data, err := fetch(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != 1 || !bytes.Equal(data, v1) {
			t.Fatalf("recovered fetch = v%d %q, want the v1 backup", res.Version, data)
		}
		// Recover reverted the authoritative version to the survivor, so the
		// copy is current again from storage's point of view; the warehouse
		// notices the drift through the version number it gets back.
		if res.Stale {
			t.Fatal("recovered copy still marked stale after version reversion")
		}
	})
}

// TestUpdateAfterTotalLossLandsCopy: with every tier dropped, an update to
// a higher version lands its bytes as the object's one tracked, charged
// copy — servable, with no blob in any backend the manager does not track
// — and the next placement pass copies it up out of tertiary.
func TestUpdateAfterTotalLossLandsCopy(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		if err := m.AdmitBytes(1, 40, 1, 0.9, []byte("version one")); err != nil {
			t.Fatal(err)
		}
		for tier := Memory; tier <= Tertiary; tier++ {
			if err := m.DropTier(tier); err != nil {
				t.Fatal(err)
			}
		}
		v2 := []byte("version two")
		if err := m.UpdateBytes(1, 2, v2); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
		res, data, err := fetch(m, 1)
		if err != nil || res.Version != 2 || !bytes.Equal(data, v2) {
			t.Fatalf("fetch after update = v%d %q, %v; want v2 %q", res.Version, data, err, v2)
		}
		for tier := Memory; tier <= Tertiary; tier++ {
			for _, k := range m.Backend(tier).Keys() {
				if o := m.objects[k.ID]; o == nil || !o.copies[tier].present || o.copies[tier].key(k.ID) != k {
					t.Errorf("%v backend holds %v, which the manager does not track", tier, k)
				}
			}
		}
		// Any admission runs a placement pass.
		if err := m.AdmitBytes(2, 10, 1, 0.1, []byte("other")); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
		if res, _, err := fetch(m, 1); err != nil || res.Tier != Memory {
			t.Fatalf("after the next placement pass: served from %v, %v; want memory", res.Tier, err)
		}
	})
}

// TestReplaceTakesAnyVersion: Replace rewrites every copy, the anchor
// included, at a version below the current one, which UpdateBytes refuses,
// keeping the object's priority and leaving no blob of the old version.
func TestReplaceTakesAnyVersion(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		if err := m.AdmitBytes(1, 40, 3, 0.9, []byte("version three")); err != nil {
			t.Fatal(err)
		}
		v1 := []byte("version one again")
		if err := m.UpdateBytes(1, 1, v1); !errors.Is(err, core.ErrInvalid) {
			t.Fatalf("UpdateBytes to a lower version = %v, want ErrInvalid", err)
		}
		if err := m.Replace(1, 1, v1); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
		res, data, err := fetch(m, 1)
		if err != nil || res.Version != 1 || res.Tier != Memory || !bytes.Equal(data, v1) {
			t.Fatalf("fetch after Replace = v%d from %v %q, %v; want v1 from memory %q", res.Version, res.Tier, data, err, v1)
		}
		if p1, _ := m.Priority(1); p1 != 0.9 {
			t.Fatalf("priority after Replace = %v, want the 0.9 it had", p1)
		}
		for tier := Memory; tier <= Tertiary; tier++ {
			for _, k := range m.Backend(tier).Keys() {
				if k.Version != 1 {
					t.Errorf("%v backend still holds %v", tier, k)
				}
			}
		}
		if got, err := readBlob(m.Backend(Tertiary), BlobKey{ID: 1, Version: 1}); err != nil || !bytes.Equal(got, v1) {
			t.Fatalf("anchor after Replace = %q, %v; want %q", got, err, v1)
		}
		if err := m.Replace(2, 1, v1); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("Replace of an unknown ID = %v, want ErrNotFound", err)
		}
	})
}

// failPuts is a blob store whose writes all fail.
type failPuts struct{ BlobStore }

func (failPuts) PutFrom(BlobKey, io.Reader, int64) error { return errors.New("put refused") }

// TestReplaceFailedPutKeepsCopy: when the anchor refuses the rewrite, the
// object stays tracked and its copy stands, servable.
func TestReplaceFailedPutKeepsCopy(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		v1 := []byte("version one")
		if err := m.AdmitBytes(1, 40, 1, 0.9, v1); err != nil {
			t.Fatal(err)
		}
		for tier := Memory; tier < Tertiary; tier++ {
			if err := m.DropTier(tier); err != nil {
				t.Fatal(err)
			}
		}
		m.backends[Tertiary] = failPuts{m.backends[Tertiary]}
		if err := m.Replace(1, 1, []byte("lost write")); err == nil {
			t.Fatal("Replace over a failing anchor succeeded")
		}
		mustInvariants(t, m)
		if tier, ok := m.Contains(1); !ok || tier != Tertiary {
			t.Fatalf("after a failed Replace: Contains = %v, %v; want tertiary, true", tier, ok)
		}
		if res, data, err := fetch(m, 1); err != nil || res.Version != 1 || !bytes.Equal(data, v1) {
			t.Fatalf("fetch after a failed Replace = v%d %q, %v; want v1 %q", res.Version, data, err, v1)
		}
	})
}

// TestUpdateRequiresBytesForPayloadObjects: UpdateBytes with a nil
// payload must refuse payload objects rather than strand version labels
// without matching bytes.
func TestUpdateRequiresBytesForPayloadObjects(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := payloadFixture(t, s)
		if err := m.AdmitBytes(1, 40, 1, 0.9, []byte("content")); err != nil {
			t.Fatal(err)
		}
		if err := m.UpdateBytes(1, 2, nil); !errors.Is(err, core.ErrInvalid) {
			t.Fatalf("UpdateBytes(nil) on payload object err = %v, want ErrInvalid", err)
		}
		if err := m.UpdateBytes(1, 2, []byte("new content")); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
		if _, data, err := fetch(m, 1); err != nil || string(data) != "new content" {
			t.Fatalf("after UpdateBytes: %q, %v", data, err)
		}
	})
}

// TestDiskStoreReopen: the disk store is a log — a reopened store sees
// exactly the records synced before, truncates a torn tail and keeps
// appending after it.
func TestDiskStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []BlobKey{
		{ID: 1, Version: 1},
		{ID: 1, Version: 2, Summary: true},
		{ID: 300, Version: 7},
	}
	for i, k := range keys {
		if err := putBlob(s, k, []byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(keys[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A crashed writer tore the log's tail.
	seg, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	synced, _ := seg.Seek(0, io.SeekEnd)
	seg.Write([]byte{segMagic, recKindPut, 0, 1, 2, 3})
	seg.Close()

	r, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2 (keys: %v)", r.Len(), r.Keys())
	}
	for i, k := range []BlobKey{keys[0], keys[2]} {
		if got, err := readBlob(r, k); err != nil || string(got) != fmt.Sprintf("blob-%d", 2*i) {
			t.Fatalf("reopened get %v = %q, %v", k, got, err)
		}
	}
	if r.Contains(keys[1]) {
		t.Fatal("deleted key survived reopen")
	}
	if fi, err := os.Stat(filepath.Join(dir, segName(0))); err != nil || fi.Size() != synced {
		t.Fatalf("torn tail not truncated: size %v, want %d (%v)", fi.Size(), synced, err)
	}
	more := BlobKey{ID: 9, Version: 1}
	if err := putBlob(r, more, []byte("after the tear")); err != nil {
		t.Fatal(err)
	}
	if got, err := readBlob(r, more); err != nil || string(got) != "after the tear" {
		t.Fatalf("append after truncation = %q, %v", got, err)
	}
}

// TestOpenSweepsLegacyLayout: opening a manager removes, unread, every
// entry of a finite file-backed tier's directory that is not one of its
// log's segments — what older layouts left there (the file-per-blob
// tree's fan-out directory and temp file, the mmap arena, a stray name
// that only looks like a segment) — and RecoverFromDisk re-derives those
// tiers' copies. The anchor's directory is never swept.
func TestOpenSweepsLegacyLayout(t *testing.T) {
	cfg := Config{Tiers: ClassicTiers(1*core.KB, 4*core.KB), DataDir: t.TempDir()}.WithMmapTier(2 * core.KB)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	body := func(id int) []byte { return bytes.Repeat([]byte{byte('a' + id)}, 300+id) }
	for id := 1; id <= n; id++ {
		if err := m.AdmitBytes(core.ObjectID(id), 400, 1, core.Priority(id), body(id)); err != nil {
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
	plant := func(tier, name string) string {
		t.Helper()
		p := filepath.Join(cfg.DataDir, tier, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("foreign"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	swept := []string{
		filepath.Dir(plant("disk", filepath.Join("2c", "300-v7"))),
		plant("disk", ".blob-crashed"),
		plant("mmap", "arena-000000.dat"),
		plant("mmap", ".arena-crashed"),
		plant("mmap", "seg-000001.seg.tmp"),
	}
	kept := plant("tertiary", "notes.txt")

	m, err = NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, p := range swept {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s not swept at open (%v)", p, err)
		}
	}
	if _, err := os.Stat(kept); err != nil {
		t.Errorf("foreign file in the anchor's directory removed: %v", err)
	}
	if got, rep, err := m.RecoverFromDisk(); err != nil || got != n || rep.Lost != 0 {
		t.Fatalf("recovered %d objects (lost %d), %v; want %d", got, rep.Lost, err, n)
	}
	mustInvariants(t, m)
	for id := 1; id <= n; id++ {
		if _, data, err := fetch(m, core.ObjectID(id)); err != nil || !bytes.Equal(data, body(id)) {
			t.Fatalf("object %d = %d bytes, %v", id, len(data), err)
		}
	}
	for _, tier := range []string{"mmap", "disk"} {
		if segs, _ := filepath.Glob(filepath.Join(cfg.DataDir, tier, "seg-*.seg")); len(segs) == 0 {
			t.Errorf("tier %s: no segment after recovery", tier)
		}
	}
}

// TestSegmentStoreReplayRotationCompaction exercises the tertiary log end
// to end: rotation under a tiny segment size, overwrite and tombstone
// garbage, replay after reopen, tail-corruption truncation, compaction.
func TestSegmentStoreReplayRotationCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentStore(dir, 256) // force rotation quickly
	if err != nil {
		t.Fatal(err)
	}
	blob := func(i, v int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 40+v) }
	for i := 0; i < 8; i++ {
		if err := putBlob(s, BlobKey{ID: core.ObjectID(i + 1), Version: 1}, blob(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites and deletes pile up garbage.
	for i := 0; i < 4; i++ {
		if err := putBlob(s, BlobKey{ID: core.ObjectID(i + 1), Version: 2}, blob(i, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(BlobKey{ID: core.ObjectID(i + 1), Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.segs); n < 2 {
		t.Fatalf("no rotation happened: %d segments", n)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Reopen replays the log; a torn tail on the newest segment is cut.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	last := names[len(names)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{segMagic, recKindPut, 0, 0, 0}) // half a header
	f.Close()

	r, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 8 {
		t.Fatalf("replayed Len = %d, want 8", r.Len())
	}
	for i := 0; i < 8; i++ {
		v := 1
		if i < 4 {
			v = 2
		}
		k := BlobKey{ID: core.ObjectID(i + 1), Version: v}
		got, err := readBlob(r, k)
		if err != nil || !bytes.Equal(got, blob(i, v)) {
			t.Fatalf("replayed %v = %q, %v", k, got, err)
		}
	}
	// Appends continue cleanly past the truncated tail.
	if err := putBlob(r, BlobKey{ID: 99, Version: 1}, []byte("after-truncate")); err != nil {
		t.Fatal(err)
	}

	if g := r.GarbageRatio(); g <= 0.3 {
		t.Fatalf("garbage ratio = %v, expected substantial garbage", g)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if r.Compactions != 1 {
		t.Fatalf("Compactions = %d", r.Compactions)
	}
	if g := r.GarbageRatio(); g != 0 {
		t.Fatalf("garbage ratio after compaction = %v", g)
	}
	if r.Len() != 9 {
		t.Fatalf("post-compaction Len = %d, want 9", r.Len())
	}
	for i := 0; i < 8; i++ {
		v := 1
		if i < 4 {
			v = 2
		}
		k := BlobKey{ID: core.ObjectID(i + 1), Version: v}
		if got, err := readBlob(r, k); err != nil || !bytes.Equal(got, blob(i, v)) {
			t.Fatalf("post-compaction %v = %q, %v", k, got, err)
		}
	}
	r.Close()

	// And the compacted log replays.
	r2, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 9 {
		t.Fatalf("compacted replay Len = %d, want 9", r2.Len())
	}
}

// TestManifestRoundTripRecoverFromDisk is process-restart crash recovery
// at the storage layer: save a manifest, build a fresh manager over the
// same data directory, and the restored placement serves the same bytes —
// including an object whose only current copy was on the (surviving)
// disk tier, and excluding the memory tier, which died with the process.
func TestManifestRoundTripRecoverFromDisk(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		if !s.onDisk {
			t.Skip("restart recovery needs file-backed tiers")
		}
		cfg := payloadCfg(t, s)
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AdmitBytes(1, 40, 1, 0.9, []byte("hot object")); err != nil {
			t.Fatal(err)
		}
		if err := m.AdmitBytes(2, 40, 1, 0.5, []byte("warm object")); err != nil {
			t.Fatal(err)
		}
		if err := admitMeta(m, 3, 10, 1, 0.4); err != nil { // metadata-only rides along
			t.Fatal(err)
		}
		m.Backup()
		if err := m.UpdateBytes(1, 2, []byte("hot object v2")); err != nil {
			t.Fatal(err)
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

		m2, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m2.Close()
		n, rep, err := m2.RecoverFromDisk()
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("restored %d objects, want 3", n)
		}
		if rep.Lost != 0 {
			t.Fatalf("lost %d objects across restart", rep.Lost)
		}
		mustInvariants(t, m2)
		// Object 1's v2 bytes lived on disk (tertiary backup lagged at v1):
		// recovery must adopt the surviving v2 disk copy, not the stale backup.
		res, data, err := fetch(m2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != 2 || string(data) != "hot object v2" {
			t.Fatalf("restart fetch = v%d %q, want v2 bytes", res.Version, data)
		}
		if _, data, err := fetch(m2, 2); err != nil || string(data) != "warm object" {
			t.Fatalf("restart fetch 2 = %q, %v", data, err)
		}
		if _, ok := m2.Contains(3); !ok {
			t.Fatal("metadata-only object lost across restart")
		}
		if p, ok := m2.Priority(2); !ok || p != 0.5 {
			t.Fatalf("priority not restored: %v %v", p, ok)
		}
		// A fresh directory is a fresh start, not an error.
		m3, err := NewManager(payloadCfg(t, s))
		if err != nil {
			t.Fatal(err)
		}
		defer m3.Close()
		if n, _, err := m3.RecoverFromDisk(); err != nil || n != 0 {
			t.Fatalf("fresh dir recover = %d, %v", n, err)
		}
	})
}
