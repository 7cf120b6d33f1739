package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t)
	content := []byte("the festival parade passes through the city center")
	ref, err := s.Put(content)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Valid() {
		t.Fatalf("invalid ref %q", ref)
	}
	got, err := s.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("Get = %q", got)
	}
	if s.Len() != 1 || s.Size() != core.Bytes(len(content)) {
		t.Errorf("Len=%d Size=%v", s.Len(), s.Size())
	}
}

func TestDedupSharedContent(t *testing.T) {
	s := newStore(t)
	img := bytes.Repeat([]byte("PNG"), 1000)
	// Ten pages embed the same image.
	var refs []Ref
	for i := 0; i < 10; i++ {
		r, err := s.Put(img)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	for _, r := range refs[1:] {
		if r != refs[0] {
			t.Fatal("identical content produced different refs")
		}
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (deduped)", s.Len())
	}
	if s.RefCount(refs[0]) != 10 {
		t.Errorf("RefCount = %d", s.RefCount(refs[0]))
	}
	if s.Size() != core.Bytes(len(img)) {
		t.Errorf("Size = %v, want one copy", s.Size())
	}
}

func TestReleaseGarbageCollects(t *testing.T) {
	s := newStore(t)
	ref, _ := s.Put([]byte("a"))
	s.Put([]byte("a")) // refcount 2
	if err := s.Release(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); err != nil {
		t.Fatalf("blob gone with refs remaining: %v", err)
	}
	if err := s.Release(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get after GC err = %v", err)
	}
	if s.Len() != 0 || s.Size() != 0 {
		t.Errorf("Len=%d Size=%v after GC", s.Len(), s.Size())
	}
	if err := s.Release(ref); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("double release err = %v", err)
	}
}

func TestGetErrors(t *testing.T) {
	s := newStore(t)
	if _, err := s.Get("zz"); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("bad ref err = %v", err)
	}
	missing := Ref("0000000000000000000000000000000000000000000000000000000000000000")
	if _, err := s.Get(missing); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("missing ref err = %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := s.Put([]byte("pristine content"))
	// Flip a byte of the body inside the archive's segment.
	path := filepath.Join(dir, "seg-000000.seg")
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg[bytes.Index(seg, []byte("pristine"))] ^= 0x20
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); err == nil {
		t.Error("corrupted blob served")
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get(ref); err == nil {
		t.Error("corrupted blob served after reopen")
	}
}

func TestReopenReindexes(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	ref, _ := s.Put([]byte("survives restarts"))
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives restarts" {
		t.Errorf("Get after reopen = %q", got)
	}
	if s2.Len() != 1 || s2.RefCount(ref) != 1 {
		t.Errorf("reopen state: Len=%d rc=%d", s2.Len(), s2.RefCount(ref))
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("empty root err = %v", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := newStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				content := []byte(fmt.Sprintf("doc %d", i%10)) // heavy sharing
				ref, err := s.Put(content)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(ref); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 10 {
		t.Errorf("Len = %d, want 10 distinct", s.Len())
	}
	if got := s.RefCount(s.Refs()[0]); got != 40 {
		t.Errorf("RefCount = %d, want 40", got)
	}
}

// Property: Put/Get round-trips arbitrary bytes, and refs are stable.
func TestPutGetProperty(t *testing.T) {
	s := newStore(t)
	f := func(content []byte) bool {
		r1, err := s.Put(content)
		if err != nil {
			return false
		}
		r2, err := s.Put(content)
		if err != nil || r1 != r2 {
			return false
		}
		got, err := s.Get(r1)
		return err == nil && bytes.Equal(got, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPutCreatesNoFile: bodies are records of one segment log, so many
// distinct Puts leave a single file in the root.
func TestPutCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("body %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("%d entries in the root after 200 Puts, want 1 segment", len(ents))
	}
}

// TestPutRefusesSharedKey: a body whose 64-bit key is already held by a
// different live blob is refused, never overwritten.
func TestPutRefusesSharedKey(t *testing.T) {
	s := newStore(t)
	content := []byte("the body that arrives second")
	sum := sha256.Sum256(content)
	ref := Ref(hex.EncodeToString(sum[:]))
	other := []byte("a different body under the same key")
	if err := s.log.PutFrom(ref.key(), bytes.NewReader(other), int64(len(other))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(content); !errors.Is(err, core.ErrExists) {
		t.Fatalf("Put over a shared key: err = %v, want ErrExists", err)
	}
	br, err := s.log.Open(ref.key())
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if got, _ := io.ReadAll(br); !bytes.Equal(got, other) {
		t.Fatalf("the live record was overwritten: %q", got)
	}
}

// TestRetainRecountsAndCollects: Retain sets the counts a reopened store
// cannot know and collects what nothing references.
func TestRetainRecountsAndCollects(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	shared, _ := s.Put([]byte("shared"))
	orphan, _ := s.Put([]byte("orphan"))
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Retain(map[Ref]int{shared: 2, "0000000000000000000000000000000000000000000000000000000000000000": 1}); err != nil {
		t.Fatal(err)
	}
	if s2.RefCount(shared) != 2 || s2.Len() != 1 || s2.Size() != core.Bytes(len("shared")) {
		t.Fatalf("after Retain: rc=%d Len=%d Size=%v", s2.RefCount(shared), s2.Len(), s2.Size())
	}
	if _, err := s2.Get(orphan); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unreferenced blob still served: %v", err)
	}
	s2.Release(shared)
	if _, err := s2.Get(shared); err != nil {
		t.Fatalf("blob gone with a reference left: %v", err)
	}
}

// TestOpenMigratesFilePerBlobTree: a root laid out as one file per blob
// (root/ab/cdef...) is carried into the log — a file whose content does
// not match its name is not — and the tree is removed.
func TestOpenMigratesFilePerBlobTree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, content []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, name[:2]), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name[:2], name[2:]), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	good := []byte("carried over")
	sum := sha256.Sum256(good)
	ref := Ref(hex.EncodeToString(sum[:]))
	write(string(ref), good)
	bad := sha256.Sum256([]byte("what the name promises"))
	write(hex.EncodeToString(bad[:]), []byte("tampered"))
	write(string(ref)+".tmp", good[:4]) // a crashed writer's temp file

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(ref); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("migrated Get = %q, %v", got, err)
	}
	if s.Len() != 1 || s.RefCount(ref) != 1 {
		t.Fatalf("after migration: Len=%d rc=%d, want 1 and 1", s.Len(), s.RefCount(ref))
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("fan-out directory %s left behind", e.Name())
		}
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get(ref); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("Get after reopening the migrated store = %q, %v", got, err)
	}
}
