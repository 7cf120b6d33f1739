package version

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cbfww/internal/blob"
)

func populated(t *testing.T) *Store {
	t.Helper()
	s := NewStore(4)
	s.Capture("http://a/x", snap(1, 10, "first body"))
	s.Capture("http://a/x", snap(2, 20, "second body longer"))
	s.Capture("http://b/y", snap(1, 15, "other"))
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := populated(t)
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(0)
	if err := s2.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2.URLs(), s.URLs()) {
		t.Errorf("URLs = %v, want %v", s2.URLs(), s.URLs())
	}
	for _, url := range s.URLs() {
		if !reflect.DeepEqual(s2.History(url), s.History(url)) {
			t.Errorf("history mismatch for %s", url)
		}
	}
	if s2.Bytes() != s.Bytes() {
		t.Errorf("Bytes = %v, want %v", s2.Bytes(), s.Bytes())
	}
	// MaxDepth restored: a 5th capture on x must evict.
	s2.Capture("http://a/x", snap(3, 30, "3"))
	s2.Capture("http://a/x", snap(4, 40, "4"))
	s2.Capture("http://a/x", snap(5, 50, "5"))
	if d := s2.Depth("http://a/x"); d != 4 {
		t.Errorf("depth after reload = %d, want maxDepth 4", d)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := NewStore(0)
	if err := s.LoadFrom(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage accepted")
	}
	// Wrong magic.
	other := NewStore(0)
	var buf bytes.Buffer
	if err := other.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic bytes in place.
	b := buf.Bytes()
	if i := bytes.Index(b, []byte("cbfww-versions")); i >= 0 {
		copy(b[i:], []byte("xxxxx-versions"))
	}
	if err := s.LoadFrom(bytes.NewReader(b)); err == nil {
		t.Error("wrong magic accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := populated(t)
	path := filepath.Join(t.TempDir(), "versions.gob")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(0)
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.Depth("http://a/x") != 2 {
		t.Errorf("depth = %d", s2.Depth("http://a/x"))
	}
	if err := s2.LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestReloadedArchiveKeepsSharedBodies: two URLs that captured the same
// body share one archive record. After a save and a reopen, pruning one
// URL's snapshot must not collect the body the other still references,
// and a body no saved snapshot references is collected.
func TestReloadedArchiveKeepsSharedBodies(t *testing.T) {
	dir := t.TempDir()
	blobs := filepath.Join(dir, "blobs")
	path := filepath.Join(dir, "versions.gob")
	bs, err := blob.Open(blobs)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(1)
	s.UseBlobs(bs)
	for _, url := range []string{"http://a/x", "http://b/y"} {
		if err := s.Capture(url, snap(1, 10, "one shared body")); err != nil {
			t.Fatal(err)
		}
	}
	orphan, err := bs.Put([]byte("captured after the save"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	bs.Close()

	bs2, err := blob.Open(blobs)
	if err != nil {
		t.Fatal(err)
	}
	defer bs2.Close()
	s2 := NewStore(1)
	s2.UseBlobs(bs2)
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if n := bs2.RefCount(orphan); n != 0 {
		t.Errorf("unreferenced body kept with %d refs after load", n)
	}
	if err := s2.Capture("http://a/x", snap(2, 20, "a moved on")); err != nil {
		t.Fatal(err)
	}
	latest, _ := s2.Latest("http://b/y")
	got, err := s2.Materialize(latest)
	if err != nil {
		t.Fatalf("Materialize of the other URL after prune: %v", err)
	}
	if got.Body != "one shared body" {
		t.Errorf("body = %q", got.Body)
	}
}
