package version

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cbfww/internal/core"
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

// bodySource is a Bodies that holds every body written to it and serves
// only the versions kept.
type bodySource struct {
	bodies map[string]string // "url vN" -> body
	kept   map[string]bool
}

func newBodySource() *bodySource {
	return &bodySource{bodies: map[string]string{}, kept: map[string]bool{}}
}

func key(url string, v int) string { return fmt.Sprintf("%s v%d", url, v) }

func (b *bodySource) Keep(url string, v int)    { b.kept[key(url, v)] = true }
func (b *bodySource) Release(url string, v int) { delete(b.kept, key(url, v)) }
func (b *bodySource) Body(url string, v int) (string, error) {
	if !b.kept[key(url, v)] {
		return "", core.ErrNotFound
	}
	return b.bodies[key(url, v)], nil
}

// TestBodySourceKeepsWhatTheStoreLists: a store over a body source keeps
// no body inline, keeps each captured version in the source and releases
// exactly the versions it prunes, before and after a save and reload; a
// reloaded store registers nothing itself, and a version the source no
// longer holds fails to materialize rather than read as empty.
func TestBodySourceKeepsWhatTheStoreLists(t *testing.T) {
	src := newBodySource()
	s := NewStoreOn(1, src)
	capture := func(s *Store, url string, sn Snapshot) {
		t.Helper()
		src.bodies[key(url, sn.Version)] = sn.Body
		if err := s.Capture(url, sn); err != nil {
			t.Fatal(err)
		}
	}
	capture(s, "http://a/x", snap(1, 10, "first body"))
	capture(s, "http://b/y", snap(1, 10, "other body"))
	latest, _ := s.Latest("http://a/x")
	if latest.Body != "" {
		t.Errorf("stored snapshot carries body %q", latest.Body)
	}
	if got, err := s.Materialize("http://a/x", latest); err != nil || got.Body != "first body" {
		t.Errorf("Materialize = %q, %v", got.Body, err)
	}
	capture(s, "http://a/x", snap(2, 20, "a moved on"))
	want := map[string]bool{key("http://a/x", 2): true, key("http://b/y", 1): true}
	if !reflect.DeepEqual(src.kept, want) {
		t.Errorf("kept after prune = %v, want %v", src.kept, want)
	}

	path := filepath.Join(t.TempDir(), "versions.gob")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	src2 := newBodySource()
	src2.bodies = src.bodies
	s2 := NewStoreOn(1, src2)
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if len(src2.kept) != 0 {
		t.Errorf("LoadFile kept %v", src2.kept)
	}
	latest, _ = s2.Latest("http://b/y")
	if _, err := s2.Materialize("http://b/y", latest); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Materialize of an unkept version: %v, want ErrNotFound", err)
	}
	src2.Keep("http://a/x", 2)
	src2.Keep("http://b/y", 1)
	src = src2
	capture(s2, "http://a/x", snap(3, 30, "third"))
	want = map[string]bool{key("http://a/x", 3): true, key("http://b/y", 1): true}
	if !reflect.DeepEqual(src2.kept, want) {
		t.Errorf("kept after reload and prune = %v, want %v", src2.kept, want)
	}
	if got, err := s2.Materialize("http://b/y", latest); err != nil || got.Body != "other body" {
		t.Errorf("Materialize of the other URL after prune = %q, %v", got.Body, err)
	}
}
