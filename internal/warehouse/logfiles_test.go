package warehouse

// The warehouse's durable bytes live in segment logs: start-up and
// admission create no file per page, and a data directory written in the
// file-per-blob layout, or with a version archive beside the store, still
// opens.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
)

// dataDirFiles counts the regular files under dir and their bytes.
func dataDirFiles(t *testing.T, dir string) (n int, bytes int64) {
	t.Helper()
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n++
			bytes += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, bytes
}

// TestEmptyDataDirStartsWithoutFiles: opening and rehydrating a warehouse
// on an empty data directory creates no regular file, on every
// file-backed stack.
func TestEmptyDataDirStartsWithoutFiles(t *testing.T) {
	for _, s := range stacks[1:] {
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := core.NewSimClock(0)
			w, _ := persistFixture(t, s, dir, clock, persistWeb(t, clock))
			if _, err := w.Rehydrate(); err != nil {
				t.Fatal(err)
			}
			if n, _ := dataDirFiles(t, dir); n != 0 {
				t.Fatalf("start-up on an empty data dir created %d files, want 0", n)
			}
		})
	}
}

// TestAdmissionCreatesNoFile: admitting 100 and then 1,000 more 8 KiB
// pages grows the data directory's file count only by segment rotations
// — at most one file per 4 MB in each of the two logs (disk tier,
// tertiary tier) — never by a file per page.
func TestAdmissionCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	clock := core.NewSimClock(0)
	web := simweb.NewWeb(clock)
	web.AddSite("s.example", 30)
	const pages = 1100
	urls := make([]string, pages)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://s.example/p%04d", i)
		body := fmt.Sprintf("page %d ", i) + strings.Repeat("warehouse keeps every page it admits ", 8<<10/37)
		if err := web.AddPage(&core.Page{URL: urls[i], Title: "p", Body: body, Size: core.Bytes(len(body))}); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := persistFixture(t, stacks[1], dir, clock, web)
	admitted := 0
	for _, n := range []int{100, pages} {
		for ; admitted < n; admitted++ {
			if _, err := w.Get("u", urls[admitted]); err != nil {
				t.Fatalf("admit %s: %v", urls[admitted], err)
			}
		}
		files, bytes := dataDirFiles(t, dir)
		if limit := 2 + int(bytes/int64(4*core.MB)); files > limit {
			t.Fatalf("after %d admissions: %d files in %d bytes, want at most %d", n, files, bytes, limit)
		}
	}
}

// TestFilePerBlobDataDirMigrates: a data directory whose disk tier holds
// one file per blob (the fan-out layout) still opens. Every page is
// served without the origin, every snapshot materializes, and no fan-out
// directory is left behind.
func TestFilePerBlobDataDirMigrates(t *testing.T) {
	dir := t.TempDir()
	clock := core.NewSimClock(0)
	web := persistWeb(t, clock)
	urls := []string{"http://s.example/a", "http://s.example/b"}
	w1, _ := persistFixture(t, stacks[1], dir, clock, web)
	for _, url := range urls {
		if _, err := w1.Get("u", url); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the disk tier's log as the file-per-blob layout.
	writeAt := func(path string, data []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dropSegments := func(sub string) {
		t.Helper()
		segs, _ := filepath.Glob(filepath.Join(dir, sub, "seg-*.seg"))
		for _, p := range segs {
			os.Remove(p)
		}
	}
	disk, err := storage.OpenDiskStore(filepath.Join(dir, "store", "disk"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Len() == 0 {
		t.Fatal("disk tier empty: nothing to migrate")
	}
	for _, k := range disk.Keys() {
		br, err := disk.Open(k)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(br)
		br.Close()
		name := fmt.Sprintf("%d-v%d", uint64(k.ID), k.Version)
		if k.Summary {
			name += ".s"
		}
		writeAt(filepath.Join(dir, "store", "disk", fmt.Sprintf("%02x", uint64(k.ID)%256), name), data)
	}
	disk.Close()
	dropSegments(filepath.Join("store", "disk"))

	w2, origin := persistFixture(t, stacks[1], dir, clock, web)
	origin.down.Store(true)
	if n, err := w2.Rehydrate(); err != nil || n != len(urls) {
		t.Fatalf("rehydrated %d pages, %v; want %d", n, err, len(urls))
	}
	for _, url := range urls {
		res, err := w2.Get("u", url)
		if err != nil || !res.Hit {
			t.Fatalf("serve %s after migration: hit=%v, %v", url, res.Hit, err)
		}
		snap, ok := w2.Versions().Latest(url)
		if !ok {
			t.Fatalf("%s: no snapshot after migration", url)
		}
		if got, err := w2.Versions().Materialize(url, snap); err != nil || got.Body == "" {
			t.Fatalf("%s: Materialize after migration = %q, %v", url, got.Body, err)
		}
	}
	if origin.fetches != 0 {
		t.Errorf("migrated warehouse contacted the origin %d times", origin.fetches)
	}
	ents, _ := os.ReadDir(filepath.Join(dir, "store", "disk"))
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("fan-out directory store/disk/%s left behind", e.Name())
		}
	}
}

// TestParentDataDirOpens: testdata/parent-datadir was written by the
// build before history moved onto the anchor: page a at v1 and page b
// updated to v3, with every captured body also in a content-addressed
// archive (blobs/) and a versions.gob whose snapshots name their bodies
// there (BodyRef). It still opens: both pages rehydrate and are served
// with the origin down, and each current version materializes from the
// anchor. The superseded bodies of b lived only in the archive, which is
// no longer read: they report not stored.
func TestParentDataDirOpens(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-datadir")
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if gob, err := os.ReadFile(filepath.Join(dir, versionsName)); err != nil || !strings.Contains(string(gob), "BodyRef") {
		t.Fatalf("fixture's versions.gob names no BodyRef (%v)", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "blobs", "seg-*.seg")); len(segs) == 0 {
		t.Fatal("fixture holds no blobs/ archive")
	}

	clock := core.NewSimClock(0)
	w, origin := persistFixture(t, stacks[1], dir, clock, persistWeb(t, clock))
	origin.down.Store(true)
	if n, err := w.Rehydrate(); err != nil || n != 2 {
		t.Fatalf("rehydrated %d pages, %v; want 2", n, err)
	}
	for url, v := range map[string]int{"http://s.example/a": 1, "http://s.example/b": 3} {
		res, err := w.Get("u", url)
		if err != nil || !res.Hit || res.Page.Version != v {
			t.Fatalf("serve %s: hit=%v v%d, %v; want a hit at v%d", url, res.Hit, res.Page.Version, err, v)
		}
		snap, ok := w.Versions().Latest(url)
		if !ok || snap.Version != v {
			t.Fatalf("%s: latest snapshot %+v, %v", url, snap, ok)
		}
		if got, err := w.Versions().Materialize(url, snap); err != nil || got.Body != res.Page.Body {
			t.Errorf("%s: current version materializes as %q, %v; want the served body", url, got.Body, err)
		}
	}
	for _, sn := range w.Versions().History("http://s.example/b")[:2] {
		if _, err := w.Versions().Materialize("http://s.example/b", sn); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("superseded v%d: %v, want not stored", sn.Version, err)
		}
	}
	if origin.fetches != 0 {
		t.Errorf("contacted the origin %d times", origin.fetches)
	}
}
