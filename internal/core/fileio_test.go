package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicSyncOrder: the temp file is fsynced before the
// rename publishes it, and the directory after, so a crash leaves either
// the old file or the complete new one.
func TestWriteFileAtomicSyncOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
	var order []string
	syncFile = func(f *os.File) error {
		cur, _ := os.ReadFile(path)
		switch f.Name() {
		case dir:
			order = append(order, "dir:"+string(cur))
		default:
			order = append(order, "file:"+string(cur))
		}
		return f.Sync()
	}
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The file sync sees path still old (before the rename); the dir sync
	// sees it new (after).
	if len(order) != 2 || order[0] != "file:old" || order[1] != "dir:new" {
		t.Fatalf("syncs = %v, want [file:old dir:new]", order)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("dir holds %d entries, want only the target", len(ents))
	}
}

// TestWriteFileAtomicFailureKeepsOld: a write that fails, or a temp file
// whose fsync fails, leaves the old file intact and no temp file behind.
func TestWriteFileAtomicFailureKeepsOld(t *testing.T) {
	boom := errors.New("boom")
	for name, fail := range map[string]struct{ write, sync bool }{
		"write": {write: true},
		"sync":  {sync: true},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
			syncFile = func(f *os.File) error {
				if fail.sync {
					return boom
				}
				return f.Sync()
			}
			err := WriteFileAtomic(path, func(w io.Writer) error {
				io.WriteString(w, "half")
				if fail.write {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
				t.Fatalf("target = %q, %v; want the old contents", got, err)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 1 {
				t.Fatalf("dir holds %d entries after a failed write, want only the target", len(ents))
			}
		})
	}
}
