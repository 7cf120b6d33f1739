package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// syncFile fsyncs one file or directory; a variable so white-box tests
// can watch the order of the syncs.
var syncFile = (*os.File).Sync

// WriteFileAtomic replaces path with the bytes write produces, all or
// nothing: they go to a temp file in path's directory, which is fsynced,
// renamed over path, and made durable by an fsync of the directory. No
// temp file outlives the call, and a failure before the rename leaves
// path as it was.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("core: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	err = write(tmp)
	if err == nil {
		err = syncFile(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("core: write %s: %w", path, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making the creations, renames and removals
// within it durable.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: sync dir: %w", err)
	}
	defer f.Close()
	if err := syncFile(f); err != nil {
		return fmt.Errorf("core: sync dir %s: %w", dir, err)
	}
	return nil
}
