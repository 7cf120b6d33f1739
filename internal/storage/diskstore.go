package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"cbfww/internal/core"
)

// DiskStore is the file-per-blob BlobStore backing the disk tier. Each
// blob lives in its own file under the root:
//
//	<root>/<id mod 256, hex>/<id>-v<version>[.s]
//
// The 256 fan-out directories keep listings short at warehouse scale. A
// write goes to a temp file in the root and is renamed into place, so a
// crash never leaves a torn blob — only a whole old one, a whole new one,
// or a stray temp file that OpenDiskStore sweeps away. The key set is mirrored in an
// in-memory index rebuilt by walking the tree on Open, which is what
// makes crash recovery possible: surviving files *are* the store.
type DiskStore struct {
	root string

	mu    sync.RWMutex
	index map[BlobKey]struct{}
}

// OpenDiskStore opens (creating if needed) a disk store rooted at dir and
// rebuilds its index from the files present, deleting leftover temp files
// from a crashed writer.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open disk store: %w", err)
	}
	s := &DiskStore{root: dir, index: make(map[BlobKey]struct{})}
	sub, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: open disk store: %w", err)
	}
	for _, d := range sub {
		if !d.IsDir() {
			if strings.HasPrefix(d.Name(), ".blob-") {
				os.Remove(filepath.Join(dir, d.Name()))
			}
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, d.Name()))
		if err != nil {
			return nil, fmt.Errorf("storage: open disk store: %w", err)
		}
		for _, f := range files {
			if k, ok := parseBlobName(f.Name()); ok {
				s.index[k] = struct{}{}
			}
		}
	}
	return s, nil
}

// parseBlobName inverts BlobKey.String.
func parseBlobName(name string) (BlobKey, bool) {
	var k BlobKey
	if strings.HasSuffix(name, ".s") {
		k.Summary = true
		name = strings.TrimSuffix(name, ".s")
	}
	id, ver, ok := strings.Cut(name, "-v")
	if !ok {
		return BlobKey{}, false
	}
	n, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return BlobKey{}, false
	}
	v, err := strconv.Atoi(ver)
	if err != nil || v < 0 {
		return BlobKey{}, false
	}
	k.ID = core.ObjectID(n)
	k.Version = v
	return k, true
}

// path returns the blob file path for k.
func (s *DiskStore) path(k BlobKey) string {
	return filepath.Join(s.root, fmt.Sprintf("%02x", uint64(k.ID)%256), k.String())
}

// Open returns the blob's file, opened for reading. The caller owns the
// handle; an unlink (Delete, version turnover) while the stream is in
// flight is harmless — the open descriptor keeps the bytes readable.
func (s *DiskStore) Open(k BlobKey) (BlobReader, error) {
	s.mu.RLock()
	_, ok := s.index[k]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: disk open %v: %w", k, core.ErrNotFound)
	}
	f, err := os.Open(s.path(k))
	if err != nil {
		return nil, fmt.Errorf("storage: disk open %v: %w", k, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: disk open %v: %w", k, err)
	}
	return &fileReader{f: f, size: fi.Size()}, nil
}

// PutFrom streams n bytes from r into a temp file and renames it into
// place, so a crash never leaves a torn blob. io.Copy negotiates the
// cheapest transfer with r: one Write for a resident slice (putBlob),
// copy_file_range for disk→disk migrations.
func (s *DiskStore) PutFrom(k BlobKey, r io.Reader, n int64) error {
	dst := s.path(k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("storage: disk put %v: %w", k, err)
	}
	tmp, err := os.CreateTemp(s.root, ".blob-*")
	if err != nil {
		return fmt.Errorf("storage: disk put %v: %w", k, err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	written, err := io.Copy(tmp, r)
	if err == nil && written != n {
		err = fmt.Errorf("wrote %d of %d bytes", written, n)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("storage: disk put %v: %w", k, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: disk put %v: %w", k, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("storage: disk put %v: %w", k, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("storage: disk put %v: %w", k, err)
	}
	s.mu.Lock()
	s.index[k] = struct{}{}
	s.mu.Unlock()
	return nil
}

func (s *DiskStore) Delete(k BlobKey) error {
	s.mu.Lock()
	_, ok := s.index[k]
	delete(s.index, k)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	if err := os.Remove(s.path(k)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: disk delete %v: %w", k, err)
	}
	return nil
}

func (s *DiskStore) Contains(k BlobKey) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[k]
	return ok
}

func (s *DiskStore) Keys() []BlobKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]BlobKey, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	return keys
}

func (s *DiskStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Sync fsyncs the fan-out directories so renames performed since the last
// sync are durable. Blob contents are fsynced at PutFrom time.
func (s *DiskStore) Sync() error {
	sub, err := os.ReadDir(s.root)
	if err != nil {
		return fmt.Errorf("storage: disk sync: %w", err)
	}
	for _, d := range sub {
		if !d.IsDir() {
			continue
		}
		if err := syncDir(filepath.Join(s.root, d.Name())); err != nil {
			return err
		}
	}
	return syncDir(s.root)
}

func (s *DiskStore) Close() error { return nil }

// syncDir fsyncs a directory (making renames within it durable).
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return nil
}
