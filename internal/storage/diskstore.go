package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cbfww/internal/core"
)

// DiskStore is the disk tier's BlobStore: a bounded log, the records of a
// SegmentStore in the tier's directory. A write appends to an open segment
// and creates no file; a read verifies the record's CRC at open and sends
// the window by sendfile. The tier's capacity bounds the live bytes, and
// the manager's reclaim hook rewrites away the garbage.
//
// It holds its log rather than embedding it, so it exports no Compact:
// the wire benchmark's backend probe (benchmark/probes.go) times Compact
// only on the mmap and segment backends.
type DiskStore struct {
	log *SegmentStore
}

// OpenDiskStore opens (creating the directory if needed) a disk store in
// dir whose segments rotate at segSize. A tree left by the file-per-blob
// layout (fan-out directories, temp files) is removed unread:
// RecoverFromDisk re-derives those copies from the anchor.
func OpenDiskStore(dir string, segSize core.Bytes) (*DiskStore, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: open disk store: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".blob-") {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("storage: open disk store: %w", err)
			}
		}
	}
	log, err := OpenSegmentStore(dir, segSize)
	if err != nil {
		return nil, err
	}
	return &DiskStore{log: log}, nil
}

func (s *DiskStore) Open(k BlobKey) (BlobReader, error) { return s.log.Open(k) }

func (s *DiskStore) PutFrom(k BlobKey, r io.Reader, n int64) error { return s.log.PutFrom(k, r, n) }

func (s *DiskStore) Delete(k BlobKey) error  { return s.log.Delete(k) }
func (s *DiskStore) Contains(k BlobKey) bool { return s.log.Contains(k) }
func (s *DiskStore) Keys() []BlobKey         { return s.log.Keys() }
func (s *DiskStore) Len() int                { return s.log.Len() }
func (s *DiskStore) Sync() error             { return s.log.Sync() }
func (s *DiskStore) Close() error            { return s.log.Close() }

func (s *DiskStore) reclaim(maxGarbage float64) error { return s.log.reclaim(maxGarbage) }

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
