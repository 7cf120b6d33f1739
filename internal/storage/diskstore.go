package storage

import (
	"io"

	"cbfww/internal/core"
)

// DiskStore is the disk tier's BlobStore: a bounded log, the records of an
// unmapped SegmentStore in the tier's directory. A write appends to an open
// segment and creates no file; a read verifies the record's CRC at open and
// sends the window by sendfile. The tier's capacity bounds the live bytes,
// and the manager's reclaim hook rewrites away the garbage.
//
// It adds nothing to the log but hiding it: it exports no Compact, because
// the wire benchmark's backend probe (benchmark/probes.go) times Compact on
// every backend that has one, and its metric catalogue names a compaction
// figure for the mmap and segment backends only. The wrapper goes once the
// probe names backends by read policy instead.
type DiskStore struct {
	log *SegmentStore
}

// OpenDiskStore opens (creating the directory if needed) a disk store in
// dir whose segments rotate at segSize.
func OpenDiskStore(dir string, segSize core.Bytes) (*DiskStore, error) {
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
