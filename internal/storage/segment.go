package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"cbfww/internal/core"
)

// SegmentStore is the append-only BlobStore backing the tertiary tier: a
// linear medium in the paper's sense, written front to back. Blobs are
// appended as self-describing records (see recordLog, magic 0xC5) to
// numbered segment files (seg-000000.seg, seg-000001.seg, ...), the active
// segment rotating once it exceeds the configured size; Compact rewrites
// the live set into fresh segments.
//
// On open, segments are replayed in order; the first record that fails to
// parse or checksum ends the usable data in that segment (a crashed writer
// only damages the tail), and a damaged tail in the newest segment is
// truncated away so appends resume cleanly.
type SegmentStore struct {
	recordLog // mu guards everything below but the segFile refcounts
	dir       string
	maxSize   core.Bytes

	files map[int]*segFile // open segment handles, by segment number
	segs  []int            // segment numbers, ascending; last is active
	// refMu guards the refs/retired fields of every segFile. Ordered
	// after mu: Open pins under the read lock, Compact retires under the
	// write lock, and a reader's Close takes only refMu.
	refMu      sync.Mutex
	activeSize int64 // append offset in the active segment
}

// segFile is one shared, refcounted segment file handle. Stream readers
// pin it (refs) instead of opening their own descriptor; a segment that
// Compact superseded is unlinked at once — the open descriptor keeps its
// bytes readable — and closed when the last in-flight reader drains.
type segFile struct {
	f       *os.File
	refs    int  // in-flight stream readers
	retired bool // superseded by Compact or Close
}

// releaseSegFile drops one reader's pin, closing the handle when the
// segment is retired and this was the last pin.
func (s *SegmentStore) releaseSegFile(sf *segFile) error {
	s.refMu.Lock()
	sf.refs--
	drained := sf.refs == 0 && sf.retired
	s.refMu.Unlock()
	if drained {
		return sf.f.Close()
	}
	return nil
}

// retireLocked marks the given segments' handles retired, drops them from
// the store and closes those no reader pins. Requires mu.
func (s *SegmentStore) retireLocked(segs []int) error {
	var drained []*segFile
	s.refMu.Lock()
	for _, n := range segs {
		sf := s.files[n]
		delete(s.files, n)
		sf.retired = true
		if sf.refs == 0 {
			drained = append(drained, sf)
		}
	}
	s.refMu.Unlock()
	var first error
	for _, sf := range drained {
		if err := sf.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

const segMagic = 0xC5

func segName(n int) string { return fmt.Sprintf("seg-%06d.seg", n) }

func (s *SegmentStore) segPath(n int) string { return filepath.Join(s.dir, segName(n)) }

// OpenSegmentStore opens (creating if needed) a segment store in dir,
// replaying every segment to rebuild the key index.
func OpenSegmentStore(dir string, maxSize core.Bytes) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open segment store: %w", err)
	}
	if maxSize <= 0 {
		maxSize = 4 * core.MB
	}
	s := &SegmentStore{
		recordLog: recordLog{magic: segMagic, index: make(map[BlobKey]recLoc)},
		dir:       dir,
		maxSize:   maxSize,
		files:     make(map[int]*segFile),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: open segment store: %w", err)
	}
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.seg", &n); err == nil {
			s.segs = append(s.segs, n)
		}
	}
	sort.Ints(s.segs)
	for i, n := range s.segs {
		if err := s.replaySegment(n, i == len(s.segs)-1); err != nil {
			s.Close()
			return nil, err
		}
	}
	if len(s.segs) == 0 {
		if err := s.rotateLocked(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replaySegment scans one segment file, applying its intact record prefix
// to the index. When active (the newest segment), a damaged tail is
// truncated so subsequent appends start from a clean offset.
func (s *SegmentStore) replaySegment(n int, active bool) error {
	f, err := os.OpenFile(s.segPath(n), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: replay segment %d: %w", n, err)
	}
	s.files[n] = &segFile{f: f}
	var off int64
	hdr := make([]byte, recHeaderLen)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			break // clean EOF or truncated header: end of usable data
		}
		kind, k, length, ok := s.parseHeader(hdr)
		if !ok {
			break
		}
		body := make([]byte, length+recTrailerLen)
		if _, err := io.ReadFull(f, body); err != nil {
			break
		}
		if binary.BigEndian.Uint32(body[length:]) != recCRC(hdr, body[:length]) {
			break
		}
		s.note(kind, k, recLoc{seg: n, off: off + recHeaderLen, n: length})
		off += recLen(length)
	}
	if active {
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("storage: replay segment %d: %w", n, err)
		}
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return fmt.Errorf("storage: replay segment %d: %w", n, err)
		}
		s.activeSize = off
	}
	return nil
}

// rotateLocked opens the next segment file as the append target. Segment
// numbers never repeat, so replay order stays honest.
func (s *SegmentStore) rotateLocked() error {
	next := 0
	if len(s.segs) > 0 {
		next = s.segs[len(s.segs)-1] + 1
	}
	f, err := os.OpenFile(s.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: rotate segment: %w", err)
	}
	s.segs = append(s.segs, next)
	s.files[next] = &segFile{f: f}
	s.activeSize = 0
	return nil
}

// appendLocked writes one record to the active segment (rotating first if
// it is full), streaming the n-byte payload from r through a pooled chunk
// buffer. The header rides in front of the first chunk and the trailer
// behind the last, so a record that fits the buffer costs one write(2).
// On any failure the segment is truncated back to the record start so the
// append offset stays clean. The index is the caller's to update.
func (s *SegmentStore) appendLocked(kind byte, k BlobKey, r io.Reader, n int64) (recLoc, error) {
	if s.activeSize >= int64(s.maxSize) {
		if err := s.rotateLocked(); err != nil {
			return recLoc{}, err
		}
	}
	seg := s.segs[len(s.segs)-1]
	f := s.files[seg].f
	start := s.activeSize
	buf := CopyBuffer()
	defer PutCopyBuffer(buf)
	s.putHeader(buf, kind, k, int(n))
	fill, left, crc := recHeaderLen, n, uint32(0)
	var err error
	for done := false; !done && err == nil; {
		if take := int(min(left, int64(len(buf)-fill))); take > 0 {
			if _, err = io.ReadFull(r, buf[fill:fill+take]); err != nil {
				break
			}
			fill, left = fill+take, left-int64(take)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:fill])
		if left == 0 && len(buf)-fill >= recTrailerLen {
			binary.BigEndian.PutUint32(buf[fill:], crc)
			fill += recTrailerLen
			done = true
		}
		_, err = f.Write(buf[:fill])
		fill = 0
	}
	if err != nil {
		f.Truncate(start)
		f.Seek(start, io.SeekStart)
		return recLoc{}, fmt.Errorf("storage: segment append %v: %w", k, err)
	}
	s.activeSize = start + recLen(int(n))
	return recLoc{seg: seg, off: start + recHeaderLen, n: int(n)}, nil
}

func (s *SegmentStore) PutFrom(k BlobKey, r io.Reader, n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, err := s.appendLocked(recKindPut, k, r, n)
	if err != nil {
		return err
	}
	s.note(recKindPut, k, loc)
	return nil
}

func (s *SegmentStore) Delete(k BlobKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[k]; !ok {
		return nil
	}
	if _, err := s.appendLocked(recKindDelete, k, nil, 0); err != nil {
		return err
	}
	s.note(recKindDelete, k, recLoc{})
	return nil
}

// Open verifies the record's frame and payload CRC, then returns a pread
// window over the payload. Verification streams through a pooled chunk
// buffer — the body is never materialized — and any mismatch (torn
// header, truncated payload, bad checksum) surfaces as core.ErrCorrupt
// rather than a short read at serve time. The reader pins the store's
// shared segment handle (a refcount taken under the read lock, so
// Compact — which needs the write lock — cannot retire the file first);
// once Open returns, the pin keeps the window readable even if Compact
// retires the segment while the stream is still in flight. Verification
// itself runs after the lock is dropped — the pin alone keeps the bytes
// stable, since old segment bytes are never overwritten.
func (s *SegmentStore) Open(k BlobKey) (BlobReader, error) {
	s.mu.RLock()
	loc, ok := s.index[k]
	var sf *segFile
	if ok {
		sf = s.files[loc.seg]
		s.refMu.Lock()
		sf.refs++
		s.refMu.Unlock()
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: segment open %v: %w", k, core.ErrNotFound)
	}
	fail := func(what string) error {
		s.releaseSegFile(sf)
		return fmt.Errorf("storage: segment open %v: %s: %w", k, what, core.ErrCorrupt)
	}
	f := sf.f
	var hdr [recHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], loc.off-recHeaderLen); err != nil {
		return nil, fail("torn header")
	}
	if !s.frames(hdr[:], k, loc.n) {
		return nil, fail("frame mismatch")
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	buf := CopyBuffer()
	_, err := io.CopyBuffer(onlyWriter{crc}, io.NewSectionReader(f, loc.off, int64(loc.n)), buf)
	PutCopyBuffer(buf)
	if err != nil {
		return nil, fail("torn payload")
	}
	var trailer [recTrailerLen]byte
	if _, err := f.ReadAt(trailer[:], loc.off+int64(loc.n)); err != nil {
		return nil, fail("torn trailer")
	}
	if binary.BigEndian.Uint32(trailer[:]) != crc.Sum32() {
		return nil, fail("checksum mismatch")
	}
	return &sectionReader{
		sr:      io.NewSectionReader(f, loc.off, int64(loc.n)),
		size:    int64(loc.n),
		release: func() error { return s.releaseSegFile(sf) },
	}, nil
}

// Sync fsyncs the active segment and the store directory.
func (s *SegmentStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) > 0 {
		if err := s.files[s.segs[len(s.segs)-1]].f.Sync(); err != nil {
			return fmt.Errorf("storage: segment sync: %w", err)
		}
	}
	return syncDir(s.dir)
}

// Close releases the store's segment handles. Handles pinned by
// in-flight stream readers are retired instead: their close happens when
// the last reader drains, so shutdown never yanks bytes out from under a
// stream.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]int, 0, len(s.files))
	for n := range s.files {
		all = append(all, n)
	}
	return s.retireLocked(all)
}

// Compact rewrites the live records into fresh segments and retires the
// old files — stop-the-world for writers and new opens, but safe against
// in-flight streams, which keep reading their pinned handles.
//
// The anchor tier must not be losable, so nothing old is touched until the
// new generation is durable: records stream one by one from the old
// segments into new ones (peak heap is one chunk buffer), the new files
// and the directory are synced, and only then are the old files unlinked,
// oldest first. A failure before that point removes the partial new
// segments and leaves the store as it was; a crash at any point leaves
// old segments, new segments or both, and since segment numbers never
// repeat a replay of any such mix rebuilds the same index.
func (s *SegmentStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, oldActive := s.segs, s.activeSize
	if err := s.rotateLocked(); err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	abort := func(err error) error {
		for _, n := range s.segs[len(old):] {
			s.files[n].f.Close()
			os.Remove(s.segPath(n))
			delete(s.files, n)
		}
		s.segs, s.activeSize = old, oldActive
		return fmt.Errorf("storage: compact: %w", err)
	}
	index := make(map[BlobKey]recLoc, len(s.index))
	var live int64
	for _, k := range s.liveKeysLocked() {
		loc := s.index[k]
		src := io.NewSectionReader(s.files[loc.seg].f, loc.off, int64(loc.n))
		nl, err := s.appendLocked(recKindPut, k, src, int64(loc.n))
		if err != nil {
			return abort(err)
		}
		index[k] = nl
		live += recLen(nl.n)
	}
	for _, n := range s.segs[len(old):] {
		if err := s.files[n].f.Sync(); err != nil {
			return abort(err)
		}
	}
	if err := syncDir(s.dir); err != nil {
		return abort(err)
	}
	s.segs = append([]int(nil), s.segs[len(old):]...)
	s.index, s.liveBytes, s.deadBytes = index, live, 0
	s.Compactions++
	// Oldest first, so what a crash leaves is always a suffix of the old
	// log: a put never outlives the later tombstone that cancels it.
	var first error
	for _, n := range old {
		if err := os.Remove(s.segPath(n)); err != nil && first == nil {
			first = fmt.Errorf("storage: compact remove segment: %w", err)
		}
	}
	if err := s.retireLocked(old); err != nil && first == nil {
		first = fmt.Errorf("storage: compact remove segment: %w", err)
	}
	return first
}
