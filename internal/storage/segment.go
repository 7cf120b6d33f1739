package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"cbfww/internal/core"
)

// SegmentStore is the append-only BlobStore backing every file-backed
// tier: the tertiary tier's linear medium in the paper's sense, written
// front to back, the disk tier's bounded log (under DiskStore), the mmap
// tier's mapped log, and the log under internal/blob. Blobs are appended
// as self-describing records (see recordLog, magic 0xC5) to numbered segment
// files (seg-000000.seg, ...), created by the first append and rotated
// before an append that would take a non-empty segment past the
// configured size — a record larger than that gets a segment of its own;
// Compact rewrites the live set into fresh segments.
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
	// nextSeg numbers the next segment: numbers never repeat, so replay
	// order stays honest.
	nextSeg int
	// unsynced is the oldest segment appended to since the last Sync (-1:
	// none); appends go to the active segment, so all after it are too.
	unsynced int
	// refMu guards the refs/retired fields of every segFile. Ordered
	// after mu: Open pins under the read lock, Compact retires under the
	// write lock, and a reader's Close takes only refMu.
	refMu      sync.Mutex
	activeSize int64 // append offset in the active segment
	// activeCap bounds the active segment: max(maxSize, its first record
	// or its replayed length). An append that would pass it rotates first.
	activeCap int64
	// mapped: every segment handle also carries a read-only mapping of
	// activeCap bytes or more, and Open serves windows into it.
	mapped bool
}

// segFile is one shared, refcounted segment file handle. Stream readers
// pin it (refs) instead of opening their own descriptor; a segment that
// Compact superseded is unlinked at once — the open descriptor keeps its
// bytes readable — and closed when the last in-flight reader drains.
type segFile struct {
	f       *os.File
	data    []byte // read-only MAP_SHARED mapping; nil unless the store is mapped
	refs    int    // in-flight stream readers
	retired bool   // superseded by Compact or Close
}

// close unmaps and closes a handle no reader pins.
func (sf *segFile) close() error {
	var err error
	if sf.data != nil {
		err = syscall.Munmap(sf.data)
		sf.data = nil
	}
	if cerr := sf.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// mapSeg maps n bytes of sf read-only when the store serves from
// mappings. n may exceed the file: a segment never outgrows its mapping
// (see activeCap), and reads touch only the pages of fully written
// records, never one past the end of the file.
func (s *SegmentStore) mapSeg(sf *segFile, n int64) error {
	if !s.mapped {
		return nil
	}
	data, err := syscall.Mmap(int(sf.f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("storage: map segment: %w", err)
	}
	sf.data = data
	return nil
}

// pin looks k up and pins its segment against retirement. The refcount
// is taken under the read lock, so Compact — which needs the write lock —
// cannot retire the segment first; once pinned, the handle (and its
// mapping) stays open until releaseSegFile.
func (s *SegmentStore) pin(k BlobKey) (recLoc, *segFile, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.index[k]
	if !ok {
		return loc, nil, false
	}
	sf := s.files[loc.seg]
	s.refMu.Lock()
	sf.refs++
	s.refMu.Unlock()
	return loc, sf, true
}

// releaseSegFile drops one reader's pin, closing the handle when the
// segment is retired and this was the last pin.
func (s *SegmentStore) releaseSegFile(sf *segFile) error {
	s.refMu.Lock()
	sf.refs--
	drained := sf.refs == 0 && sf.retired
	s.refMu.Unlock()
	if drained {
		return sf.close()
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
		if err := sf.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// The record magics of an unmapped log and of the mmap tier's mapped one.
const segMagic, mmapMagic = 0xC5, 0xCB

func segName(n int) string { return fmt.Sprintf("seg-%06d.seg", n) }

// segNumber parses a segment file name: ok only for a name segName makes,
// so a temp or copy beside a segment (seg-000001.seg.tmp) is none.
func segNumber(name string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"))
	return n, err == nil && segName(n) == name
}

func (s *SegmentStore) segPath(n int) string { return filepath.Join(s.dir, segName(n)) }

// OpenSegmentStore opens (creating the directory if needed) a segment
// store in dir, replaying every segment to rebuild the key index.
func OpenSegmentStore(dir string, maxSize core.Bytes) (*SegmentStore, error) {
	return openLog(dir, maxSize, segMagic, false)
}

// openLog opens a segment log whose records carry magic, its segment
// handles mapped when mapped is set.
func openLog(dir string, maxSize core.Bytes, magic byte, mapped bool) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open segment store: %w", err)
	}
	if maxSize <= 0 {
		maxSize = 4 * core.MB
	}
	s := &SegmentStore{
		recordLog: recordLog{magic: magic, index: make(map[BlobKey]recLoc)},
		dir:       dir,
		maxSize:   maxSize,
		files:     make(map[int]*segFile),
		unsynced:  -1,
		mapped:    mapped,
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: open segment store: %w", err)
	}
	for _, e := range ents {
		if n, ok := segNumber(e.Name()); ok {
			s.segs = append(s.segs, n)
		}
	}
	sort.Ints(s.segs)
	for i, n := range s.segs {
		if err := s.replaySegment(n, i == len(s.segs)-1); err != nil {
			s.Close()
			return nil, err
		}
		s.nextSeg = n + 1
	}
	return s, nil
}

// replaySegment scans one segment file, applying its intact record prefix
// to the index; a record that claims more bytes than the file holds ends
// it unread. When active (the newest segment), a damaged tail is
// truncated so subsequent appends start from a clean offset. The segment
// is mapped after the scan: every CRC a mapped read relies on is checked
// here.
func (s *SegmentStore) replaySegment(n int, active bool) error {
	f, err := os.OpenFile(s.segPath(n), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: replay segment %d: %w", n, err)
	}
	sf := &segFile{f: f}
	s.files[n] = sf
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("storage: replay segment %d: %w", n, err)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	var off int64
	hdr := make([]byte, recHeaderLen)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			break // clean EOF or truncated header: end of usable data
		}
		kind, k, length, ok := s.parseHeader(hdr)
		if !ok || off+recLen(length) > fi.Size() {
			break
		}
		body := make([]byte, length+recTrailerLen)
		if _, err := io.ReadFull(br, body); err != nil {
			break
		}
		if binary.BigEndian.Uint32(body[length:]) != recCRC(hdr, body[:length]) {
			break
		}
		s.note(kind, k, recLoc{seg: n, off: off + recHeaderLen, n: length})
		off += recLen(length)
	}
	size := fi.Size()
	if active {
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("storage: replay segment %d: %w", n, err)
		}
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return fmt.Errorf("storage: replay segment %d: %w", n, err)
		}
		size, s.activeSize, s.activeCap = off, off, max(int64(s.maxSize), off)
	}
	return s.mapSeg(sf, max(int64(s.maxSize), size))
}

// rotateLocked creates the next segment file as the append target, sized
// for its first record of rl bytes.
func (s *SegmentStore) rotateLocked(rl int64) error {
	next := s.nextSeg
	f, err := os.OpenFile(s.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: rotate segment: %w", err)
	}
	sf, capacity := &segFile{f: f}, max(int64(s.maxSize), rl)
	if err := s.mapSeg(sf, capacity); err != nil {
		f.Close()
		os.Remove(s.segPath(next))
		return err
	}
	s.nextSeg++
	s.segs = append(s.segs, next)
	s.files[next] = sf
	s.activeSize, s.activeCap = 0, capacity
	return nil
}

// appendLocked writes one record to the active segment (rotating first if
// the record would take it past its capacity, or there is none yet),
// streaming the n-byte payload from r through a pooled chunk buffer. The
// header rides in front of the first chunk and the trailer behind the
// last, so a record that fits the buffer costs one write(2). On any
// failure the segment is truncated back to the record start so the
// append offset stays clean. The index is the caller's to update.
func (s *SegmentStore) appendLocked(kind byte, k BlobKey, r io.Reader, n int64) (recLoc, error) {
	if rl := recLen(int(n)); len(s.segs) == 0 || s.activeSize+rl > s.activeCap {
		if err := s.rotateLocked(rl); err != nil {
			return recLoc{}, err
		}
	}
	seg := s.segs[len(s.segs)-1]
	if s.unsynced < 0 {
		s.unsynced = seg
	}
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

// Open returns a reader over k's payload, pinning its segment handle (see
// pin) so the window stays readable, and mapped, even if Compact retires
// the segment mid-stream. A mapped store checks the frame in O(1) — magic,
// key, length; CRCs were verified at replay — and hands out a zero-copy
// window into the mapping. Otherwise Open verifies frame and payload CRC,
// streaming through a pooled chunk buffer after the lock is dropped (old
// segment bytes are never overwritten), and returns a pread window a
// socket sends by sendfile. Any mismatch surfaces as core.ErrCorrupt, never
// as a short read at serve time.
func (s *SegmentStore) Open(k BlobKey) (BlobReader, error) {
	loc, sf, ok := s.pin(k)
	if !ok {
		return nil, fmt.Errorf("storage: segment open %v: %w", k, core.ErrNotFound)
	}
	fail := func(what string) error {
		s.releaseSegFile(sf)
		return fmt.Errorf("storage: segment open %v: %s: %w", k, what, core.ErrCorrupt)
	}
	release := func() error { return s.releaseSegFile(sf) }
	if sf.data != nil {
		if !s.frames(sf.data[loc.off-recHeaderLen:loc.off], k, loc.n) {
			return nil, fail("frame mismatch")
		}
		return &mmapReader{memReader: memReader{data: sf.data[loc.off : loc.off+int64(loc.n)]}, release: release}, nil
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
		release: release,
	}, nil
}

// syncFile fsyncs one file; a variable so white-box tests can watch it.
var syncFile = (*os.File).Sync

// Sync fsyncs every segment appended to since the last Sync — the active
// one and any a rotation sealed in between — and the store directory.
func (s *SegmentStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.segs {
		if s.unsynced >= 0 && n >= s.unsynced {
			if err := syncFile(s.files[n].f); err != nil {
				return fmt.Errorf("storage: segment sync: %w", err)
			}
		}
	}
	s.unsynced = -1
	return core.SyncDir(s.dir)
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
// repeat a replay of any such mix rebuilds the same index. A store with
// nothing live compacts to no file at all.
func (s *SegmentStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, oldActive, oldCap, oldUnsynced := s.segs, s.activeSize, s.activeCap, s.unsynced
	s.segs = nil // the first live record opens the new generation
	abort := func(err error) error {
		for _, n := range s.segs {
			s.files[n].close()
			os.Remove(s.segPath(n))
			delete(s.files, n)
		}
		s.segs, s.activeSize, s.activeCap, s.unsynced = old, oldActive, oldCap, oldUnsynced
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
	for _, n := range s.segs {
		if err := syncFile(s.files[n].f); err != nil {
			return abort(err)
		}
	}
	if err := core.SyncDir(s.dir); err != nil {
		return abort(err)
	}
	s.index, s.liveBytes, s.deadBytes, s.unsynced = index, live, 0, -1
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

// reclaim compacts the store when more than maxGarbage of the record
// bytes it holds are garbage.
func (s *SegmentStore) reclaim(maxGarbage float64) error {
	if s.GarbageRatio() <= maxGarbage {
		return nil
	}
	return s.Compact()
}
