package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"unsafe"

	"cbfww/internal/core"
)

// MmapStore is the byte-addressable BlobStore backing the "warm" tier
// between heap and per-file disk: the NVM-shaped level of the dynamic
// hierarchy. All blobs live in one append-only arena file mapped
// MAP_SHARED into the address space, so a read is a load from the
// mapping — no syscall, no page-cache copy into user space — while the
// bytes still survive the process (the kernel writes dirty pages back;
// Sync forces it with msync).
//
// Records are recordLog frames with magic 0xCB. CRCs are verified once,
// at replay on open — the store's integrity premise is the mapping's
// (memory-like), so Open does only an O(1) frame check and hands out a
// zero-copy window into the arena. That keeps a 4MB stream the same cost
// as a 64B one.
//
// Compact rewrites the live set into a new arena generation
// (arena-%06d.dat) via the temp+rename protocol and retires the old
// mapping — kept mapped until every in-flight reader window drains, so
// compaction never invalidates a handed-out slice.
type MmapStore struct {
	recordLog // mu guards everything below but the arena refcounts
	dir       string

	f     *os.File // active arena file
	gen   int      // active arena generation
	arena *mmapArena
	size  int64 // append offset (bytes used)
	fcap  int64 // file/mapping capacity

	// refMu guards reader refcounts and retirement across all arenas.
	refMu sync.Mutex
}

// mmapArena is one mapping of one arena file. Readers pin it; a retired
// arena (superseded by growth or compaction) is unmapped — and, when it
// owns the file, closed and unlinked — once the last reader drains.
type mmapArena struct {
	data    []byte
	refs    int
	retired bool
	f       *os.File // non-nil when this arena owns the file handle
	unlink  string   // non-empty: remove the file at drain
}

const (
	mmapMagic    = 0xCB
	mmapMinArena = 1 << 20 // 1 MB initial/minimum mapping
)

func arenaName(gen int) string { return fmt.Sprintf("arena-%06d.dat", gen) }

// OpenMmapStore opens (creating if needed) an mmap arena store in dir,
// replaying the newest arena generation to rebuild the key index. A
// damaged tail (torn by a crash mid-append) is truncated away; stale
// generations and temp files left by an interrupted compaction are
// removed — the rename into the generation name is the commit point.
func OpenMmapStore(dir string) (*MmapStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open mmap store: %w", err)
	}
	s := &MmapStore{recordLog: recordLog{magic: mmapMagic, index: make(map[BlobKey]recLoc)}, dir: dir}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: open mmap store: %w", err)
	}
	gens := []int(nil)
	for _, e := range ents {
		var g int
		if _, err := fmt.Sscanf(e.Name(), "arena-%06d.dat", &g); err == nil {
			gens = append(gens, g)
		} else if strings.HasPrefix(e.Name(), ".arena-") {
			os.Remove(filepath.Join(dir, e.Name())) // interrupted compaction temp
		}
	}
	sort.Ints(gens)
	for _, g := range gens[:max(0, len(gens)-1)] {
		os.Remove(filepath.Join(dir, arenaName(g))) // superseded by a committed compaction
	}
	if len(gens) > 0 {
		s.gen = gens[len(gens)-1]
	}
	path := filepath.Join(dir, arenaName(s.gen))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open mmap store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open mmap store: %w", err)
	}
	s.fcap = fi.Size()
	if s.fcap < mmapMinArena {
		s.fcap = mmapMinArena
		if err := f.Truncate(s.fcap); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: open mmap store: %w", err)
		}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(s.fcap), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: mmap arena: %w", err)
	}
	s.f = f
	s.arena = &mmapArena{data: data}
	s.replay()
	return s, nil
}

// replay scans the arena's intact record prefix, rebuilding the index.
// The first record that fails to parse or checksum ends the usable data
// (a crashed writer only damages the tail); everything past it is dead
// space the next append overwrites.
func (s *MmapStore) replay() {
	data := s.arena.data
	var off int64
	for off+recHeaderLen <= s.fcap {
		hdr := data[off : off+recHeaderLen]
		kind, k, length, ok := s.parseHeader(hdr)
		if !ok || off+recLen(length) > s.fcap {
			break
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+int64(length)]
		if binary.BigEndian.Uint32(data[off+recHeaderLen+int64(length):]) != recCRC(hdr, payload) {
			break
		}
		s.note(kind, k, recLoc{off: off + recHeaderLen, n: length})
		off += recLen(length)
	}
	s.size = off
}

// retireLocked marks the given arena superseded; it is torn down
// immediately if no reader pins it. Callers hold s.mu.
func (s *MmapStore) retireLocked(a *mmapArena) {
	s.refMu.Lock()
	a.retired = true
	drain := a.refs == 0
	s.refMu.Unlock()
	if drain {
		teardownArena(a)
	}
}

// teardownArena unmaps a drained arena and releases the file it owns.
// munmap is independent of the descriptor, so growth-superseded
// mappings (which own no file) tear down while the store keeps writing
// the same arena file through a newer, larger mapping.
func teardownArena(a *mmapArena) {
	syscall.Munmap(a.data)
	if a.f != nil {
		a.f.Close()
	}
	if a.unlink != "" {
		os.Remove(a.unlink)
	}
}

// acquireReader pins the active arena and returns its release hook.
func (s *MmapStore) acquireReader(a *mmapArena) func() {
	s.refMu.Lock()
	a.refs++
	s.refMu.Unlock()
	return func() {
		s.refMu.Lock()
		a.refs--
		drain := a.retired && a.refs == 0
		s.refMu.Unlock()
		if drain {
			teardownArena(a)
		}
	}
}

// ensureLocked grows the arena file and remaps it so at least n more
// bytes fit past the append offset. The old, smaller mapping of the
// same file is retired (unmapped once its readers drain); in-flight
// windows into it stay valid throughout.
func (s *MmapStore) ensureLocked(n int64) error {
	if s.size+n <= s.fcap {
		return nil
	}
	newCap := s.fcap * 2
	for newCap < s.size+n {
		newCap *= 2
	}
	if err := s.f.Truncate(newCap); err != nil {
		return fmt.Errorf("storage: grow mmap arena: %w", err)
	}
	data, err := syscall.Mmap(int(s.f.Fd()), 0, int(newCap), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("storage: remap arena: %w", err)
	}
	s.retireLocked(s.arena)
	s.arena = &mmapArena{data: data}
	s.fcap = newCap
	return nil
}

// frameLocked writes a record header+trailer around a payload already
// present at s.size+recHeaderLen, commits the index entry and advances
// the append offset. Callers hold s.mu and have ensured capacity.
func (s *MmapStore) frameLocked(kind byte, k BlobKey, n int) {
	data, off := s.arena.data, s.size
	hdr := data[off : off+recHeaderLen]
	s.putHeader(hdr, kind, k, n)
	payload := data[off+recHeaderLen : off+recHeaderLen+int64(n)]
	binary.BigEndian.PutUint32(data[off+recHeaderLen+int64(n):], recCRC(hdr, payload))
	s.note(kind, k, recLoc{off: off + recHeaderLen, n: n})
	s.size += recLen(n)
}

// Open returns a zero-copy window into the mapping. The frame around
// the payload is checked in O(1) — magic, key identity, length — and a
// mismatch surfaces as core.ErrCorrupt; payload CRCs were verified at
// replay, and the mapping is memory, so there is no per-open scan. The
// window pins its arena: growth and compaction retire mappings but
// never unmap one under a live reader.
func (s *MmapStore) Open(k BlobKey) (BlobReader, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.index[k]
	if !ok {
		return nil, fmt.Errorf("storage: mmap open %v: %w", k, core.ErrNotFound)
	}
	if !s.frames(s.arena.data[loc.off-recHeaderLen:loc.off], k, loc.n) {
		return nil, fmt.Errorf("storage: mmap open %v: frame mismatch: %w", k, core.ErrCorrupt)
	}
	return &mmapReader{
		memReader: memReader{data: s.arena.data[loc.off : loc.off+int64(loc.n)]},
		release:   s.acquireReader(s.arena),
	}, nil
}

// PutFrom streams n bytes from r straight into the mapping — the
// record's payload slot is the destination buffer, so the bytes land
// exactly once. Nothing is committed (index, offset) until the full
// payload has arrived, so a short read leaves the arena state clean.
func (s *MmapStore) PutFrom(k BlobKey, r io.Reader, n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureLocked(recLen(int(n))); err != nil {
		return fmt.Errorf("storage: mmap put %v: %w", k, err)
	}
	window := s.arena.data[s.size+recHeaderLen : s.size+recHeaderLen+n]
	if _, err := io.ReadFull(r, window); err != nil {
		return fmt.Errorf("storage: mmap put %v: %w", k, err)
	}
	s.frameLocked(recKindPut, k, int(n))
	return nil
}

func (s *MmapStore) Delete(k BlobKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[k]; !ok {
		return nil
	}
	if err := s.ensureLocked(recLen(0)); err != nil {
		return fmt.Errorf("storage: mmap delete %v: %w", k, err)
	}
	s.frameLocked(recKindDelete, k, 0)
	return nil
}

// Sync msyncs the mapping so dirty pages reach the arena file.
func (s *MmapStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := msync(s.arena.data); err != nil {
		return fmt.Errorf("storage: mmap sync: %w", err)
	}
	return syncDir(s.dir)
}

func (s *MmapStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arena == nil {
		return nil
	}
	s.retireLocked(s.arena)
	s.arena = nil
	err := s.f.Close()
	s.f = nil
	return err
}

// Compact rewrites the live set into a fresh arena generation. The new
// arena is built in a temp file and renamed into its generation name —
// the commit point; a crash before the rename leaves the old arena
// authoritative, a crash after it leaves at most a stale old file that
// the next open removes. The old mapping is retired, not unmapped:
// in-flight reader windows keep their bytes until they Close.
func (s *MmapStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := s.liveKeysLocked()
	need := s.liveBytes
	newCap := int64(mmapMinArena)
	for newCap < need {
		newCap *= 2
	}
	tmp, err := os.CreateTemp(s.dir, ".arena-*")
	if err != nil {
		return fmt.Errorf("storage: mmap compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := tmp.Truncate(newCap); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: mmap compact: %w", err)
	}
	data, err := syscall.Mmap(int(tmp.Fd()), 0, int(newCap), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		tmp.Close()
		return fmt.Errorf("storage: mmap compact: %w", err)
	}
	oldArena, oldIndex := s.arena, s.index
	oldF, oldPath := s.f, filepath.Join(s.dir, arenaName(s.gen))
	oldSize, oldFcap := s.size, s.fcap
	oldLive, oldDead := s.liveBytes, s.deadBytes
	s.arena = &mmapArena{data: data}
	s.index = make(map[BlobKey]recLoc, len(keys))
	s.size, s.fcap = 0, newCap
	s.liveBytes, s.deadBytes = 0, 0
	for _, k := range keys {
		loc := oldIndex[k]
		copy(data[s.size+recHeaderLen:], oldArena.data[loc.off:loc.off+int64(loc.n)])
		s.frameLocked(recKindPut, k, loc.n)
	}
	fail := func(err error) error {
		// Roll back to the old arena; the temp mapping is abandoned.
		syscall.Munmap(data)
		tmp.Close()
		s.arena, s.index = oldArena, oldIndex
		s.f = oldF
		s.size, s.fcap = oldSize, oldFcap
		s.liveBytes, s.deadBytes = oldLive, oldDead
		return fmt.Errorf("storage: mmap compact: %w", err)
	}
	if err := msync(data); err != nil {
		return fail(err)
	}
	newPath := filepath.Join(s.dir, arenaName(s.gen+1))
	if err := os.Rename(tmp.Name(), newPath); err != nil {
		return fail(err)
	}
	s.gen++
	s.f = tmp
	// The old arena owns its file now: close+unlink when readers drain.
	oldArena.f = oldF
	oldArena.unlink = oldPath
	s.retireLocked(oldArena)
	s.Compactions++
	return nil
}

// msync flushes a mapping's dirty pages synchronously. The syscall
// package has no wrapper, and pulling in x/sys for one call isn't
// worth it; addresses from Mmap are page-aligned as msync requires.
func msync(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&data[0])), uintptr(len(data)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return errno
	}
	return nil
}

// mmapReader is the mmap tier's BlobReader: the heap tier's cursor, over
// the payload window in the arena mapping — one Write, zero copies, flat
// cost from 64B to 4MB. Close releases the pin on the arena; a window
// must not be used after Close (the mapping may be gone).
type mmapReader struct {
	memReader
	once    sync.Once
	release func()
}

func (r *mmapReader) Close() error {
	r.once.Do(r.release)
	return nil
}
