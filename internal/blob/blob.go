// Package blob is a content-addressed on-disk body store: the "disk" of
// the warehouse made real. Bodies are stored once per distinct content
// (SHA-256 address), so the shared media components of §5.1 — the same
// image embedded by many pages — occupy disk space once no matter how many
// pages, versions or backups reference them. Reference counting enables
// garbage collection when version histories are pruned.
package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"cbfww/internal/core"
	"cbfww/internal/storage"
)

// Ref is the content address of a stored blob (hex SHA-256).
type Ref string

// Valid reports whether the ref has the right shape.
func (r Ref) Valid() bool {
	if len(r) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(string(r))
	return err == nil
}

// refOf returns content's address.
func refOf(content []byte) Ref {
	sum := sha256.Sum256(content)
	return Ref(hex.EncodeToString(sum[:]))
}

// key is the log key of a valid ref: its first 64 bits.
func (r Ref) key() storage.BlobKey {
	var b [8]byte
	hex.Decode(b[:], []byte(r[:16]))
	return storage.BlobKey{ID: core.ObjectID(binary.BigEndian.Uint64(b[:]))}
}

// Store is a content-addressed blob store rooted at a directory: bodies
// are records of a segment log (storage.SegmentStore) keyed by the first
// 64 bits of their SHA-256, so a Put appends and creates no file, and the
// last Release appends a tombstone. Safe for concurrent use.
type Store struct {
	log *storage.SegmentStore

	mu   sync.Mutex
	refs map[Ref]*entry // exactly the refs with a live record in log
}

type entry struct {
	n    int // reference count
	size core.Bytes
}

// Open creates or reopens a store at root. Every intact record is
// re-indexed under its content's hash with a reference count of 1 (Retain
// sets the true counts); a damaged record is dropped. A root laid out as
// one file per blob (root/ab/cdef...) is migrated into the log.
func Open(root string) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("blob: %w: empty root", core.ErrInvalid)
	}
	log, err := storage.OpenSegmentStore(root, 0)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	s := &Store{log: log, refs: make(map[Ref]*entry)}
	for _, k := range log.Keys() {
		content, err := s.read(k)
		if err != nil && !errors.Is(err, core.ErrCorrupt) {
			log.Close()
			return nil, fmt.Errorf("blob: %w", err)
		}
		if ref := refOf(content); err == nil && ref.key() == k {
			s.refs[ref] = &entry{n: 1, size: core.Bytes(len(content))}
		} else {
			log.Delete(k) // damaged: fails its frame or its hash
		}
	}
	if err := s.migrate(root); err != nil {
		log.Close()
		return nil, fmt.Errorf("blob: migrate: %w", err)
	}
	return s, nil
}

// migrate appends the bodies of a file-per-blob tree under root to the
// log, then removes the tree once the log is synced. A crashed writer's
// temp file, or a body whose content no longer matches its name, is not
// carried over.
func (s *Store) migrate(root string) error {
	dirs, _ := filepath.Glob(filepath.Join(root, "??"))
	if len(dirs) == 0 {
		return nil
	}
	files, _ := filepath.Glob(filepath.Join(root, "??", "*"))
	for _, path := range files {
		content, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ref := Ref(filepath.Base(filepath.Dir(path)) + filepath.Base(path))
		if _, ok := s.refs[ref]; ok || refOf(content) != ref {
			continue
		}
		if err := s.append(ref, content); err != nil {
			return err
		}
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	for _, dir := range dirs {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// append writes a new body's record and indexes it with one reference.
// A different live ref already under the same 64-bit key is never
// overwritten. Requires mu (or exclusive access during Open).
func (s *Store) append(ref Ref, content []byte) error {
	k := ref.key()
	if s.log.Contains(k) {
		return fmt.Errorf("blob: %w: %q shares its key with a stored blob", core.ErrExists, ref)
	}
	if err := s.log.PutFrom(k, bytes.NewReader(content), int64(len(content))); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	s.refs[ref] = &entry{n: 1, size: core.Bytes(len(content))}
	return nil
}

// read returns the payload of the record under k, its frame checked.
func (s *Store) read(k storage.BlobKey) ([]byte, error) {
	br, err := s.log.Open(k)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	data := make([]byte, br.Len())
	if _, err := io.ReadFull(br, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Put stores content and returns its address, incrementing the reference
// count. Identical content is written once.
func (s *Store) Put(content []byte) (Ref, error) {
	ref := refOf(content)

	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.refs[ref]; e != nil {
		e.n++
		return ref, nil
	}
	if err := s.append(ref, content); err != nil {
		return "", err
	}
	return ref, nil
}

// Get reads a blob's content.
func (s *Store) Get(r Ref) ([]byte, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("blob: %w: bad ref %q", core.ErrInvalid, r)
	}
	s.mu.Lock()
	_, known := s.refs[r]
	s.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("blob: %q: %w", r, core.ErrNotFound)
	}
	b, err := s.read(r.key())
	if err != nil {
		return nil, fmt.Errorf("blob: read %q: %w", r, err)
	}
	// Verify integrity on the way out — a warehouse serving silently
	// corrupted bodies is worse than one that errors.
	if refOf(b) != r {
		return nil, fmt.Errorf("blob: %q: content corrupted on disk", r)
	}
	return b, nil
}

// Release decrements a blob's reference count; at zero its record is
// tombstoned (garbage collection).
func (s *Store) Release(r Ref) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.refs[r]
	if e == nil {
		return fmt.Errorf("blob: release %q: %w", r, core.ErrNotFound)
	}
	if e.n > 1 {
		e.n--
		return nil
	}
	return s.dropLocked(r)
}

// dropLocked tombstones r's record. Requires mu.
func (s *Store) dropLocked(r Ref) error {
	delete(s.refs, r)
	if err := s.log.Delete(r.key()); err != nil {
		return fmt.Errorf("blob: gc %q: %w", r, err)
	}
	return nil
}

// Retain sets every stored blob's reference count to counts[ref] and
// collects the blobs counts does not name: a reopened store learns what
// its referrers actually hold. Refs in counts that are not stored are
// ignored (their bodies are gone).
func (s *Store) Retain(counts map[Ref]int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for r, e := range s.refs {
		if n := counts[r]; n > 0 {
			e.n = n
		} else if err := s.dropLocked(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync compacts the log when more than half of it is garbage, then makes
// every stored body durable.
func (s *Store) Sync() error {
	if s.log.GarbageRatio() > 0.5 {
		if err := s.log.Compact(); err != nil {
			return fmt.Errorf("blob: %w", err)
		}
	}
	return s.log.Sync()
}

// Close releases the log's file handles. The store is unusable afterwards.
func (s *Store) Close() error { return s.log.Close() }

// RefCount returns the current reference count of r.
func (s *Store) RefCount(r Ref) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.refs[r]; e != nil {
		return e.n
	}
	return 0
}

// Len returns the number of distinct blobs stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.refs)
}

// Size returns the total bytes of distinct stored contents — what the
// dedup actually saves compared to naive per-reference storage.
func (s *Store) Size() core.Bytes {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total core.Bytes
	for _, e := range s.refs {
		total += e.size
	}
	return total
}

// Refs returns all stored refs, sorted (diagnostics and tests).
func (s *Store) Refs() []Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Ref, 0, len(s.refs))
	for r := range s.refs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
