package version

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"cbfww/internal/core"
)

// SaveTo/LoadFrom give the version store a simple persistent form so a
// warehouse can survive process restarts with its history intact ("previous
// contents of web pages can be stored"). The format is a gob stream: a
// header followed by the histories map. A store over a body source saves
// only metadata; the bodies persist with the source.

// persistHeader guards format compatibility.
type persistHeader struct {
	Magic    string
	Version  int
	MaxDepth int
}

const (
	persistMagic   = "cbfww-versions"
	persistVersion = 1
)

// SaveTo serializes the store.
func (s *Store) SaveTo(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc := gob.NewEncoder(w)
	if err := enc.Encode(persistHeader{
		Magic: persistMagic, Version: persistVersion, MaxDepth: s.maxDepth,
	}); err != nil {
		return fmt.Errorf("version: save header: %w", err)
	}
	if err := enc.Encode(s.histories); err != nil {
		return fmt.Errorf("version: save histories: %w", err)
	}
	return nil
}

// LoadFrom replaces the store's contents with a previously saved stream.
// It asks the body source to keep nothing: the owner registers the loaded
// versions with the source itself (the warehouse's Rehydrate does, before
// storage recovery sweeps what no one keeps).
func (s *Store) LoadFrom(r io.Reader) error {
	dec := gob.NewDecoder(r)
	var h persistHeader
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("version: load header: %w", err)
	}
	if h.Magic != persistMagic {
		return fmt.Errorf("version: %w: not a version store (magic %q)", core.ErrInvalid, h.Magic)
	}
	if h.Version != persistVersion {
		return fmt.Errorf("version: %w: format version %d unsupported", core.ErrInvalid, h.Version)
	}
	var histories map[string][]Snapshot
	if err := dec.Decode(&histories); err != nil {
		return fmt.Errorf("version: load histories: %w", err)
	}
	var bytes core.Bytes
	for _, snaps := range histories {
		for _, sn := range snaps {
			bytes += sn.Size
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxDepth = h.MaxDepth
	s.histories = histories
	s.bytes = bytes
	return nil
}

// SaveFile writes the store to path atomically (see core.WriteFileAtomic).
func (s *Store) SaveFile(path string) error {
	return core.WriteFileAtomic(path, s.SaveTo)
}

// LoadFile reads the store from path.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("version: %w", err)
	}
	defer f.Close()
	return s.LoadFrom(f)
}
