package version

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"cbfww/internal/blob"
	"cbfww/internal/core"
)

// The version store is the warehouse's durable content archive ("previous
// contents of web pages can be stored"); SaveTo/LoadFrom give it a simple
// persistent form so a warehouse can survive process restarts with its
// history intact. The format is a gob stream: a header followed by the
// histories map.

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
	refs := make(map[blob.Ref]int)
	for _, snaps := range histories {
		for _, sn := range snaps {
			bytes += sn.Size
			if sn.BodyRef != "" {
				refs[sn.BodyRef]++
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxDepth = h.MaxDepth
	s.histories = histories
	s.bytes = bytes
	if s.blobs != nil {
		// A reopened archive counts each body once; the histories know
		// how many snapshots share it, and which bodies none references.
		if err := s.blobs.Retain(refs); err != nil {
			return fmt.Errorf("version: recount archive: %w", err)
		}
	}
	return nil
}

// SaveFile writes the store to path atomically (temp file + rename).
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("version: %w", err)
	}
	if err := s.SaveTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("version: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("version: %w", err)
	}
	return nil
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
