package storage

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cbfww/internal/core"
)

// The manifest is the manager's durable object table: one line per known
// object, saved atomically into the data directory at checkpoint time.
// Together with the blobs the disk and tertiary backends rebuild from
// their own files, it turns a restart into genuine crash recovery — the
// restored placement points at whichever on-disk bytes actually survived,
// rather than replaying a layout over content that may be gone.
//
// Format (same CRC-per-line crash discipline as the layout file):
//
//	cbfww-manifest v1
//	<id> <size> <version> <priority> <tertiaryPos> <payload 0|1> <crc32>
//	...
//
// Each entry line carries a CRC32 (IEEE) of its own payload prefix; on
// load, the first line that fails to parse or checksum ends the usable
// data, and the intact prefix is recovered.

const manifestHeader = "cbfww-manifest v1"

// ManifestName is the manifest's file name inside the data directory.
const ManifestName = "MANIFEST"

type manifestEntry struct {
	id          core.ObjectID
	size        core.Bytes
	version     int
	priority    core.Priority
	tertiaryPos int
	hasPayload  bool
}

// SaveManifest writes the object table to DataDir/MANIFEST atomically
// (see core.WriteFileAtomic). In all-in-heap mode (no DataDir) it is a no-op:
// there is nothing durable for a manifest to describe.
func (m *Manager) SaveManifest() error {
	if m.cfg.DataDir == "" {
		return nil
	}
	m.mu.RLock()
	entries := make([]manifestEntry, 0, len(m.objects))
	for id, o := range m.objects {
		entries = append(entries, manifestEntry{
			id: id, size: o.size, version: o.version, priority: o.priority,
			tertiaryPos: o.tertiaryPos, hasPayload: o.hasPayload,
		})
	}
	m.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })

	var b strings.Builder
	b.WriteString(manifestHeader)
	b.WriteByte('\n')
	for _, e := range entries {
		p := 0
		if e.hasPayload {
			p = 1
		}
		line := fmt.Sprintf("%d %d %d %s %d %d",
			uint64(e.id), int64(e.size), e.version,
			strconv.FormatFloat(float64(e.priority), 'g', -1, 64),
			e.tertiaryPos, p)
		fmt.Fprintf(&b, "%s %08x\n", line, crc32.ChecksumIEEE([]byte(line)))
	}

	return core.WriteFileAtomic(filepath.Join(m.cfg.DataDir, ManifestName), func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
}

// loadManifest reads the intact prefix of a manifest file.
func loadManifest(path string) ([]manifestEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != manifestHeader {
		return nil, fmt.Errorf("storage: load manifest %s: %w: bad header", path, core.ErrInvalid)
	}
	var entries []manifestEntry
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			break // truncated tail
		}
		payload, sumHex := line[:i], line[i+1:]
		sum, err := strconv.ParseUint(sumHex, 16, 32)
		if err != nil || uint32(sum) != crc32.ChecksumIEEE([]byte(payload)) {
			break // corrupt or half-written line
		}
		var (
			id, size    int64
			version     int
			prio        float64
			tpos, hasPl int
		)
		if _, err := fmt.Sscanf(payload, "%d %d %d %g %d %d",
			&id, &size, &version, &prio, &tpos, &hasPl); err != nil {
			break
		}
		entries = append(entries, manifestEntry{
			id: core.ObjectID(id), size: core.Bytes(size), version: version,
			priority: core.Priority(prio), tertiaryPos: tpos, hasPayload: hasPl == 1,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("storage: load manifest %s: %w", path, err)
	}
	return entries, nil
}

// RecoverFromDisk rebuilds the manager from the data directory: the
// manifest supplies the object table, the disk and tertiary backends
// supply whatever blobs survived, and the recovery pass re-places
// everything so the restored placement points only at bytes that exist.
// Memory-tier contents are gone by definition (the heap died with the
// process); the placement pass repromotes from the surviving copies.
//
// Returns the number of objects restored and the recovery report. A
// missing manifest is a fresh start, not an error. The manager must be
// empty (freshly constructed) and configured with the same DataDir.
func (m *Manager) RecoverFromDisk() (int, RecoveryReport, error) {
	if m.cfg.DataDir == "" {
		return 0, RecoveryReport{}, fmt.Errorf("storage: recover from disk: %w: no data directory", core.ErrInvalid)
	}
	entries, err := loadManifest(filepath.Join(m.cfg.DataDir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, RecoveryReport{}, nil
		}
		return 0, RecoveryReport{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.objects) != 0 {
		return 0, RecoveryReport{}, fmt.Errorf("storage: recover from disk: %w: manager not empty", core.ErrInvalid)
	}

	// Index each persistent backend's surviving full copies: best (newest
	// not exceeding the manifest's version) full blob per object. Tiers on
	// the heap backend died with the process and are never adopted.
	anchor := m.last()
	persistent := make([]Tier, 0, len(m.tiers))
	for t, ts := range m.tiers {
		if ts.Backend != "heap" {
			persistent = append(persistent, Tier(t))
		}
	}
	type best map[core.ObjectID]int
	bestAt := make(map[Tier]best, len(persistent))
	for _, t := range persistent {
		bestAt[t] = best{}
	}
	current := make(map[core.ObjectID]int, len(entries))
	for _, e := range entries {
		current[e.id] = e.version
	}
	for t, b := range bestAt {
		for _, k := range m.backends[t].Keys() {
			limit, known := current[k.ID]
			if !known || k.Summary || k.Version > limit {
				continue
			}
			if v, ok := b[k.ID]; !ok || k.Version > v {
				b[k.ID] = k.Version
			}
		}
	}

	for _, e := range entries {
		o := &object{
			id: e.id, size: e.size, version: e.version, priority: e.priority,
			tertiaryPos: e.tertiaryPos, hasPayload: e.hasPayload,
			copies: make([]copyState, len(m.tiers)),
		}
		if e.hasPayload {
			// Adopt only copies whose bytes actually survived, slowest tier
			// first. The anchor boundary tolerates version drift (backups
			// lag); between finite tiers the exact-copy rule holds, so a
			// faster tier's blob is adopted only when it matches the
			// version adopted one tier down — otherwise it is swept and
			// re-promoted by placement.
			adopted := false
			for i := len(persistent) - 1; i >= 0; i-- {
				t := persistent[i]
				v, ok := bestAt[t][e.id]
				if !ok {
					continue
				}
				if t < anchor-1 && (!o.copies[t+1].present || o.copies[t+1].version != v) {
					continue
				}
				o.copies[t] = copyState{present: true, version: v}
				adopted = true
			}
			if !adopted {
				continue // lost entirely; the warehouse refetches on access
			}
		} else {
			// Metadata-only objects have no bytes to lose: their anchor
			// copy is notional and survives with the manifest.
			o.copies[anchor] = copyState{present: true, version: e.version}
		}
		m.objects[e.id] = o
	}

	// Sweep orphans: blobs not referenced by any adopted copy or kept
	// version (summaries are always regenerated, other versions are
	// superseded garbage).
	for _, t := range persistent {
		for _, k := range m.backends[t].Keys() {
			o, ok := m.objects[k.ID]
			if !k.Summary && (ok && o.copies[t].present && o.copies[t].version == k.Version ||
				t == anchor && m.keptLocked(k.ID, k.Version)) {
				continue
			}
			m.backends[t].Delete(k)
		}
	}

	m.used = make([]core.Bytes, len(m.tiers))
	for _, o := range m.objects {
		for t := range m.tiers {
			m.used[t] += o.footprint(Tier(t), m.cfg.SummaryRatio)
		}
	}
	rep := m.recoverLocked()
	return len(m.objects), rep, nil
}
