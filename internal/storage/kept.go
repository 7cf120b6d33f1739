package storage

import (
	"fmt"
	"slices"

	"cbfww/internal/core"
)

// A kept version is a full anchor record {ID, v} that its keeper — the
// warehouse's version store — still lists. No delete site removes it until
// the keeper releases it: Backup and update leave the old anchor record
// standing when the anchor moves on, and the orphan sweep of
// RecoverFromDisk skips it. An update or a placement that would drop the
// only copy of a kept version (the anchor lagging behind a fast copy)
// backs that version up to the anchor first. Remove drops an object's
// kept records with it; an object lost to a tier failure leaves them
// standing.

// Keep marks version v of id kept. Keeping an ID the manager does not
// know yet is allowed: a restart registers its kept versions before
// RecoverFromDisk adopts the objects.
func (m *Manager) Keep(id core.ObjectID, v int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.Contains(m.kept[id], v) {
		m.kept[id] = append(m.kept[id], v)
	}
}

// Release ends the keeping of version v of id and deletes its anchor
// record, unless that record is the anchor's copy of the object.
func (m *Manager) Release(id core.ObjectID, v int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.Index(m.kept[id], v)
	if i < 0 {
		return
	}
	m.kept[id] = slices.Delete(m.kept[id], i, i+1)
	if o, ok := m.objects[id]; !ok || o.copies[m.last()] != (copyState{present: true, version: v}) {
		m.backends[m.last()].Delete(BlobKey{ID: id, Version: v})
	}
}

// OpenVersion opens the full content of version v of id from the fastest
// tier holding a record of it. A version no tier holds any more fails
// with core.ErrNotFound. The caller must Close the reader.
func (m *Manager) OpenVersion(id core.ObjectID, v int) (BlobReader, error) {
	for t := Tier(0); t < m.numTiers(); t++ {
		if br, err := m.backends[t].Open(BlobKey{ID: id, Version: v}); err == nil {
			return br, nil
		}
	}
	return nil, fmt.Errorf("storage: open %v version %d: %w", id, v, core.ErrNotFound)
}

// keptLocked reports whether version v of id is kept. Requires m.mu.
func (m *Manager) keptLocked(id core.ObjectID, v int) bool {
	return slices.Contains(m.kept[id], v)
}

// backupKeptLocked backs o up to the anchor (backupLocked) when version v,
// whose fast copies are about to go, is kept and newer than the anchor's
// copy. Requires m.mu.
func (m *Manager) backupKeptLocked(o *object, v int) {
	if a := o.copies[m.last()]; o.hasPayload && (!a.present || a.version < v) && m.keptLocked(o.id, v) {
		m.backupLocked(o)
	}
}

// dropRecordLocked deletes record k at tier t, unless it is a kept version
// on the anchor. Requires m.mu.
func (m *Manager) dropRecordLocked(t Tier, k BlobKey) {
	if t == m.last() && !k.Summary && m.keptLocked(k.ID, k.Version) {
		return
	}
	m.backends[t].Delete(k)
}
