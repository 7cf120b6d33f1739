package storage

import (
	"fmt"

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
// standing. A kept record that is not its object's anchor copy stands
// apart, and the anchor's used counts it: kept maps each kept version to
// the bytes its record adds there, zero while it is the anchor copy.

// Keep marks version v of id kept. Keeping an ID the manager does not
// know yet is allowed: a restart registers its kept versions before
// RecoverFromDisk adopts the objects.
func (m *Manager) Keep(id core.ObjectID, v int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.kept[id] == nil {
		m.kept[id] = make(map[int]core.Bytes)
	}
	if _, ok := m.kept[id][v]; !ok {
		m.kept[id][v] = 0
	}
}

// Release ends the keeping of version v of id and deletes its anchor
// record, unless that record is the anchor's copy of the object.
func (m *Manager) Release(id core.ObjectID, v int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.kept[id][v]
	if !ok {
		return
	}
	delete(m.kept[id], v)
	if len(m.kept[id]) == 0 {
		delete(m.kept, id)
	}
	if o, ok := m.objects[id]; !ok || o.copies[m.last()] != (copyState{present: true, version: v}) {
		m.backends[m.last()].Delete(BlobKey{ID: id, Version: v})
	}
	m.used[m.last()] -= n
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
	_, ok := m.kept[id][v]
	return ok
}

// backupKeptLocked backs o up to the anchor (backupLocked) when version v,
// whose fast copies are about to go, is kept and newer than the anchor's
// copy. Requires m.mu.
func (m *Manager) backupKeptLocked(o *object, v int) {
	if a := o.copies[m.last()]; o.hasPayload && (!a.present || a.version < v) && m.keptLocked(o.id, v) {
		m.backupLocked(o)
	}
}

// dropRecordLocked deletes o's record k at tier t, unless it is a kept
// version on the anchor: that record stands apart from now on, counted at
// o's size. Requires m.mu.
func (m *Manager) dropRecordLocked(o *object, t Tier, k BlobKey) {
	if t == m.last() && !k.Summary && m.keptLocked(k.ID, k.Version) {
		if m.kept[k.ID][k.Version] == 0 {
			m.kept[k.ID][k.Version] = o.size
			m.used[t] += o.size
		}
		return
	}
	m.backends[t].Delete(k)
}

// claimAnchorLocked notes that the anchor's record of version v of id has
// become the object's anchor copy, so it no longer stands apart. Requires
// m.mu.
func (m *Manager) claimAnchorLocked(id core.ObjectID, v int) {
	if n := m.kept[id][v]; n > 0 {
		m.kept[id][v] = 0
		m.used[m.last()] -= n
	}
}

// keptApartLocked returns the bytes of the kept records standing apart.
// Requires m.mu.
func (m *Manager) keptApartLocked() core.Bytes {
	var sum core.Bytes
	for _, vs := range m.kept {
		for _, n := range vs {
			sum += n
		}
	}
	return sum
}
