package storage

import (
	"bytes"
	"fmt"

	"cbfww/internal/core"
)

// RecoveryReport summarizes a Recover run after tier failures.
type RecoveryReport struct {
	// Restored counts copies recreated from surviving replicas.
	Restored int
	// Stale counts restorations whose best surviving replica was older
	// than the object's current version (tertiary backups lag).
	Stale int
	// Lost counts objects with no surviving full copy anywhere.
	Lost int
}

// DropTier simulates the failure of one tier: every copy there vanishes,
// metadata and bytes both. Dropping the anchor is allowed (a tape library
// can burn down too).
func (m *Manager) DropTier(t Tier) error {
	if t < 0 || t >= m.numTiers() {
		return fmt.Errorf("storage: drop: %w: tier %d", core.ErrInvalid, int(t))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, o := range m.objects {
		if o.copies[t].present {
			o.copies[t] = copyState{}
			if t == 0 {
				m.noteMemLocked(id)
			}
		}
	}
	// A failed tier has no surviving blobs either.
	for _, k := range m.backends[t].Keys() {
		m.backends[t].Delete(k)
	}
	m.used[t] = 0
	m.order.rebuild(m.objects)
	m.stale.add(rankTop)
	return nil
}

// Recover rebuilds the placement from surviving copies: each object is
// restored to the tiers its priority earns, sourcing content from its best
// surviving replica. Objects with no surviving full copy are dropped from
// the manager entirely (and counted Lost) — the warehouse must refetch
// them from the origin.
func (m *Manager) Recover() RecoveryReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoverLocked()
}

// recoverLocked is the shared body of Recover and RecoverFromDisk.
// Requires m.mu.
func (m *Manager) recoverLocked() RecoveryReport {
	var rep RecoveryReport
	anchor := m.last()

	for id, o := range m.objects {
		if o.hasPayload {
			// A copy whose bytes are gone is no copy at all: trust the
			// backends over the metadata (the metadata may have outlived a
			// crash the bytes did not).
			for t := Tier(0); t < m.numTiers(); t++ {
				c := &o.copies[t]
				if c.present && !m.backends[t].Contains(c.key(id)) {
					m.dropCopyLocked(o, t)
				}
			}
		}
		bestVersion := -1
		for t := Tier(0); t < m.numTiers(); t++ {
			c := o.copies[t]
			if c.present && !c.summaryOnly && c.version > bestVersion {
				bestVersion = c.version
			}
		}
		if bestVersion < 0 {
			m.removeLocked(o) // no full copy survived anywhere
			rep.Lost++
			continue
		}
		if bestVersion < o.version {
			rep.Stale++
			// The stale replica becomes the authoritative content: the
			// newer version is gone. Surviving summaries of the lost newer
			// content are dropped (payload: their bytes describe content
			// that no longer exists) or refreshed from the restored body.
			o.version = bestVersion
			for t := Tier(0); t < m.numTiers(); t++ {
				c := &o.copies[t]
				if !c.present || c.version <= bestVersion {
					continue
				}
				if o.hasPayload {
					m.dropCopyLocked(o, t)
				} else {
					c.version = bestVersion
				}
			}
		}
		// Ensure the anchor copy exists so placement invariants hold.
		if !o.copies[anchor].present {
			if o.hasPayload {
				ver, ok := m.copyBlobLocked(o, anchor, false)
				if !ok {
					continue // unreachable: bestVersion proved a readable copy
				}
				o.copies[anchor] = copyState{present: true, version: ver}
			} else {
				o.copies[anchor] = copyState{present: true, version: bestVersion}
			}
			rep.Restored++
		}
	}
	// Recompute the anchor's usage from scratch (objects may have been lost).
	var bottom core.Bytes
	for _, o := range m.objects {
		if o.copies[anchor].present {
			bottom += o.size
		}
	}
	m.used[anchor] = bottom

	// Re-place from rank 0: promotions here are the restorations of fast
	// copies.
	m.order.rebuild(m.objects)
	m.stale.add(rankTop)
	before := m.stats.Migrations
	m.placeLocked(rankSpan{})
	rep.Restored += m.stats.Migrations - before
	return rep
}

// CheckInvariants verifies the copy-control and capacity invariants; it
// returns nil when all hold. Tests and property checks call this after
// every mutation sequence. The Figure-3 rules generalize to any tier
// table: a copy at finite tier t requires a copy at t+1, and a full copy
// at tier t is an exact (same-version, byte-identical) duplicate of the
// t+1 copy — except across the anchor boundary, where the backup "may not
// be an exact copy due to the periodical back-up process". For
// payload-carrying objects it additionally verifies that every advertised
// copy's bytes exist in its tier backend.
func (m *Manager) CheckInvariants() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	anchor := m.last()
	recount := make([]core.Bytes, len(m.tiers))
	for id, o := range m.objects {
		resident := false
		for t := Tier(0); t < m.numTiers(); t++ {
			c := o.copies[t]
			if !c.present {
				continue
			}
			resident = true
			if c.version > o.version {
				return fmt.Errorf("storage: %v has copy newer than current version at %s", id, m.TierName(t))
			}
			recount[t] += o.footprint(t, m.cfg.SummaryRatio)
		}
		if !resident {
			return fmt.Errorf("storage: %v resident nowhere", id)
		}
		for t := Tier(0); t < anchor-1; t++ {
			c, next := o.copies[t], o.copies[t+1]
			if !c.present {
				continue
			}
			if !next.present {
				return fmt.Errorf("storage: %v at %s without %s copy", id, m.TierName(t), m.TierName(t+1))
			}
			if !c.summaryOnly {
				if next.summaryOnly {
					return fmt.Errorf("storage: %v full at %s over summary at %s", id, m.TierName(t), m.TierName(t+1))
				}
				if c.version != next.version {
					return fmt.Errorf("storage: %v %s v%d != %s v%d (exact-copy rule)", id, m.TierName(t), c.version, m.TierName(t+1), next.version)
				}
			}
		}
		if o.hasPayload {
			for t := Tier(0); t < m.numTiers(); t++ {
				if c := o.copies[t]; c.present && !m.backends[t].Contains(c.key(id)) {
					return fmt.Errorf("storage: %v copy at %s has no bytes (%v)", id, m.TierName(t), c.key(id))
				}
			}
			for t := Tier(0); t < anchor-1; t++ {
				c, next := o.copies[t], o.copies[t+1]
				if !c.present || c.summaryOnly {
					continue
				}
				a, err1 := readBlob(m.backends[t], c.key(id))
				b, err2 := readBlob(m.backends[t+1], next.key(id))
				if err1 != nil || err2 != nil {
					return fmt.Errorf("storage: %v exact-copy bytes unreadable: %v / %v", id, err1, err2)
				}
				if !bytes.Equal(a, b) {
					return fmt.Errorf("storage: %v %s bytes differ from %s bytes (exact-copy rule)", id, m.TierName(t), m.TierName(t+1))
				}
			}
		}
	}
	if err := m.order.check(m.objects); err != nil {
		return err
	}
	for t := Tier(0); t < anchor; t++ {
		if recount[t] != m.used[t] {
			return fmt.Errorf("storage: %s accounting %v != recount %v", m.TierName(t), m.used[t], recount[t])
		}
		if m.used[t] > m.tiers[t].Capacity {
			return fmt.Errorf("storage: %s over capacity: %v > %v", m.TierName(t), m.used[t], m.tiers[t].Capacity)
		}
	}
	return nil
}
