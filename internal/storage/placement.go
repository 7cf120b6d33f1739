package storage

// placeLocked re-solves placement by water-fill: objects in rank order
// (priority descending; ties by ID for determinism) fill the finite tiers
// top-down; everyone keeps/earns copies per the copy-control rules, which
// generalize from the Figure-3 stack to any tier table as "a copy at tier
// t requires a copy at tier t+1". Requires m.mu.
//
// The walk touches only what changed. touched is the span of ranks the
// caller inserted at or moved objects between; the walk starts at its
// first rank, carrying the budgets the ranks above have consumed (a
// root-path sum in the order), and past the span's last rank it stops as
// soon as the budgets it carries can no longer change a decision
// (settled). A mutation recorded in m.stale — a removal, a tier loss, a
// copy that failed, a resize — pulls the start up to its rank and forbids
// the early stop; from rankTop that is the whole-population pass.
func (m *Manager) placeLocked(touched rankSpan) {
	canStop := !m.stale.any
	if m.stale.any {
		touched.add(m.stale.lo)
		m.stale = rankSpan{}
	}
	if !touched.any {
		return
	}
	o := m.order.seek(touched.lo)
	if o == nil {
		return
	}
	anchor := m.last()
	budget := m.order.prefix(o)
	// shift is how far budget has moved from what the previous pass carried
	// into the same object: the net footprint change applied so far.
	var shift tierBytes
	var want, asSummary [maxTiers]bool
	for ; o != nil; o = o.next() {
		if canStop && touched.hi.before(o.key()) && m.settled(&shift) {
			return
		}
		m.stats.PlacementVisits++
		// Decide bottom-up so the nesting rule composes: a tier only wants
		// the object if the next slower tier does too (the anchor always
		// holds it). Intermediate tiers hold full bodies; the summary
		// device applies at tier 0 only — "an object too large for the
		// tier its priority deserves keeps a small summary at that tier
		// while the full body stays one level down".
		for t := anchor - 1; t >= 1; t-- {
			below := t == anchor-1 || want[t+1]
			want[t] = below && budget[t]+o.size <= m.tiers[t].Capacity
			asSummary[t] = false
		}
		memCap := m.tiers[0].Capacity
		big := float64(o.size) > m.cfg.SummaryThreshold*float64(memCap)
		below := anchor == 1 || want[1]
		want[0], asSummary[0] = false, false
		switch {
		case !below:
			// Cannot satisfy the exact-copy invariant: stay demoted.
		case big && m.cfg.SummaryRatio > 0 &&
			budget[0]+o.summarySize(m.cfg.SummaryRatio) <= memCap:
			want[0], asSummary[0] = true, true
		case !big && budget[0]+o.size <= memCap:
			want[0] = true
		}

		// Apply bottom-up so promotions find their source one tier down
		// already materialized (the cheapest copy distance).
		was := m.order.footprints(o)
		for t := anchor - 1; t >= 0; t-- {
			m.applyPlacement(o, t, want[t], asSummary[t])
		}
		// footprint, not the wanted state, feeds the accounting: a payload
		// promotion that found no source bytes leaves the copy absent — and
		// the object off its fixpoint, so the next pass retries from here.
		now := m.order.footprints(o)
		m.order.reweigh(o, was, now)
		for t := Tier(0); t < anchor; t++ {
			budget[t] += now[t]
			shift[t] += now[t] - was[t]
			m.used[t] += now[t] - was[t]
			if c := o.copies[t]; c.present != want[t] || (c.present && c.summaryOnly != asSummary[t]) {
				m.stale.add(o.key())
			}
		}
	}
}

// settled reports whether every object ranked below the walk's position
// keeps its placement although the budgets reaching it moved by shift. A
// tier whose budget did not move decides as before. One whose budget rose
// only turns fits into misfits, and not even that while the tier as a
// whole is within capacity: each resident's new budget plus its own
// footprint is at most the tier's new total. A budget that fell may let
// in something that did not fit, so the walk goes on.
func (m *Manager) settled(shift *tierBytes) bool {
	for t := Tier(0); t < m.last(); t++ {
		if shift[t] < 0 || (shift[t] > 0 && m.used[t] > m.tiers[t].Capacity) {
			return false
		}
	}
	return true
}

// applyPlacement transitions one object's copy at tier t to the desired
// state, counting migrations and maintaining version semantics: a copy
// created by promotion carries its source's version (upgrade copies
// data, so a copy promoted from a stale backup is honestly stale too);
// an invalidated copy simply disappears (downgrade is free, its bytes
// are deleted and counted in DemotedBytes). For metadata-only objects
// there are no bytes to move and the promoted copy is labeled with the
// current version, as before.
func (m *Manager) applyPlacement(o *object, t Tier, want, summaryOnly bool) {
	moved := o.size
	if summaryOnly {
		moved = o.summarySize(m.cfg.SummaryRatio)
	}
	c := &o.copies[t]
	if c.present && !c.summaryOnly && (!want || summaryOnly) {
		m.backupKeptLocked(o, c.version) // the full copy at t is about to go
	}
	switch {
	case want && !c.present:
		ver := o.version
		if o.hasPayload {
			srcVer, ok := m.copyBlobLocked(o, t, summaryOnly)
			if !ok {
				return // no source bytes anywhere: the copy cannot exist
			}
			ver = srcVer
		}
		*c = copyState{present: true, version: ver, summaryOnly: summaryOnly}
		m.stats.MovedBytes[t] += moved
	case want && c.present && c.summaryOnly != summaryOnly:
		ver := o.version
		if o.hasPayload {
			old := c.key(o.id)
			srcVer, ok := m.copyBlobLocked(o, t, summaryOnly)
			if !ok {
				return
			}
			if old != (BlobKey{ID: o.id, Version: srcVer, Summary: summaryOnly}) {
				m.backends[t].Delete(old)
			}
			ver = srcVer
		}
		c.summaryOnly = summaryOnly
		c.version = ver
		m.stats.MovedBytes[t] += moved
	case !want && c.present:
		m.stats.DemotedBytes[t] += o.footprint(t, m.cfg.SummaryRatio)
		if o.hasPayload {
			m.backends[t].Delete(c.key(o.id))
		}
		*c = copyState{}
	default:
		return // no change: nothing to count or note
	}
	m.stats.Migrations++
	if t == 0 {
		m.noteMemLocked(o.id)
	}
}

// copyBlobLocked materializes o's bytes at tier t — the full body or its
// levels-of-detail summary — sourcing from the fastest tier holding a
// full copy. Returns the version the written blob carries. Requires m.mu.
//
// Full copies stream reader→writer (io.Copy under PutFrom) so a 4MB
// migration never doubles resident heap; summary copies still materialize
// because the summarize hook needs the whole payload in hand.
func (m *Manager) copyBlobLocked(o *object, t Tier, summaryOnly bool) (int, bool) {
	if summaryOnly {
		data, srcVer, ok := m.readFullLocked(o)
		if !ok {
			return 0, false
		}
		data = m.summarize(data, o.summarySize(m.cfg.SummaryRatio))
		if err := putBlob(m.backends[t], BlobKey{ID: o.id, Version: srcVer, Summary: true}, data); err != nil {
			return 0, false
		}
		return srcVer, true
	}
	br, srcVer, ok := m.openFullLocked(o)
	if !ok {
		return 0, false
	}
	err := m.backends[t].PutFrom(BlobKey{ID: o.id, Version: srcVer}, br, br.Len())
	br.Close()
	if err != nil {
		return 0, false
	}
	return srcVer, true
}

// readFullLocked reads the bytes of o's fastest full copy. Requires m.mu.
func (m *Manager) readFullLocked(o *object) ([]byte, int, bool) {
	for t := Tier(0); t < m.numTiers(); t++ {
		c := o.copies[t]
		if !c.present || c.summaryOnly {
			continue
		}
		if data, err := readBlob(m.backends[t], c.key(o.id)); err == nil {
			return data, c.version, true
		}
	}
	return nil, 0, false
}

// openFullLocked opens a stream over o's fastest full copy. Requires m.mu.
func (m *Manager) openFullLocked(o *object) (BlobReader, int, bool) {
	for t := Tier(0); t < m.numTiers(); t++ {
		c := o.copies[t]
		if !c.present || c.summaryOnly {
			continue
		}
		if br, err := m.backends[t].Open(c.key(o.id)); err == nil {
			return br, c.version, true
		}
	}
	return nil, 0, false
}
