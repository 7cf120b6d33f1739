package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cbfww/internal/core"
)

// Manager is the storage manager. Safe for concurrent use.
type Manager struct {
	mu  sync.RWMutex
	cfg Config
	// tiers is the live tier table, fastest first. The slice itself is
	// immutable after construction (Name/Backend/Latency never change);
	// Capacity is retargeted under mu by ResizeTiers.
	tiers   []TierSpec
	objects map[core.ObjectID]*object
	// order is the population in water-fill order, kept current on every
	// admit, loss and priority change so placement never sorts it.
	order rankOrder
	// stale marks ranks whose placement a lazy mutation (a tier loss, a
	// copy that failed) left short of what the water-fill would
	// decide; the next placement pass starts no lower than its first rank
	// and runs to the end. Recovery and a resize mark rankTop and run that
	// pass at once.
	stale rankSpan
	// backends hold the actual payload bytes, one store per tier-table row.
	backends []BlobStore
	used     []core.Bytes
	stats    Stats
	// memGen counts memory-residency changes; memDirty is the coalesced set
	// of objects whose memory-tier copy changed since the last drain. The
	// hierarchy-of-indices layer polls these instead of sweeping ResidentIDs
	// on every read.
	memGen   atomic.Uint64
	memDirty map[core.ObjectID]struct{}
	// kept maps, per object, the versions its keeper holds to the bytes
	// each adds to the anchor's used (kept.go).
	kept map[core.ObjectID]map[int]core.Bytes
}

// NewManager returns an empty manager over the tier table cfg.Tiers. With
// cfg.DataDir set, the persistent backends are opened (created) under it;
// RecoverFromDisk re-adopts whatever a previous process left there.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.SummaryRatio < 0 || cfg.SummaryRatio >= 1 {
		return nil, fmt.Errorf("storage: %w: summary ratio %v outside [0,1)", core.ErrInvalid, cfg.SummaryRatio)
	}
	if cfg.SummaryThreshold == 0 {
		cfg.SummaryThreshold = 0.25
	}
	tiers, err := cfg.tierTable()
	if err != nil {
		return nil, err
	}
	backends, err := openBackends(cfg, tiers)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		tiers:    tiers,
		objects:  make(map[core.ObjectID]*object),
		order:    rankOrder{finite: Tier(len(tiers) - 1), ratio: cfg.SummaryRatio},
		backends: backends,
		used:     make([]core.Bytes, len(tiers)),
		memDirty: make(map[core.ObjectID]struct{}),
		kept:     make(map[core.ObjectID]map[int]core.Bytes),
	}
	m.stats.MovedBytes = make([]core.Bytes, len(tiers))
	m.stats.DemotedBytes = make([]core.Bytes, len(tiers))
	return m, nil
}

// numTiers returns the live depth of the hierarchy as a Tier bound.
func (m *Manager) numTiers() Tier { return Tier(len(m.tiers)) }

// last returns the anchor tier: the unbounded bottom of the table.
func (m *Manager) last() Tier { return Tier(len(m.tiers) - 1) }

// newObject allocates an object record sized for the live tier table.
func (m *Manager) newObject(id core.ObjectID, size core.Bytes, version int, prio core.Priority, hasPayload bool) *object {
	return &object{
		id: id, size: size, version: version, priority: prio,
		hasPayload: hasPayload,
		copies:     make([]copyState, len(m.tiers)),
	}
}

// TierName names tier t per the live table ("memory", "mmap", "disk", ...).
func (m *Manager) TierName(t Tier) string {
	if t < 0 || t >= m.numTiers() {
		return t.String()
	}
	return m.tiers[t].Name
}

// TierByName resolves a tier-table name to its index.
func (m *Manager) TierByName(name string) (Tier, bool) {
	for t, ts := range m.tiers {
		if ts.Name == name {
			return Tier(t), true
		}
	}
	return 0, false
}

// Tiers returns a snapshot of the live tier table with occupancy and
// movement counters — the /stats storage section and the admin-resize
// response body.
func (m *Manager) Tiers() []TierInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]TierInfo, len(m.tiers))
	for t, ts := range m.tiers {
		out[t] = TierInfo{
			Name:     ts.Name,
			Backend:  ts.Backend,
			Capacity: ts.Capacity,
			Used:     m.used[t],
			Moved:    m.stats.MovedBytes[t],
			Demoted:  m.stats.DemotedBytes[t],
			Latency:  ts.Latency,
		}
	}
	for _, o := range m.objects {
		for t := range m.tiers {
			if o.copies[t].present {
				out[t].Objects++
			}
		}
	}
	return out
}

// Backend exposes the blob store behind one tier (read-mostly: tests and
// benchmarks inspect it; mutating it behind the manager's back breaks the
// placement invariants).
func (m *Manager) Backend(t Tier) BlobStore {
	return m.backends[t]
}

// noteMemLocked records that id's memory-tier copy changed. Requires m.mu.
func (m *Manager) noteMemLocked(id core.ObjectID) {
	m.memDirty[id] = struct{}{}
	m.memGen.Add(1)
}

// MemoryResidencyGen returns a counter that advances whenever any object's
// memory-tier copy changes. Readers compare it against a remembered value
// to skip reconciliation entirely when nothing moved; it is lock-free.
func (m *Manager) MemoryResidencyGen() uint64 {
	return m.memGen.Load()
}

// DrainMemoryChanges returns the IDs whose memory-tier copy changed since
// the previous drain (ascending, for determinism) and the generation the
// drain reflects, clearing the pending set. The events are coalesced and
// idempotent: consumers re-check current residency per ID rather than
// replaying individual transitions.
func (m *Manager) DrainMemoryChanges() ([]core.ObjectID, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen := m.memGen.Load()
	if len(m.memDirty) == 0 {
		return nil, gen
	}
	ids := make([]core.ObjectID, 0, len(m.memDirty))
	for id := range m.memDirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	m.memDirty = make(map[core.ObjectID]struct{})
	return ids, gen
}

// ResidentAt reports whether id currently has a copy (full or summary) at
// tier t.
func (m *Manager) ResidentAt(id core.ObjectID, t Tier) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.objects[id]
	return ok && t >= 0 && t < m.numTiers() && o.copies[t].present
}

// latency returns the access latency of tier t.
func (m *Manager) latency(t Tier) core.Duration {
	return m.tiers[t].Latency
}

// AdmitBytes admits an object together with its content, placing it
// according to the current population. The manager owns the slice
// afterwards. Admitting an existing ID is an error; use UpdateBytes for
// content changes and ApplyPriorities for reprioritization.
func (m *Manager) AdmitBytes(id core.ObjectID, size core.Bytes, version int, prio core.Priority, payload []byte) error {
	return m.AdmitAll([]Admission{{ID: id, Size: size, Version: version, Priority: prio, Payload: payload}})
}

// Admission is one entry of a bulk admission.
type Admission struct {
	ID       core.ObjectID
	Size     core.Bytes
	Version  int
	Priority core.Priority
	// Payload, when non-nil, admits the entry with content (AdmitBytes
	// semantics); nil admits metadata only: the object is tracked and
	// placed like any other but owns no blobs (a page component, or an
	// experiment's population studied without payload I/O).
	Payload []byte
}

// AdmitAll admits a batch with a single placement pass: a page's container
// and components, a trace replay, an experiment's whole population. An
// entry that fails stops the batch; the entries before it stay admitted
// and are placed by the next pass.
func (m *Manager) AdmitAll(batch []Admission) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var touched rankSpan
	for _, a := range batch {
		if err := m.admitLocked(a, &touched); err != nil {
			if touched.any {
				m.stale.add(touched.lo)
			}
			return err
		}
	}
	m.placeLocked(touched)
	return nil
}

// admitLocked lands one object in the anchor tier — the unbounded level,
// so admission never refuses data — and at its rank in the order, which it
// adds to touched; the caller's placement pass then copies it upward as
// far as its priority earns. Requires m.mu.
func (m *Manager) admitLocked(a Admission, touched *rankSpan) error {
	if a.Size <= 0 {
		return fmt.Errorf("storage: admit %v: %w: size %v", a.ID, core.ErrInvalid, a.Size)
	}
	if _, dup := m.objects[a.ID]; dup {
		return fmt.Errorf("storage: admit %v: %w", a.ID, core.ErrExists)
	}
	v := a.Version
	if v < 1 {
		v = 1
	}
	anchor := m.last()
	o := m.newObject(a.ID, a.Size, v, a.Priority, a.Payload != nil)
	if o.hasPayload {
		if err := putBlob(m.backends[anchor], BlobKey{ID: a.ID, Version: v}, a.Payload); err != nil {
			return fmt.Errorf("storage: admit %v: %w", a.ID, err)
		}
	}
	o.copies[anchor] = copyState{present: true, version: v}
	m.claimAnchorLocked(a.ID, v)
	m.objects[a.ID] = o
	m.order.insert(o)
	touched.add(o.key())
	m.used[anchor] += a.Size
	m.stats.MovedBytes[anchor] += a.Size
	return nil
}

// Replace is UpdateBytes at any version, the one storage holds included:
// it repairs a lost or corrupt copy, or takes the version of an origin that
// counts afresh. Every present copy and the anchor are rewritten in place;
// a write that fails leaves the copy it would have replaced standing.
func (m *Manager) Replace(id core.ObjectID, version int, payload []byte) error {
	return m.update(id, version, payload, true)
}

// removeLocked deletes o from every tier, bytes included; its kept
// versions stay. Requires m.mu.
func (m *Manager) removeLocked(o *object) {
	m.order.remove(o)
	for t := Tier(0); t < m.numTiers(); t++ {
		if !o.copies[t].present {
			continue
		}
		if t < m.last() {
			// Room opened in a finite tier: the ranks below may move up,
			// but not before the next placement pass (removal is lazy).
			m.stale.add(o.key())
		}
		m.dropCopyLocked(o, t)
	}
	delete(m.objects, o.id)
}

// dropCopyLocked deletes o's present copy at tier t. Requires m.mu.
func (m *Manager) dropCopyLocked(o *object, t Tier) {
	m.used[t] -= o.footprint(t, m.cfg.SummaryRatio)
	if o.hasPayload {
		m.backends[t].Delete(o.copies[t].key(o.id))
	}
	o.copies[t] = copyState{}
	if t == Memory {
		m.noteMemLocked(o.id)
	}
}

// relocateRetries bounds how often a read chases a blob that a concurrent
// resize moved between tier resolution and backend open.
const relocateRetries = 4

// fullCopy locates the fastest full copy of id right now (no stats).
func (m *Manager) fullCopy(id core.ObjectID) (Tier, int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.objects[id]
	if !ok {
		return 0, 0, false
	}
	for t := Tier(0); t < m.numTiers(); t++ {
		if c := o.copies[t]; c.present && !c.summaryOnly {
			return t, c.version, true
		}
	}
	return 0, 0, false
}

// openCopy opens id's payload at the tier and version the caller resolved
// under the manager lock. The open itself runs outside that lock (the blob
// stores are internally synchronized), so a concurrent placement — a
// resize mid-migration — may delete the copy in between; the blob then
// lives at some other tier, so re-resolve and retry rather than report a
// missing blob the manager still holds. Returns where it was found.
func (m *Manager) openCopy(id core.ObjectID, tier Tier, ver int) (BlobReader, Tier, int, error) {
	br, err := m.backends[tier].Open(BlobKey{ID: id, Version: ver})
	for retry := 0; errors.Is(err, core.ErrNotFound) && retry < relocateRetries; retry++ {
		var ok bool
		if tier, ver, ok = m.fullCopy(id); !ok {
			break
		}
		br, err = m.backends[tier].Open(BlobKey{ID: id, Version: ver})
	}
	return br, tier, ver, err
}

// FetchStream serves the object from the fastest tier with a full copy,
// reports the cost, and returns a streaming reader over the payload, so
// the caller can move the bytes to a socket or another tier without a
// body-sized heap buffer. The caller must Close the reader. Objects
// admitted without payload return a nil reader; an unknown ID fails.
func (m *Manager) FetchStream(id core.ObjectID) (AccessResult, BlobReader, error) {
	m.mu.Lock()
	res, o, err := m.accessLocked(id)
	m.mu.Unlock()
	if err != nil || !o.hasPayload {
		return res, nil, err
	}
	br, tier, ver, err := m.openCopy(id, res.Tier, res.Version)
	if err != nil {
		return res, nil, err
	}
	res.Tier, res.Version, res.Latency = tier, ver, m.latency(tier)
	return res, br, nil
}

// PeekStream is FetchStream without the accounting: the fastest full
// copy's payload and content version, access stats untouched — the
// rehydration and index-feed read path. The caller must Close the reader.
// Objects without payload return core.ErrNotFound.
func (m *Manager) PeekStream(id core.ObjectID) (BlobReader, int, error) {
	m.mu.RLock()
	o, ok := m.objects[id]
	hasPayload := ok && o.hasPayload
	m.mu.RUnlock()
	if !hasPayload {
		return nil, 0, fmt.Errorf("storage: peek %v: %w", id, core.ErrNotFound)
	}
	tier, ver, found := m.fullCopy(id)
	if !found {
		return nil, 0, fmt.Errorf("storage: peek %v: no full copy resident: %w", id, core.ErrNotFound)
	}
	br, _, ver, err := m.openCopy(id, tier, ver)
	if err != nil {
		return nil, 0, err
	}
	return br, ver, nil
}

// accessLocked is the accounting half of FetchStream. Requires m.mu.
func (m *Manager) accessLocked(id core.ObjectID) (AccessResult, *object, error) {
	o, ok := m.objects[id]
	if !ok {
		return AccessResult{}, nil, fmt.Errorf("storage: access %v: %w", id, core.ErrNotFound)
	}
	var res AccessResult
	served := false
	for t := Tier(0); t < m.numTiers(); t++ {
		c := o.copies[t]
		if !c.present {
			continue
		}
		if c.summaryOnly {
			if !res.HasPreview {
				res.HasPreview = true
				res.PreviewTier = t
				res.PreviewLatency = m.latency(t)
			}
			continue
		}
		res.Tier = t
		res.Latency = m.latency(t)
		res.Stale = c.version < o.version
		res.Version = c.version
		served = true
		break
	}
	if !served {
		return AccessResult{}, nil, fmt.Errorf("storage: access %v: no full copy resident: %w", id, core.ErrNotFound)
	}
	m.stats.Accesses++
	m.stats.CostTotal += res.Latency
	return res, o, nil
}

// Contains reports whether id is stored at all, and at which fastest tier.
func (m *Manager) Contains(id core.ObjectID) (Tier, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.objects[id]
	if !ok {
		return 0, false
	}
	for t := Tier(0); t < m.numTiers(); t++ {
		if o.copies[t].present {
			return t, true
		}
	}
	return 0, false
}

// ApplyPriorities updates priorities (ids absent from the map keep their
// current priority; unknown ids are skipped) and re-places from the
// highest rank an object left or arrived at — the whole population when
// the self-organizing "vacuum cleaner" sweep reprices everything.
func (m *Manager) ApplyPriorities(prios map[core.ObjectID]core.Priority) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reprioritizeLocked(prios)
}

// reprioritizeLocked moves each repriced object to its new rank and runs
// the placement pass over the span of ranks left and entered. Requires
// m.mu.
func (m *Manager) reprioritizeLocked(prios map[core.ObjectID]core.Priority) {
	var touched rankSpan
	for id, p := range prios {
		o, ok := m.objects[id]
		if !ok || o.priority == p {
			continue
		}
		touched.add(o.key())
		m.order.remove(o)
		o.priority = p
		m.order.insert(o)
		touched.add(o.key())
	}
	m.placeLocked(touched)
}

// UpdateBytes records a new content version together with its bytes: the
// fast copies are rewritten in place per the copy-control rule, and the
// anchor copy goes stale until the next Backup; an object resident only in
// the anchor is updated there directly. The manager owns the slice
// afterwards. An object admitted without payload takes a nil payload; a
// payload-carrying one refuses it, rather than strand a version label
// without matching bytes.
func (m *Manager) UpdateBytes(id core.ObjectID, newVersion int, payload []byte) error {
	return m.update(id, newVersion, payload, false)
}

// update is the body of UpdateBytes and Replace; repair skips the version
// check and rewrites the anchor as well as the fast copies.
func (m *Manager) update(id core.ObjectID, newVersion int, payload []byte, repair bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objects[id]
	if !ok {
		return fmt.Errorf("storage: update %v: %w", id, core.ErrNotFound)
	}
	if o.hasPayload && payload == nil {
		return fmt.Errorf("storage: update %v: %w: payload object requires its bytes", id, core.ErrInvalid)
	}
	if newVersion <= o.version && !repair {
		return fmt.Errorf("storage: update %v: %w: version %d <= current %d", id, core.ErrInvalid, newVersion, o.version)
	}
	anchor := m.last()
	m.backupKeptLocked(o, o.version) // the fast copies are about to be rewritten
	o.version = newVersion
	rewrite := func(t Tier) error {
		c := &o.copies[t]
		if o.hasPayload {
			data := payload
			if c.summaryOnly {
				data = m.summarize(payload, o.summarySize(m.cfg.SummaryRatio))
			}
			k := BlobKey{ID: id, Version: newVersion, Summary: c.summaryOnly}
			if err := putBlob(m.backends[t], k, data); err != nil {
				return fmt.Errorf("storage: update %v: %w", id, err)
			}
			if c.present && c.key(id) != k {
				m.dropRecordLocked(o, t, c.key(id))
			}
			if t == anchor {
				m.claimAnchorLocked(id, newVersion)
			}
			m.stats.MovedBytes[t] += core.Bytes(len(data))
		}
		if !c.present { // the anchor copy was lost: this lands it again
			c.present = true
			m.used[t] += o.size
			m.stale.add(o.key()) // for the next placement pass to copy up
		}
		c.version = newVersion
		return nil
	}
	fastCopy := false
	for t := Tier(0); t < anchor; t++ {
		if !o.copies[t].present {
			continue
		}
		if err := rewrite(t); err != nil {
			return err
		}
		fastCopy = true
	}
	if !fastCopy || repair {
		return rewrite(anchor)
	}
	return nil
}

// summarize produces the levels-of-detail abstract of payload at roughly
// the target size, via the configured hook or prefix truncation.
func (m *Manager) summarize(payload []byte, target core.Bytes) []byte {
	if m.cfg.Summarize != nil {
		return m.cfg.Summarize(payload, target)
	}
	if core.Bytes(len(payload)) <= target {
		return payload
	}
	return payload[:target]
}

// Backup refreshes every stale or missing anchor copy from the current
// content — the periodic process the paper's copy-control rule assumes —
// and then offers the anchor backend a compaction pass. For an object
// whose current bytes no longer exist on a fast tier (demotion already
// dropped them), the stale anchor copy is left as-is: backup copies
// data, it does not invent it.
func (m *Manager) Backup() {
	m.mu.Lock()
	anchor := m.last()
	for _, o := range m.objects {
		if ct := o.copies[anchor]; !ct.present || ct.version < o.version {
			m.backupLocked(o)
		}
	}
	m.stats.Backups++
	m.mu.Unlock()
	for t := m.numTiers() - 1; t >= 0; t-- {
		if r, ok := m.backends[t].(reclaimer); ok {
			r.reclaim(0.5)
		}
	}
}

// backupLocked is Backup for one object: its anchor copy takes the version
// of its fastest full copy when that is newer. The old anchor record goes
// after the new one is written, unless it is kept; a write that fails
// leaves it standing, retried next sweep. Requires m.mu.
func (m *Manager) backupLocked(o *object) {
	anchor := m.last()
	ct := &o.copies[anchor]
	if !o.hasPayload {
		if !ct.present {
			m.used[anchor] += o.size
		}
		*ct = copyState{present: true, version: o.version}
		return
	}
	br, ver, ok := m.openFullLocked(o)
	if !ok {
		return // nothing fresher to copy from
	}
	if ct.present && ver <= ct.version {
		br.Close()
		return
	}
	n := br.Len()
	err := m.backends[anchor].PutFrom(BlobKey{ID: o.id, Version: ver}, br, n)
	br.Close()
	if err != nil {
		return
	}
	m.stats.MovedBytes[anchor] += core.Bytes(n)
	if ct.present {
		m.dropRecordLocked(o, anchor, ct.key(o.id))
	} else {
		m.used[anchor] += o.size
	}
	m.claimAnchorLocked(o.id, ver)
	*ct = copyState{present: true, version: ver}
}

// Sync flushes every backend to stable storage, the finite tiers first
// shedding all their garbage: a log keeps what its tier demoted until it
// is rewritten, at a cost bounded by the tier's capacity.
func (m *Manager) Sync() error {
	for _, b := range m.backends[:m.last()] {
		if r, ok := b.(reclaimer); ok {
			if err := r.reclaim(0); err != nil {
				return err
			}
		}
	}
	for _, b := range m.backends {
		if err := b.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the backends' file handles. The manager is unusable
// afterwards.
func (m *Manager) Close() error {
	var first error
	for _, b := range m.backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ResidentIDs returns the IDs with a copy (full or summary) at tier t, in
// ascending order — e.g. the membership of the memory tier's detailed
// index.
func (m *Manager) ResidentIDs(t Tier) []core.ObjectID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []core.ObjectID
	for id, o := range m.objects {
		if o.copies[t].present {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResizeTiers retargets any subset of the finite tiers' capacities by
// tier-table name and re-solves placement under the new capacities with
// the same water-fill every other mutation uses. The pass visits every
// object once; only the copies whose decision changed move.
// Shrinking a tier demotes its lowest-ranked residents (deleting the fast
// copies, counted in DemotedBytes); growing promotes the highest-ranked
// objects that now fit, streaming bytes upward (counted in MovedBytes).
func (m *Manager) ResizeTiers(targets map[string]core.Bytes) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, c := range targets {
		t, ok := m.TierByName(name)
		if !ok {
			return fmt.Errorf("storage: resize: %w: unknown tier %q", core.ErrInvalid, name)
		}
		if t == m.last() {
			return fmt.Errorf("storage: resize: %w: tier %q is the unbounded anchor", core.ErrInvalid, name)
		}
		if c < 0 {
			return fmt.Errorf("storage: resize: %w: tier %q capacity %v", core.ErrInvalid, name, c)
		}
	}
	for name, c := range targets {
		t, _ := m.TierByName(name)
		m.tiers[t].Capacity = c
	}
	m.stats.Resizes++
	m.stale.add(rankTop)
	m.placeLocked(rankSpan{})
	return nil
}

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := m.stats
	s.MovedBytes = append([]core.Bytes(nil), m.stats.MovedBytes...)
	s.DemotedBytes = append([]core.Bytes(nil), m.stats.DemotedBytes...)
	return s
}

// Priority returns the object's current priority.
func (m *Manager) Priority(id core.ObjectID) (core.Priority, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.objects[id]
	if !ok {
		return 0, false
	}
	return o.priority, true
}
