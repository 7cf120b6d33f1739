package warehouse

import (
	"context"
	"errors"
	"fmt"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/object"
	"cbfww/internal/priority"
	"cbfww/internal/storage"
	"cbfww/internal/text"
	"cbfww/internal/version"
)

// GetResult reports how a request was served.
type GetResult struct {
	// Page is the content served (possibly a stale cached copy under weak
	// consistency).
	Page core.Page
	// Hit reports whether the warehouse served it without an origin fetch.
	Hit bool
	// Source names where the body came from: the serving row of the
	// storage tier table ("memory", "disk", "tertiary" on the default
	// one), "origin", or "peer" (admitted from another cluster node's
	// copy).
	Source string
	// Latency is the user-visible cost in ticks.
	Latency core.Duration
	// Priority is the page's current admission priority.
	Priority core.Priority
	// Explanation shows how the priority was derived (fresh admissions
	// only).
	Explanation priority.Explanation
	// Stale marks content known to lag the origin (weak consistency).
	Stale bool
	// memoryHit marks a serve from tier 0, for Stats.MemoryHits.
	memoryHit bool
}

// Get serves url for user: the warehouse's fetch-through path. An empty
// user is allowed (anonymous access skips profile updates).
func (w *Warehouse) Get(user, url string) (GetResult, error) {
	return w.GetCtx(context.Background(), user, url)
}

// GetCtx is Get bounded by a context: cancellation or deadline expiry
// aborts origin fetches (a ContextOrigin aborts mid-flight; any other
// Origin is checked before each fetch). This is the entry point network
// daemons use to enforce per-request deadlines.
func (w *Warehouse) GetCtx(ctx context.Context, user, url string) (GetResult, error) {
	return withBody(w.get(ctx, user, url, false, stepCheck))
}

// withBody drains a served page's body stream into out.Page.Body — the
// entry points that return a whole page, not a stream.
func withBody(out GetResult, bs *BodyStream, err error) (GetResult, error) {
	if err != nil {
		return GetResult{}, err
	}
	defer bs.Close()
	if out.Page.Body, err = bs.text(); err != nil {
		return GetResult{}, fmt.Errorf("warehouse: body of %q: %w", out.Page.URL, err)
	}
	return out, nil
}

// Prefetch pulls url into the warehouse without a user request (Topic
// Sensor-driven anticipation). It never counts as a request in Stats.
func (w *Warehouse) Prefetch(url string) error {
	_, bs, err := w.get(context.Background(), "", url, true, stepCheck)
	bs.Close()
	return err
}

// Refresh forces a resident page's content to be refetched from the
// origin, bypassing the consistency schedule. When the origin fails and a
// readable copy exists, the copy is served marked stale — the warehouse
// never loses what it admitted. Refresh does not count as a user request.
func (w *Warehouse) Refresh(ctx context.Context, url string) (GetResult, error) {
	return withBody(w.get(ctx, "", url, true, stepFetch))
}

// get is the shared body of every serve entry point. The returned
// GetResult carries an empty Page.Body; the body arrives via the
// BodyStream, which the caller must Close. A resident page starts at
// first; stepFetch (Refresh) also finds no cold URL instead of admitting.
func (w *Warehouse) get(ctx context.Context, user, url string, prefetch bool, first step) (GetResult, *BodyStream, error) {
	sh := w.shardOf(url)
	sh.lock()
	if st := sh.pages[url]; st != nil {
		return w.serveResident(ctx, sh, user, url, st, prefetch, first)
	}
	sh.mu.Unlock()
	if first == stepFetch {
		return GetResult{}, nil, fmt.Errorf("warehouse: refresh %q: %w", url, core.ErrNotFound)
	}

	// First sight of this URL: fetch it outside the shard lock so cold
	// misses proceed in parallel even within one stripe (the gateway's
	// singleflight already coalesces same-URL misses), then retake the
	// lock to admit the result. In a cluster the miss checks peers before
	// the origin (local → peer → origin), so an object admitted anywhere
	// costs the origin exactly one fetch.
	fr, src, err := w.missFetch(ctx, url)
	if err != nil {
		return GetResult{}, nil, fmt.Errorf("warehouse: fetch %q: %w", url, err)
	}
	rec := w.prepare(url, fr, src, false)
	sh.lock()
	if !prefetch {
		if src == sourcePeer {
			sh.stats.PeerFetches++
		} else {
			sh.stats.OriginFetches++
		}
	}
	st, applied, err := w.commit(sh, rec, absent)
	if st != nil && !applied {
		// A concurrent request admitted the URL while we were fetching:
		// serve the resident copy, just checked, and drop our duplicate.
		return w.serveResident(ctx, sh, user, url, st, prefetch, stepServe)
	}
	defer sh.mu.Unlock()
	if err != nil {
		return GetResult{}, nil, err
	}
	return splitBody(w.firstSight(sh, user, rec, st, prefetch), nil)
}

// step is what a request for a resident page does next.
type step uint8

const (
	stepCheck step = iota // revalidate if the consistency schedule says so
	stepServe             // serve the copy, or refetch it if lost or lagging
	stepFetch             // GET the origin's current version
)

// serveResident serves the resident page st, revalidating or refetching
// it as needed: it decides and applies under sh.mu, and fly makes the
// origin calls unlocked. A request that finds st's origin calls out waits
// for them (or for ctx), then decides afresh. A request makes at most one
// HEAD and one GET: stepFetch is reached once, and every branch after a
// GET returns. Called with sh.mu (write) held, where sh owns url; returns
// with it released.
func (w *Warehouse) serveResident(ctx context.Context, sh *shard, user, url string, st *pageState, prefetch bool, next step) (GetResult, *BodyStream, error) {
	for wait := st.inflight; wait != nil; wait = st.inflight {
		sh.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return GetResult{}, nil, ctx.Err()
		}
		sh.lock()
	}
	defer sh.mu.Unlock()
	lost := false // a read of st's copy failed
	for {
		now := w.clock.Now()
		if next == stepCheck && !w.cfg.Consistency.NeedsCheck(st.lastCheck, now, core.Duration(st.updateGap), w.tracker.AgedFrequency(st.physID)) {
			next = stepServe
		}
		if next == stepServe {
			out, bs, err := w.readResident(st, url)
			if err == nil && out.Page.Version >= st.version {
				w.afterServe(sh, user, url, st, out, prefetch)
				return out, bs, nil
			}
			// The body is lost (tier failures without recovery), corrupt,
			// or older than what was served (restored from a stale backup).
			bs.Close()
			lost, next = true, stepFetch
		}
		f := w.fly(ctx, sh, st, url, next == stepFetch)
		if f.headed {
			if !prefetch {
				sh.stats.Revalidations++
			}
			st.lastCheck = now
		}
		if f.fetched && !prefetch {
			sh.stats.Refetches++
		}
		if f.err != nil {
			// Dead origin: the copy-control promise (§5.2) — serve the
			// admitted copy, marked stale since freshness is unknowable.
			if out, bs, err := w.readResident(st, url); err == nil {
				out.Stale = true
				sh.stats.StaleServes++
				w.afterServe(sh, user, url, st, out, prefetch)
				return out, bs, nil
			}
			if f.fetched {
				return GetResult{}, nil, fmt.Errorf("warehouse: refetch %q: %w", url, f.err)
			}
			lost, next = true, stepFetch // the HEAD failed, no copy is readable: try a GET
			continue
		}
		if !f.fetched {
			next = stepServe // the HEAD found the copy current
			continue
		}
		if !prefetch {
			sh.stats.OriginFetches++
		}
		p := f.rec.fr.Page
		f.rec.lost = lost
		_, applied, err := w.commit(sh, f.rec, f.base)
		if err != nil {
			return GetResult{}, nil, err
		}
		// A refused version (a replica push landed meanwhile) is still what
		// the origin answered: it is served, not kept.
		out := GetResult{Page: p, Source: sourceOrigin, Latency: f.rec.fr.Latency}
		out.Priority, _ = w.store.Priority(st.container)
		w.afterServe(sh, user, url, st, out, prefetch)
		w.appendLog(user, url, out, applied)
		if rep := w.replicator(); rep != nil && applied {
			rep(url, p) // fresh content propagates to the replica set
		}
		return splitBody(out, nil)
	}
}

// flight is what one trip to the origin learned about a resident page.
type flight struct {
	headed, fetched bool    // a HEAD answered; a GET was sent
	base            int     // st's version when the flight left
	rec             *record // the GET's answer, prepared
	err             error   // the origin call that failed
}

// fly makes st's origin calls: a HEAD unless fetch, then a GET if fetch or
// the HEAD names another version, then prepares the result.
// Meanwhile sh.mu is released and st.inflight holds back requests for st
// alone; hits on the rest of the stripe go on. Called with sh.mu (write)
// held; returns, or panics, with it held again.
func (w *Warehouse) fly(ctx context.Context, sh *shard, st *pageState, url string, fetch bool) (f flight) {
	done := make(chan struct{})
	st.inflight, f.base = done, st.version
	sh.mu.Unlock()
	defer func() {
		sh.lock()
		st.inflight = nil
		close(done)
	}()
	if !fetch {
		ver, _, err := w.originHead(ctx, url)
		f.headed, f.err = err == nil, err
		if err != nil || ver == f.base {
			return f
		}
	}
	f.fetched = true
	fr, err := w.originFetch(ctx, url)
	if f.err = err; err == nil {
		f.rec = w.prepare(url, fr, sourceOrigin, true)
	}
	return f
}

// pageContent is everything the warehouse derives from one version of a
// page's content alone: the §5.3 weighted vector, the title+body term
// counts that feed the full index and the hot segment, the stored payload
// and the anchor map. The page is tokenized once for all of it, and its
// terms are resolved to TermIDs here, so no dictionary call is left for
// the commit under the shard lock.
type pageContent struct {
	vec     text.Vector
	terms   []text.TermCount
	payload []byte
	anchors map[string]string
}

func (w *Warehouse) contentOf(p *core.Page) pageContent {
	pc := w.modelOf(p)
	pc.payload = encodePagePayload(p)
	return pc
}

// modelOf is contentOf without the payload, which a restored page has.
func (w *Warehouse) modelOf(p *core.Page) pageContent {
	title, body := w.corpus.Dict().Counts(p.Title), w.corpus.Dict().Counts(p.Body)
	return pageContent{
		vec:     w.corpus.WeightedVectorCounts(title, body, w.cfg.Omega),
		terms:   text.MergeCounts(title, body),
		anchors: anchorMap(p.Anchors),
	}
}

// record is one fetched version of a page made ready to commit: the fetch,
// its source, the admission verdict and the content model. It is prepared
// before the shard lock is taken, like the fetch itself, so the lock covers
// the version check and the shared state and no per-page computation.
type record struct {
	url string
	fr  core.FetchResult
	src string // where the bytes came from; flows to GetResult.Source
	// refused is the Constraint Manager's verdict. It gates first sight
	// only: a page already kept still takes a refused record.
	refused error
	lost    bool // the resident copy failed to read: commit rewrites it
	pageContent
	exp priority.Explanation // how commit derived the admission priority
}

// prepare builds url's record from fr; it is the one caller of contentOf.
// A record made only to admit (update false: the URL was cold, and the
// record is dropped if it turns resident meanwhile) that is refused is
// never kept, so it gets no content model.
func (w *Warehouse) prepare(url string, fr core.FetchResult, src string, update bool) *record {
	rec := &record{url: url, fr: fr, src: src}
	rec.refused = w.cfg.Admission.Check(constraint.Candidate{URL: url, Size: fr.Page.TotalSize()})
	if rec.refused == nil || update {
		rec.pageContent = w.contentOf(&rec.fr.Page)
	}
	return rec
}

// splitBody moves an in-hand body (an origin or peer fetch) out of the
// result and behind a BodyStream, the shape every serve path returns.
func splitBody(out GetResult, err error) (GetResult, *BodyStream, error) {
	if err != nil {
		return GetResult{}, nil, err
	}
	bs := &BodyStream{body: out.Page.Body, n: int64(len(out.Page.Body))}
	out.Page.Body = ""
	return out, bs, nil
}

// Miss-fetch provenance: where a first-sight page's bytes came from.
const (
	sourceOrigin  = "origin"
	sourcePeer    = "peer"
	sourceReplica = "replica" // pushed by a replica-set peer via /peer/put
)

// missFetch resolves a cold miss: a configured peer source (the cluster
// tier) is consulted first for a copy some other node already admitted;
// the origin is the fallback and the only party that can fail the fetch.
func (w *Warehouse) missFetch(ctx context.Context, url string) (core.FetchResult, string, error) {
	if ps := w.peerSource(); ps != nil {
		if fr, ok := ps.FetchResident(ctx, url); ok {
			return fr, sourcePeer, nil
		}
	}
	fr, err := w.originFetch(ctx, url)
	return fr, sourceOrigin, err
}

// GetResidentStream serves url only from a readable admitted copy: no
// origin, no peers, no consistency check. It backs the cluster's
// resident-only peer probes, so it must never recurse into a fetch. The
// serve still counts as a request (cluster demand is demand); the caller
// must Close the BodyStream.
func (w *Warehouse) GetResidentStream(user, url string) (GetResult, *BodyStream, bool) {
	sh := w.shardOf(url)
	sh.lock()
	defer sh.mu.Unlock()
	st := sh.pages[url]
	if st == nil {
		return GetResult{}, nil, false
	}
	out, bs, err := w.readResident(st, url)
	if err != nil {
		return GetResult{}, nil, false
	}
	w.afterServe(sh, user, url, st, out, false)
	return out, bs, true
}

// readResident opens st's container in the serving tier (a counted
// access) and decodes its metadata: the returned result describes the
// hit, its Page carries an empty Body, and the BodyStream holds the body
// bytes, still in the tier. On error no stream is returned.
func (w *Warehouse) readResident(st *pageState, url string) (GetResult, *BodyStream, error) {
	res, br, err := w.store.FetchStream(st.container)
	if err != nil {
		return GetResult{}, nil, err
	}
	if br == nil { // containers always carry payload; treat as lost bytes
		return GetResult{}, nil, fmt.Errorf("warehouse: body of %q: %w", url, core.ErrNotFound)
	}
	page, bs, err := openPage(url, br)
	if err != nil {
		return GetResult{}, nil, err
	}
	out := GetResult{
		Page:      page,
		Hit:       true,
		Source:    w.store.TierName(res.Tier),
		Latency:   res.Latency,
		Stale:     res.Stale,
		memoryHit: res.Tier == storage.Memory,
	}
	out.Priority, _ = w.store.Priority(st.container)
	return out, bs, nil
}

// absent is the base of a record fetched for a URL that was not resident.
const absent = -1

// commit applies rec under sh.mu (write), where sh owns rec.url: it is the
// one function that writes sh.pages or a page's version. A cold URL is
// admitted unless rec was refused. A resident page takes rec's version if
// it still stands at base, the version it had when rec was fetched (absent
// for a cold URL: a page admitted meanwhile takes nothing). Whatever
// version the origin reports is otherwise applied, older ones too (an
// origin that counts afresh). It returns the URL's page, nil if none is
// kept, and whether rec was applied; when it was, storage holds rec's
// version, readable: the bytes it held are rewritten unless they are at
// that version and rec did not find them lost (the version names them).
func (w *Warehouse) commit(sh *shard, rec *record, base int) (*pageState, bool, error) {
	p := &rec.fr.Page
	st := sh.pages[rec.url]
	switch {
	case st != nil && st.version != base:
		return st, false, nil
	case st != nil:
		// Update-gap EMA from observed modification times.
		if st.lastMod != core.TimeNever && p.LastMod.After(st.lastMod) {
			gap := float64(p.LastMod.Sub(st.lastMod))
			if st.updateGap == 0 {
				st.updateGap = gap
			} else {
				st.updateGap = 0.7*st.updateGap + 0.3*gap
			}
		}
		if p.Version > st.version {
			w.tracker.Modify(st.physID)
		}
		st.lastMod = p.LastMod
		st.lastCheck = w.clock.Now()
		st.version = p.Version
		st.vec = rec.vec
		st.anchors = rec.anchors
		// Storage refuses a version it holds or has passed: bytes at base
		// stand unless they failed to read; another version (the origin
		// counts afresh) replaces them. A lost container is admitted again.
		err := w.store.UpdateBytes(st.container, p.Version, rec.payload)
		if errors.Is(err, core.ErrInvalid) && (p.Version != base || rec.lost) {
			err = w.store.Replace(st.container, p.Version, rec.payload)
		}
		if errors.Is(err, core.ErrNotFound) {
			err = w.store.AdmitBytes(st.container, sizeOrOne(p.Size), p.Version, st.admissionPriority, rec.payload)
		}
		if err != nil && !errors.Is(err, core.ErrInvalid) {
			return nil, false, err
		}
		// A page in the hot segment stays there; no residency event fires
		// for an in-place rewrite, so its new content is indexed here.
		if st.inHotIndex {
			sh.hotIndex.IndexCounts(st.physID, rec.terms)
		}
	case rec.refused != nil:
		// Constraint Manager: passed through to the user, not kept.
		sh.stats.Rejected++
		return nil, false, nil
	default:
		// Content model: §5.3 admission priority and region.
		var prio core.Priority
		prio, rec.exp = w.prios.AdmissionPriority(rec.vec)
		// Object hierarchy: physical page + raw objects, whose lazy body
		// loader reads the bytes back from whatever tier holds them.
		phys, err := w.builder.AddPhysicalPage(p, w.bodyLoader(rec.url))
		if err != nil {
			return nil, false, err
		}
		container, _ := w.objects.ByKey(object.KindRaw, rec.url)
		st = &pageState{
			physID:            phys.ID,
			container:         container.ID,
			version:           p.Version,
			vec:               rec.vec,
			region:            w.regions.Assign(clusterPoint(phys.ID, rec.vec)),
			lastCheck:         w.clock.Now(),
			lastMod:           p.LastMod,
			admissionPriority: prio,
			anchors:           rec.anchors,
		}
		// Storage: container + components enter with the page's priority,
		// before the page is published, so cross-shard sweeps never see a
		// container storage does not know. The event route goes first: the
		// residency events of the placement pass park on the shard lock
		// until the page is published. A page storage refuses is not
		// published, and its route goes too.
		w.pageOfContainer.Store(container.ID, rec.url)
		if err := w.admitToStorage(container.ID, p, prio, rec.payload); err != nil {
			w.pageOfContainer.Delete(container.ID)
			return nil, false, err
		}
		sh.pages[rec.url] = st
		w.topics.Learn(rec.vec, prio)
	}
	// Indexes and version history.
	w.index.IndexCounts(st.physID, rec.terms)
	if err := w.history.Capture(rec.url, version.Snapshot{
		Version: p.Version, Time: w.clock.Now(), Title: p.Title, Size: p.Size,
	}); err != nil {
		return nil, false, err
	}
	return st, true, nil
}

// AdmitReplica absorbs a payload a replica-set peer pushed via /peer/put.
// It never contacts the origin and never re-fires the replication hook
// (no replication storms). Returns whether the payload was taken: a
// resident copy at the same or newer version stands untouched; a resident
// older copy is updated in place, even where the admission rules would
// refuse the page, since they gate first sight only; a cold URL is
// admitted unless they refuse it.
func (w *Warehouse) AdmitReplica(url string, fr core.FetchResult) (bool, error) {
	resident := w.Resident(url) // a push for a cold URL only admits
	rec := w.prepare(url, fr, sourceReplica, resident)
	sh := w.shardOf(url)
	sh.lock()
	defer sh.mu.Unlock()
	base := absent
	if st := sh.pages[url]; st != nil {
		// A push prepared for a cold URL is dropped if the page was
		// admitted meanwhile, as a miss's duplicate is.
		if !resident || fr.Page.Version <= st.version {
			return false, nil
		}
		base = st.version
	}
	_, applied, err := w.commit(sh, rec, base)
	if err != nil {
		return false, err
	}
	if base == absent {
		w.appendLog("", url, GetResult{Page: fr.Page}, false) // logged as a prefetch is
	}
	if applied {
		sh.stats.ReplicaAdmits++
	}
	return applied, nil
}

// firstSight finishes a miss whose record commit took for a cold URL: it
// serves the fetched page, counts and logs the request, and hands a kept
// page to the rest of its replica set. st is the admitted page, nil if the
// admission rules refused it (the user still gets the page). Requires
// sh.mu (write).
func (w *Warehouse) firstSight(sh *shard, user string, rec *record, st *pageState, prefetch bool) GetResult {
	out := GetResult{Page: rec.fr.Page, Source: rec.src, Latency: rec.fr.Latency, Explanation: rec.exp}
	switch {
	case st != nil:
		out.Priority = st.admissionPriority
		w.afterServe(sh, user, rec.url, st, out, prefetch)
	case !prefetch:
		w.countRequest(sh, out)
	}
	w.appendLog(user, rec.url, out, false)
	if st != nil && prefetch {
		sh.stats.Prefetches++
	}
	// The hook implementation queues and returns; no blocking under the lock.
	if rep := w.replicator(); st != nil && rep != nil {
		rep(rec.url, rec.fr.Page)
	}
	return out
}

// admitToStorage hands the Storage Manager a page's container and the
// components it does not hold yet as one batch: one placement pass per
// page. Components are shared between pages, so a known one is skipped —
// and one that a page on another shard admits between the check and the
// batch stops the batch at core.ErrExists with the entries before it
// admitted; the next round takes the rest.
func (w *Warehouse) admitToStorage(container core.ObjectID, p *core.Page, prio core.Priority, payload []byte) error {
	batch := make([]storage.Admission, 0, 1+len(p.Components))
	for round := 0; ; round++ {
		batch = batch[:0]
		if _, known := w.store.Contains(container); !known {
			batch = append(batch, storage.Admission{ID: container, Size: sizeOrOne(p.Size), Version: p.Version, Priority: prio, Payload: payload})
		}
		for _, c := range p.Components {
			comp, ok := w.objects.ByKey(object.KindRaw, c.URL)
			if !ok {
				continue
			}
			if _, known := w.store.Contains(comp.ID); !known {
				batch = append(batch, storage.Admission{ID: comp.ID, Size: sizeOrOne(c.Size), Version: 1, Priority: prio})
			}
		}
		err := w.store.AdmitAll(batch)
		if !errors.Is(err, core.ErrExists) || round > len(p.Components) {
			return err
		}
	}
}

// afterServe updates usage, region heat and the user profile, and counts
// the request. Requires sh.mu (write).
func (w *Warehouse) afterServe(sh *shard, user, url string, st *pageState, out GetResult, prefetch bool) {
	if prefetch {
		return
	}
	w.tracker.Touch(st.physID)
	w.tracker.Touch(st.container)
	w.tracker.SetShared(st.container, w.objects.SharedCount(st.container))
	w.prios.RecordAccess(st.region)
	if user != "" {
		w.social.ObserveVisit(user, st.physID, st.vec)
	}
	w.countRequest(sh, out)
	if out.Hit {
		w.appendLog(user, url, out, false)
	}
}

func (w *Warehouse) countRequest(sh *shard, out GetResult) {
	sh.stats.Requests++
	sh.stats.LatencyTotal += out.Latency
	if out.Hit {
		sh.stats.Hits++
		if out.memoryHit {
			sh.stats.MemoryHits++
		}
	}
}

// appendLog records the access in the warehouse's operational log
// ("Operational data (logs) are also stored for priority management and
// performance improvement"). The log has its own mutex so appends from
// different shards keep a single total order — sessionization and path
// mining depend on per-user access order across the whole warehouse.
func (w *Warehouse) appendLog(user, url string, out GetResult, modified bool) {
	rec := logmine.Record{
		Time:     w.clock.Now(),
		User:     user,
		URL:      url,
		Status:   200,
		Bytes:    out.Page.Size,
		Modified: modified,
	}
	w.logMu.Lock()
	w.log = append(w.log, rec)
	w.logMu.Unlock()
}

func sizeOrOne(b core.Bytes) core.Bytes {
	if b <= 0 {
		return 1
	}
	return b
}

// anchorMap indexes a page's outgoing anchors by target URL. When several
// anchors share a target, the first wins (the primary link).
func anchorMap(anchors []core.Anchor) map[string]string {
	m := make(map[string]string, len(anchors))
	for _, a := range anchors {
		if _, dup := m[a.Target]; !dup {
			m[a.Target] = a.Text
		}
	}
	return m
}
