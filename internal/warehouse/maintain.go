package warehouse

import (
	"fmt"
	"sort"

	"cbfww/internal/cluster"
	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/object"
	"cbfww/internal/text"
	"cbfww/internal/topic"
)

func clusterPoint(id core.ObjectID, vec text.Vector) cluster.Point {
	return cluster.Point{ID: id, Vec: vec}
}

// MineReport summarizes one MinePaths run.
type MineReport struct {
	Sessions     int
	Paths        int
	LogicalPages int
	Regions      int
}

// MinePaths runs the Logical Page Manager's discovery pass over an access
// log its caller kept (the warehouse keeps none): sessionize the log, mine
// frequently traversed paths, promote them to logical page objects with
// §5.3 content assembly, cluster the logical documents into semantic
// regions, and hand the path set to the Recommendation Manager.
func (w *Warehouse) MinePaths(log logmine.Log) (MineReport, error) {
	sessions := logmine.Sessionize(log, sessionTimeout)
	paths := logmine.MaximalOnly(logmine.MinePaths(sessions, w.cfg.Miner))
	rep := MineReport{Sessions: len(sessions), Paths: len(paths)}

	for _, path := range paths {
		steps, ok := w.pathSteps(path)
		if !ok {
			continue
		}
		logical, err := w.builder.AddLogicalPage(steps)
		if err != nil {
			return rep, fmt.Errorf("warehouse: mine: %w", err)
		}
		// §5.3: cluster the logical document's weighted vector into a
		// semantic region, then reflect the region in the hierarchy.
		vec := w.corpus.WeightedVector(logical.Title, logical.BodyText(), w.cfg.Omega)
		idx := w.regions.Assign(clusterPoint(logical.ID, vec))
		name := fmt.Sprintf("region-%03d", idx)
		if _, err := w.builder.AddRegion(name, []core.ObjectID{logical.ID}); err != nil {
			return rep, fmt.Errorf("warehouse: mine: %w", err)
		}
		regionObj, _ := w.objects.ByKey(object.KindRegion, name)

		w.metaMu.Lock()
		if _, seen := w.logicalSupport[logical.ID]; !seen {
			rep.LogicalPages++
		}
		w.logicalSupport[logical.ID] = path.Support
		w.regionObjOf[idx] = regionObj.ID
		w.metaMu.Unlock()

		// Index the logical document so MENTION queries reach it.
		w.index.Index(logical.ID, logical.Title+"\n"+logical.BodyText())
	}
	rep.Regions = w.regions.Len()
	w.social.SetPaths(paths)
	return rep, nil
}

// pathSteps converts a mined URL path into builder steps, attaching the
// anchor texts the warehouse recorded at admission. Paths touching pages
// the warehouse never admitted are skipped. Each URL's anchors are read
// under its own shard lock.
func (w *Warehouse) pathSteps(p logmine.Path) ([]object.PathStep, bool) {
	steps := make([]object.PathStep, len(p.URLs))
	for i, url := range p.URLs {
		next := ""
		if i+1 < len(p.URLs) {
			next = p.URLs[i+1]
		}
		anchor, resident := w.anchorText(url, next)
		if !resident {
			return nil, false
		}
		steps[i] = object.PathStep{URL: url, AnchorText: anchor}
	}
	return steps, true
}

// anchorText returns the anchor text the page at url recorded for target
// at admission ("" when none, or when target is ""), and whether url is
// resident at all.
func (w *Warehouse) anchorText(url, target string) (anchor string, resident bool) {
	sh := w.shardOf(url)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.pages[url]
	if !ok {
		return "", false
	}
	return st.anchors[target], true
}

// MaintainReport summarizes one maintenance sweep.
type MaintainReport struct {
	Bursts     []topic.Burst
	Prefetched int
	Migrations int
}

// Maintain runs the warehouse's periodic self-organization: poll the Topic
// Sensor and boost bursting terms, prefetch event pages announced by the
// news feeds, decay the topic and region-heat models, recompute all object
// priorities through the structural rule, re-place storage and refresh
// backups.
func (w *Warehouse) Maintain() (MaintainReport, error) {
	var rep MaintainReport

	// Sensor poll + topic boost (locks inside the components, not w.mu).
	rep.Bursts = w.sensor.FeedInto(w.topics, topicGain)

	// Article-driven prefetch: the sensor's purpose is the "realization of
	// prefetching operations" — event pages enter the warehouse before the
	// request wave.
	now := w.clock.Now()
	w.metaMu.Lock()
	var candidates []string
	for _, f := range w.feeds {
		for _, a := range f.Since(w.lastPrefetchPoll, now) {
			if a.URL != "" {
				candidates = append(candidates, a.URL)
			}
		}
	}
	w.lastPrefetchPoll = now
	w.metaMu.Unlock()
	for _, u := range candidates {
		if w.Resident(u) {
			continue
		}
		if err := w.Prefetch(u); err == nil {
			rep.Prefetched++
		}
	}

	w.topics.Decay(topicDecay)
	w.prios.DecayAll()

	before := w.store.Stats().Migrations
	w.applyPriorities()
	w.store.Backup()
	err := w.clusterTertiary()
	rep.Migrations = w.store.Stats().Migrations - before
	return rep, err
}

// clusterTertiary lays the tertiary medium out by semantic region (§4.4
// locality of reference): pages of the same region — the ones an analysis
// of a past hot spot retrieves together — sit adjacently on tape. Pages
// are collected shard by shard; admissions racing the sweep just wait for
// the next sweep to be laid out. A page whose container storage no longer
// holds is left out of the layout, which Maintain reports with
// core.ErrNotFound.
func (w *Warehouse) clusterTertiary() error {
	byRegion := make(map[int][]core.ObjectID)
	regions := make([]int, 0, 8)
	for _, sh := range w.shards {
		sh.mu.RLock()
		for _, st := range sh.pages {
			if _, seen := byRegion[st.region]; !seen {
				regions = append(regions, st.region)
			}
			byRegion[st.region] = append(byRegion[st.region], st.container)
		}
		sh.mu.RUnlock()
	}
	sort.Ints(regions)
	var order []core.ObjectID
	for _, r := range regions {
		ids := byRegion[r]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		order = append(order, ids...)
	}
	if err := w.store.LayoutTertiary(order); err != nil {
		return fmt.Errorf("warehouse: maintain: %w", err)
	}
	return nil
}

// applyPriorities recomputes every object's priority and re-places
// storage. Base priorities:
//
//   - physical pages: max(admission priority, aged-frequency heat) — the
//     admission estimate until real usage outruns it;
//   - logical pages: mined support, saturating;
//   - semantic regions: the Priority Manager's aged region heat.
//
// The structural rule (max over containers, Fig. 2) then flows these down
// to the raw objects the Storage Manager actually places. The sweep locks
// one shard at a time; pages admitted on already-swept shards while the
// sweep runs simply keep their admission priority until the next sweep.
func (w *Warehouse) applyPriorities() {
	base := make(map[core.ObjectID]core.Priority, w.objects.Len(object.Kind(-1)))
	for _, sh := range w.shards {
		sh.mu.Lock()
		for _, st := range sh.pages {
			f := w.tracker.AgedFrequency(st.physID)
			heat := core.Priority(f / (1 + f))
			// The admission estimate fades with each sweep: once real usage
			// exists it should carry the priority ("priority of an object will
			// be dynamically modified", §4.3 problem (4)).
			st.admissionPriority *= core.Priority(w.cfg.AdmissionDecay)
			p := st.admissionPriority
			if heat > p {
				p = heat
			}
			base[st.physID] = p
		}
		sh.mu.Unlock()
	}
	w.metaMu.RLock()
	for id, support := range w.logicalSupport {
		base[id] = core.Priority(float64(support) / (float64(support) + 5))
	}
	regionObjs := make(map[int]core.ObjectID, len(w.regionObjOf))
	for idx, objID := range w.regionObjOf {
		regionObjs[idx] = objID
	}
	w.metaMu.RUnlock()
	for idx, objID := range regionObjs {
		// RegionHeat takes the Priority Manager's own lock; resolve it
		// outside metaMu to keep lock scopes disjoint.
		base[objID] = core.Priority(w.prios.RegionHeat(idx))
	}
	eff := w.objects.EffectivePriorities(base)

	raws := make(map[core.ObjectID]core.Priority)
	w.objects.ForEach(object.KindRaw, func(o *object.Object) {
		if p, ok := eff[o.ID]; ok {
			raws[o.ID] = p
		}
	})
	w.store.ApplyPriorities(raws)
}
