package warehouse

import (
	"cbfww/internal/core"
	"cbfww/internal/storage"
	"cbfww/internal/text"
)

// §4.1's hierarchy of indices: "Detailed index is given to important
// documents. Some important indexes are stored in the main memory." The
// warehouse keeps the full inverted index (conceptually disk-resident)
// plus a hot index holding only the pages whose bodies currently live in
// the memory tier. Ranked retrieval probes the hot index first and only
// falls back to the full index — at disk cost — when the memory index
// cannot satisfy the request.
//
// The hot index is segmented by shard: each stripe maintains the segment
// covering its own pages, so membership updates take one shard lock at a
// time and a search fans out over the segments and merges. Scores come
// from per-segment statistics (each segment computes IDF over its own
// document population), so a merged ranking can deviate slightly from a
// single unified index — an accepted property of every sharded search
// system; the full disk index still provides globally consistent scoring.
//
// Membership is maintained event-driven rather than by sweeping: the
// Storage Manager coalesces every memory-tier residency change into a
// dirty set stamped with a generation counter, and the warehouse drains
// that set — touching only the affected pages' shards — before serving a
// tiered read. When nothing moved since the last drain, the generation
// comparison alone (two atomic loads) proves the segments current and the
// read proceeds with no locks and no page sweep at all. Events are
// idempotent "re-check this object" notices: the drain re-reads current
// residency per ID, so coalesced, reordered or repeated notices all
// converge on the same membership a from-scratch re-derivation would
// produce.

// TieredSearchResult reports how a search was served.
type TieredSearchResult struct {
	Scores []text.Score
	// Tier that served the result set.
	Tier storage.Tier
	// Latency is the simulated index-access cost.
	Latency core.Duration
}

// maintainHotIndex brings every shard's hot segment up to date with the
// memory tier by applying the pending residency events. The fast path —
// nothing changed — is two atomic loads.
func (w *Warehouse) maintainHotIndex() {
	if w.hotGen.Load() == w.store.MemoryResidencyGen() {
		return
	}
	w.hotMaintMu.Lock()
	defer w.hotMaintMu.Unlock()
	if w.hotGen.Load() == w.store.MemoryResidencyGen() {
		return // another reader drained while we waited
	}
	ids, gen := w.store.DrainMemoryChanges()
	for _, id := range ids {
		w.applyHotEvent(id)
	}
	// Changes that raced past the drain re-raise the generation and are
	// picked up by the next maintenance pass.
	w.hotGen.Store(gen)
}

// applyHotEvent reconciles one object's hot-segment membership with its
// current memory residency. Only page containers are indexed; events for
// component objects (images, scripts) fall out at the routing lookup.
func (w *Warehouse) applyHotEvent(id core.ObjectID) {
	v, ok := w.pageOfContainer.Load(id)
	if !ok {
		return
	}
	url := v.(string)
	sh := w.shardOf(url)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.pages[url]
	if st == nil || st.container != id {
		// The mapping is registered before the page is published to the
		// shard map, and admission holds the shard lock across both, so a
		// nil entry here means the admission failed after storage had
		// already placed the object; nothing to index.
		return
	}
	hot := w.store.ResidentAt(id, storage.Memory)
	if hot == st.inHotIndex {
		return
	}
	if !hot {
		sh.hotIndex.Remove(st.physID)
		st.inHotIndex = false
		return
	}
	// Index exactly what the tiers hold: the hot segment is built from the
	// stored payload, so a copy that cannot be read back is not indexed.
	page, err := w.peekPage(id, url)
	if err != nil {
		return
	}
	sh.hotIndex.Index(st.physID, page.Title+"\n"+page.Body)
	st.inHotIndex = true
}

// SearchTiered performs ranked retrieval through the index hierarchy: the
// memory-resident detailed index first (all shard segments, merged), the
// full index (disk) only when the hot segments return fewer than n
// results. The returned latency uses the tier table's costs.
func (w *Warehouse) SearchTiered(query string, n int) TieredSearchResult {
	w.maintainHotIndex()

	var merged []text.Score
	if terms := text.Terms(query); len(terms) > 0 {
		// Each segment contributes at most one Score per document it
		// holds, so the total hot-document count sizes the candidate
		// buffer exactly once.
		hint := 0
		for _, sh := range w.shards {
			hint += sh.hotIndex.NumDocs()
		}
		merged = make([]text.Score, 0, hint)
		for _, sh := range w.shards {
			// The segment indexes are internally synchronized; no shard
			// lock is needed to search them. The query is parsed once and
			// every segment appends into the same candidate buffer.
			merged = sh.hotIndex.AppendSearch(merged, terms)
		}
	}
	merged = text.SelectTop(merged, n)
	if len(merged) >= n {
		w.indexMemProbes.Add(1)
		return TieredSearchResult{
			Scores:  merged,
			Tier:    storage.Memory,
			Latency: w.cfg.Storage.Tiers[storage.Memory].Latency,
		}
	}
	w.indexDiskProbes.Add(1)
	// The full index lives on the slowest finite tier: disk, on the
	// classic table.
	full := storage.Tier(len(w.cfg.Storage.Tiers) - 2)
	return TieredSearchResult{
		Scores:  w.index.Search(query, n),
		Tier:    full,
		Latency: w.cfg.Storage.Tiers[full].Latency,
	}
}

// HotIndexSize returns how many pages the memory-resident detailed index
// currently covers, over all shard segments.
func (w *Warehouse) HotIndexSize() int {
	w.maintainHotIndex()
	n := 0
	for _, sh := range w.shards {
		n += sh.hotIndex.NumDocs()
	}
	return n
}
