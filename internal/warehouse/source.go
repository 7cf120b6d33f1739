package warehouse

import (
	"cbfww/internal/core"
	"cbfww/internal/object"
	"cbfww/internal/query"
	"cbfww/internal/recommend"
	"cbfww/internal/text"
	"cbfww/internal/usage"
)

// querySource adapts the warehouse to the query executor. It is a separate
// type so the warehouse's public surface stays small.
type querySource struct{ w *Warehouse }

// Rows implements query.Source.
func (s querySource) Rows(kind object.Kind) []*object.Object {
	var out []*object.Object
	s.w.objects.ForEach(kind, func(o *object.Object) { out = append(out, o) })
	return out
}

// UsageOf implements query.Source.
func (s querySource) UsageOf(id core.ObjectID) (usage.Snapshot, bool) {
	return s.w.tracker.Get(id)
}

// FrequencyOf implements query.Source.
func (s querySource) FrequencyOf(id core.ObjectID) float64 {
	return s.w.tracker.AgedFrequency(id)
}

// ChildrenOf implements query.Source.
func (s querySource) ChildrenOf(id core.ObjectID) []core.ObjectID {
	return s.w.objects.Children(id)
}

// Query parses and executes a popularity-aware query (§4.3). The query
// text is first run through the Topic Manager's expansion only for MENTION
// phrases at the caller's choice — Query executes exactly what was given;
// use ExpandQuery to pre-expand.
func (w *Warehouse) Query(q string) ([]query.Row, error) {
	// No warehouse-level lock: the executor only reads the object
	// hierarchy and the usage tracker, both internally synchronized, so
	// any number of queries run concurrently with admissions on every
	// shard. A query racing an admission may or may not see the new page
	// — the same read-committed visibility the old read lock gave.
	return query.RunString(q, querySource{w: w})
}

// ExpandQuery rewrites free-text search terms through the Topic Manager
// (§3(1): "A query given by a user is modified by the contents of Topic
// Manager").
func (w *Warehouse) ExpandQuery(text string) string {
	return w.topics.ExpandQuery(text, 2)
}

// Search runs ranked full-text retrieval over the warehouse's contents —
// the Search-Engine face of the system.
func (w *Warehouse) Search(queryText string, n int) []text.Score {
	// The full inverted index is internally synchronized.
	return w.index.Search(queryText, n)
}

// Recommend returns content suggestions for the user over everything the
// warehouse holds.
func (w *Warehouse) Recommend(user string, n int) []recommend.Suggestion {
	cands, _ := w.candidates()
	return w.social.Recommend(user, cands, n)
}

// candidates gathers every resident page's physical ID and vector, and
// its URL at the same index, in one sweep over the shards.
func (w *Warehouse) candidates() ([]recommend.Candidate, []string) {
	n := w.ResidentPages()
	cands, urls := make([]recommend.Candidate, 0, n), make([]string, 0, n)
	for _, sh := range w.shards {
		sh.mu.RLock()
		for url, st := range sh.pages {
			cands = append(cands, recommend.Candidate{ID: st.physID, Vec: st.vec})
			urls = append(urls, url)
		}
		sh.mu.RUnlock()
	}
	return cands, urls
}

// RecommendedPage is a content suggestion resolved back to its URL — the
// form a network client can actually follow.
type RecommendedPage struct {
	URL   string
	Score float64
}

// RecommendPages returns content suggestions for the user with object IDs
// resolved to URLs (the gateway's /recommend payload).
func (w *Warehouse) RecommendPages(user string, n int) []RecommendedPage {
	cands, urls := w.candidates()
	sugg := w.social.Recommend(user, cands, n)
	rank := make(map[core.ObjectID]int, len(sugg))
	for i, s := range sugg {
		rank[s.Doc] = i
	}
	out := make([]RecommendedPage, len(sugg))
	for i, c := range cands {
		if k, ok := rank[c.ID]; ok {
			out[k] = RecommendedPage{URL: urls[i], Score: sugg[k].Value}
		}
	}
	return out
}

// NextHops returns social-navigation suggestions for a user standing on
// url.
func (w *Warehouse) NextHops(url string, n int) []recommend.PathSuggestion {
	return w.social.NextHops(url, n)
}

// Resident reports whether url is already admitted. The answer may be
// stale by the time the caller acts on it: the callers use it as a hint
// (maintenance, fallback search, replica pushes), and the serve path
// decides under the shard lock.
func (w *Warehouse) Resident(url string) bool {
	sh := w.shardOf(url)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.pages[url]
	return ok
}

// ResidentPages returns the number of admitted physical pages, summed over
// shards.
func (w *Warehouse) ResidentPages() int {
	n := 0
	for _, sh := range w.shards {
		sh.mu.RLock()
		n += len(sh.pages)
		sh.mu.RUnlock()
	}
	return n
}

// PageInfo describes one admitted page for tooling.
type PageInfo struct {
	URL      string
	Version  int
	Region   int
	Priority core.Priority
	Tier     string
}

// Pages lists admitted pages (unspecified order), shard by shard.
func (w *Warehouse) Pages() []PageInfo {
	out := make([]PageInfo, 0, w.ResidentPages())
	for _, sh := range w.shards {
		sh.mu.RLock()
		for url, st := range sh.pages {
			info := PageInfo{URL: url, Version: st.version, Region: st.region}
			info.Priority, _ = w.store.Priority(st.container)
			if tier, ok := w.store.Contains(st.container); ok {
				info.Tier = tier.String()
			}
			out = append(out, info)
		}
		sh.mu.RUnlock()
	}
	return out
}
