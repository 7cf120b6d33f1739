package warehouse

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
	"cbfww/internal/topic"
	"cbfww/internal/workload"
)

// getLogged serves user's request for url and appends it to log, the
// access log a caller of MinePaths keeps.
func getLogged(t *testing.T, w *Warehouse, clock core.Clock, log *logmine.Log, user, url string) {
	t.Helper()
	r, err := w.Get(user, url)
	if err != nil {
		t.Fatal(err)
	}
	*log = append(*log, logmine.Record{Time: clock.Now(), User: user, URL: url, Status: 200, Bytes: r.Page.Size})
}

// fixture builds a small generated web plus a warehouse over it.
func fixture(t *testing.T, s stack, mutate func(*Config)) (*Warehouse, *workload.GeneratedWeb, *core.SimClock) {
	t.Helper()
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite = 4, 12
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Storage.Tiers = storage.ClassicTiers(256*core.KB, 32*core.MB)
	if mutate != nil {
		mutate(&cfg)
	}
	w := s.open(t, cfg, clock, g.Web)
	return w, g, clock
}

func TestGetMissThenHit(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, nil)
		url := g.PageURLs[0]

		r1, err := w.Get("alice", url)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Hit || r1.Source != "origin" {
			t.Errorf("first access = %+v, want origin miss", r1)
		}
		if r1.Page.Title == "" {
			t.Error("empty page served")
		}

		r2, err := w.Get("alice", url)
		if err != nil {
			t.Fatal(err)
		}
		if !r2.Hit {
			t.Errorf("second access = %+v, want hit", r2)
		}
		if r2.Source == "origin" {
			t.Errorf("hit served from origin")
		}
		if r2.Latency >= r1.Latency {
			t.Errorf("hit latency %v not below origin %v", r2.Latency, r1.Latency)
		}
		if r2.Page.Body != r1.Page.Body {
			t.Error("hit served different content")
		}

		st := w.Stats()
		if st.Requests != 2 || st.Hits != 1 || st.OriginFetches != 1 {
			t.Errorf("stats = %+v", st)
		}
		if w.ResidentPages() != 1 {
			t.Errorf("ResidentPages = %d", w.ResidentPages())
		}
	})
}

func TestGetUnknownURL(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, _, _ := fixture(t, s, nil)
		if _, err := w.Get("u", "http://nowhere.example/x"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestWeakConsistencyServesCachedThenRefetches(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Consistency = constraint.Consistency{Mode: constraint.Weak, MinPoll: 100, MaxPoll: 1000}
		})
		url := g.PageURLs[0]
		w.Get("u", url)
		// Origin updates immediately.
		if err := g.Web.Update(url, "fresh news content"); err != nil {
			t.Fatal(err)
		}
		// Within the polling cycle the stale copy is served without checking.
		clock.Advance(10)
		r, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Hit {
			t.Fatalf("expected cached hit, got %+v", r)
		}
		if strings.Contains(r.Page.Body, "fresh news content") {
			t.Error("weak consistency fetched eagerly")
		}
		// After the cycle the check fires and the new content arrives.
		clock.Advance(2000)
		r2, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Hit || !strings.Contains(r2.Page.Body, "fresh news content") {
			t.Errorf("refetch failed: hit=%v body=%q", r2.Hit, r2.Page.Body[:40])
		}
		st := w.Stats()
		if st.Revalidations == 0 || st.Refetches == 0 {
			t.Errorf("stats = %+v", st)
		}
		// Both versions are in the version store.
		if w.Versions().Depth(url) != 2 {
			t.Errorf("version depth = %d", w.Versions().Depth(url))
		}
	})
}

func TestStrongConsistencyAlwaysChecks(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, func(c *Config) {
			c.Consistency = constraint.Consistency{Mode: constraint.Strong}
		})
		url := g.PageURLs[0]
		w.Get("u", url)
		g.Web.Update(url, "instant update")
		r, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hit || !strings.Contains(r.Page.Body, "instant update") {
			t.Errorf("strong consistency missed update: %+v", r.Hit)
		}
	})
}

func TestAdmissionConstraintRejects(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, func(c *Config) {
			c.Admission = constraint.NewAdmission(constraint.MaxSize(1)) // reject all
		})
		url := g.PageURLs[0]
		r, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hit {
			t.Error("rejected page reported as hit")
		}
		if r.Page.Title == "" {
			t.Error("rejected page not passed through to user")
		}
		// Never admitted: second access is another origin fetch.
		r2, _ := w.Get("u", url)
		if r2.Hit {
			t.Error("rejected page was cached anyway")
		}
		if w.Stats().Rejected < 2 {
			t.Errorf("Rejected = %d", w.Stats().Rejected)
		}
		if w.ResidentPages() != 0 {
			t.Errorf("ResidentPages = %d", w.ResidentPages())
		}
	})
}

func TestQueryOverWarehouse(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		// Admit several pages with different access counts.
		for i, url := range g.PageURLs[:6] {
			for j := 0; j <= i; j++ {
				if _, err := w.Get("u", url); err != nil {
					t.Fatal(err)
				}
				clock.Advance(5)
			}
		}
		rows, err := w.Query("SELECT MFU 3 p.oid, p.url FROM Physical_Page p")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("rows = %+v", rows)
		}
		// The most frequently used is the last page (7 accesses).
		if rows[0].Values[1].Str != g.PageURLs[5] {
			t.Errorf("MFU top = %q, want %q", rows[0].Values[1].Str, g.PageURLs[5])
		}
		// MENTION over admitted content: query a term from a known title.
		term := strings.Fields(func() string {
			p, _ := g.Web.Lookup(g.PageURLs[0])
			return p.Title
		}())[0]
		rows2, err := w.Query("SELECT MRU 10 p.url FROM Physical_Page p WHERE p.title MENTION '" + term + "'")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows2) == 0 {
			t.Errorf("MENTION %q found nothing", term)
		}
	})
}

func TestMinePathsBuildsLogicalPages(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Miner.MinSupport = 2
			c.Miner.MinLength = 2
		})
		// Admit a fixed 3-page walk repeatedly, following real links.
		entry := g.PageURLs[0]
		p0, _ := g.Web.Lookup(entry)
		if len(p0.Anchors) == 0 {
			t.Skip("generated page has no links")
		}
		second := p0.Anchors[0].Target
		var log logmine.Log
		for rep := 0; rep < 4; rep++ {
			getLogged(t, w, clock, &log, "bob", entry)
			clock.Advance(3)
			getLogged(t, w, clock, &log, "bob", second)
			clock.Advance(3000) // session gap
		}
		rep, err := w.MinePaths(log)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sessions < 4 || rep.Paths == 0 || rep.LogicalPages == 0 {
			t.Fatalf("mine report = %+v", rep)
		}
		// The logical page's title contains the anchor text used for the hop.
		rows, err := w.Query("SELECT l.path, l.title FROM Logical_Page l")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no logical pages queryable")
		}
		found := false
		anchorText := p0.Anchors[0].Text
		for _, r := range rows {
			if strings.Contains(r.Values[1].Str, anchorText) {
				found = true
			}
		}
		if !found {
			t.Errorf("no logical title contains anchor text %q: %+v", anchorText, rows)
		}
		// Regions were created and linked.
		if rep.Regions == 0 {
			t.Error("no regions after mining")
		}
		// Social navigation now suggests the path.
		hops := w.NextHops(entry, 3)
		if len(hops) == 0 || hops[0].URLs[0] != second {
			t.Errorf("NextHops = %+v", hops)
		}
	})
}

func TestMaintainPrefetchesAnnouncedPages(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		feed := topic.NewNewsFeed()
		w.WatchFeed(feed)
		eventURL := g.PageURLs[3]
		feed.Publish(topic.Article{Time: 5, Headline: "big festival announced", URL: eventURL})
		clock.Advance(10)
		rep, err := w.Maintain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Prefetched != 1 {
			t.Fatalf("Prefetched = %d", rep.Prefetched)
		}
		if len(rep.Bursts) == 0 {
			t.Error("no bursts from fresh headline")
		}
		// The page is already warm: first user request is a hit.
		r, err := w.Get("u", eventURL)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Hit {
			t.Error("prefetched page missed")
		}
		st := w.Stats()
		if st.Prefetches != 1 {
			t.Errorf("Prefetches = %d", st.Prefetches)
		}
		// Prefetch did not count as a request.
		if st.Requests != 1 {
			t.Errorf("Requests = %d", st.Requests)
		}
	})
}

func TestMaintainMigratesByUsage(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Storage.Tiers[0].Capacity = 24 * core.KB // tight memory
			c.Priority.Default = 0.1
		})
		// Admit many pages; hammer one of them.
		for _, url := range g.PageURLs[:10] {
			if _, err := w.Get("u", url); err != nil {
				t.Fatal(err)
			}
			clock.Advance(2)
		}
		hot := g.PageURLs[2]
		for i := 0; i < 30; i++ {
			w.Get("u", hot)
			clock.Advance(2)
		}
		if _, err := w.Maintain(); err != nil {
			t.Fatal(err)
		}
		// The hot page's priority must now exceed a cold one's.
		var hotP, coldP core.Priority
		for _, info := range w.Pages() {
			switch info.URL {
			case hot:
				hotP = info.Priority
			case g.PageURLs[7]:
				coldP = info.Priority
			}
		}
		if hotP <= coldP {
			t.Errorf("hot page priority %v <= cold %v", hotP, coldP)
		}
		if err := w.StorageManager().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecommendAfterVisits(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		for _, url := range g.PageURLs[:8] {
			w.Get("carol", url)
			clock.Advance(2)
		}
		// Admit more pages carol hasn't seen (by another user).
		for _, url := range g.PageURLs[8:12] {
			w.Get("dave", url)
			clock.Advance(2)
		}
		sugg := w.Recommend("carol", 3)
		if len(sugg) == 0 {
			t.Fatal("no recommendations")
		}
		// Suggestions must be unvisited pages.
		visited := map[string]bool{}
		for _, u := range g.PageURLs[:8] {
			visited[u] = true
		}
		for _, s := range sugg {
			for _, info := range w.Pages() {
				_ = info
			}
			_ = s
		}
		if got := w.Recommend("nobody", 3); got != nil {
			t.Errorf("cold user suggestions: %v", got)
		}
	})
}

func TestVersionHistoryAsOf(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			c.Consistency = constraint.Consistency{Mode: constraint.Strong}
		})
		url := g.PageURLs[0]
		w.Get("u", url)
		t1 := clock.Now()
		clock.Advance(100)
		g.Web.Update(url, "second version content")
		w.Get("u", url)

		old, ok := w.Versions().AsOf(url, t1)
		if !ok || old.Version != 1 {
			t.Errorf("AsOf(t1) = %+v, %v", old, ok)
		}
		latest, _ := w.Versions().Latest(url)
		// Materialize reads the body back from the anchor tier.
		latest, err := w.Versions().Materialize(url, latest)
		if err != nil {
			t.Fatal(err)
		}
		if latest.Version != 2 || !strings.Contains(latest.Body, "second version") {
			t.Errorf("Latest = %+v", latest)
		}
	})
}

func TestSearchRankedRetrieval(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, nil)
		for _, url := range g.PageURLs[:10] {
			w.Get("u", url)
		}
		p, _ := g.Web.Lookup(g.PageURLs[0])
		term := strings.Fields(p.Title)[0]
		scores := w.Search(term, 5)
		if len(scores) == 0 {
			t.Errorf("Search(%q) found nothing", term)
		}
	})
}

func TestExpandQueryUsesTopicModel(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, nil)
		for _, url := range g.PageURLs[:10] {
			w.Get("u", url)
		}
		p, _ := g.Web.Lookup(g.PageURLs[0])
		term := strings.Fields(p.Title)[0]
		expanded := w.ExpandQuery(term)
		if !strings.HasPrefix(expanded, term) {
			t.Errorf("expansion lost original: %q", expanded)
		}
	})
}

func TestNewValidation(t *testing.T) {
	clock := core.NewSimClock(0)
	web := simweb.NewWeb(clock)
	if _, err := New(DefaultConfig(), nil, web); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := New(DefaultConfig(), clock, nil); err == nil {
		t.Error("nil web accepted")
	}
	bad := DefaultConfig()
	bad.Storage.Tiers = storage.ClassicTiers(0, core.MB)
	if _, err := New(bad, clock, web); err == nil {
		t.Error("bad storage config accepted")
	}
	bad2 := DefaultConfig()
	bad2.RegionMinSim = 2
	if _, err := New(bad2, clock, web); err == nil {
		t.Error("bad cluster config accepted")
	}
}

func TestStatsDerived(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 || s.MeanLatency() != 0 {
		t.Error("empty stats ratios")
	}
	s = Stats{Requests: 4, Hits: 1, LatencyTotal: 100}
	if s.HitRatio() != 0.25 || s.MeanLatency() != 25 {
		t.Errorf("stats = %v %v", s.HitRatio(), s.MeanLatency())
	}
}

func TestMinePathsOnEmptyLog(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, _, _ := fixture(t, s, nil)
		rep, err := w.MinePaths(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sessions != 0 || rep.Paths != 0 || rep.LogicalPages != 0 {
			t.Errorf("empty-log mine report = %+v", rep)
		}
	})
}

func TestMaintainWithoutFeeds(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		w.Get("u", g.PageURLs[0])
		clock.Advance(3600)
		rep, err := w.Maintain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Prefetched != 0 || len(rep.Bursts) != 0 {
			t.Errorf("feedless maintain report = %+v", rep)
		}
		// Maintain is idempotent when nothing changed.
		if _, err := w.Maintain(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMinePathsIdempotent(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) { c.Miner.MinSupport = 2 })
		entry := g.PageURLs[0]
		p0, _ := g.Web.Lookup(entry)
		if len(p0.Anchors) == 0 {
			t.Skip("no links")
		}
		second := p0.Anchors[0].Target
		var log logmine.Log
		for i := 0; i < 3; i++ {
			getLogged(t, w, clock, &log, "bob", entry)
			clock.Advance(3)
			getLogged(t, w, clock, &log, "bob", second)
			clock.Advance(3000)
		}
		r1, err := w.MinePaths(log)
		if err != nil {
			t.Fatal(err)
		}
		// Every region's members and centroid, its weights printed in
		// full (%v round-trips a float64), after the first mine.
		regions := fmt.Sprint(w.regions.Regions())
		for mine := 2; mine <= 3; mine++ {
			r2, err := w.MinePaths(log)
			if err != nil {
				t.Fatal(err)
			}
			if r2.LogicalPages != 0 {
				t.Errorf("mine %d created %d new logical pages", mine, r2.LogicalPages)
			}
			if r1.Paths != r2.Paths {
				t.Errorf("path counts differ: %d vs %d", r1.Paths, r2.Paths)
			}
			// A logical page mined again is already a member of its region:
			// no second membership, no second absorption.
			if got := fmt.Sprint(w.regions.Regions()); got != regions {
				t.Errorf("mine %d changed the regions:\n%s\nwas\n%s", mine, got, regions)
			}
		}
	})
}

// A page storage refuses joins no region: on the file-backed stack with
// its tiers' directories gone, a cold Get fails at the anchor write, and
// no region holds the page, in its members or its centroid.
func TestRefusedPageJoinsNoRegion(t *testing.T) {
	dir := t.TempDir()
	w, g, _ := fixture(t, stacks[1], func(c *Config) { c.DataDir = dir })
	if err := os.RemoveAll(filepath.Join(dir, "store")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Get("alice", g.PageURLs[0]); err == nil {
		t.Fatal("a cold Get with no store directory succeeded")
	}
	if regions := w.regions.Regions(); len(regions) != 0 {
		t.Errorf("%d regions after a refused admission; the first has members %v", len(regions), regions[0].Members)
	}
}
