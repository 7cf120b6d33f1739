package warehouse

// Degraded-mode tests: a failing origin must never take down content the
// warehouse already admitted (the §5.2 copy-control promise). Serves from
// a dead origin degrade to the resident copy, marked Stale.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/simweb"
)

var errOriginDown = errors.New("origin down")

// flakyOrigin wraps a simulated web with a kill switch and a per-URL
// failure set.
type flakyOrigin struct {
	web  *simweb.Web
	down atomic.Bool

	mu       sync.Mutex
	deadURLs map[string]bool
	fetches  int
}

func newFlakyOrigin(web *simweb.Web) *flakyOrigin {
	return &flakyOrigin{web: web, deadURLs: make(map[string]bool)}
}

func (o *flakyOrigin) kill(url string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.deadURLs[url] = true
}

func (o *flakyOrigin) check(url string) error {
	if o.down.Load() {
		return errOriginDown
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fetches++
	if o.deadURLs[url] {
		return errOriginDown
	}
	return nil
}

func (o *flakyOrigin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	if err := ctx.Err(); err != nil {
		return core.FetchResult{}, err
	}
	if err := o.check(url); err != nil {
		return core.FetchResult{}, err
	}
	return o.web.FetchCtx(ctx, url)
}

// HeadCtx fails only on a full outage (down), not on per-URL kills: a
// dead page's HEAD may well succeed while its GET errors mid-transfer.
func (o *flakyOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if o.down.Load() {
		return 0, 0, errOriginDown
	}
	return o.web.HeadCtx(ctx, url)
}

// degradedFixture builds a strong-consistency warehouse (every hit
// revalidates at the origin) over a small web behind a flaky origin.
func degradedFixture(t *testing.T, s stack) (*Warehouse, *flakyOrigin, *simweb.Web) {
	t.Helper()
	clock := core.NewSimClock(0)
	web := simweb.NewWeb(clock)
	web.AddSite("s.example", 30)
	pages := []*core.Page{
		{URL: "http://s.example/a", Title: "alpha page", Body: "warehouse content one", Size: core.KB},
		{URL: "http://s.example/b", Title: "beta page", Body: "warehouse content two", Size: core.KB},
	}
	for _, p := range pages {
		if err := web.AddPage(p); err != nil {
			t.Fatal(err)
		}
	}
	origin := newFlakyOrigin(web)
	cfg := DefaultConfig()
	cfg.Consistency = constraint.Consistency{Mode: constraint.Strong}
	w := s.open(t, cfg, clock, origin)
	return w, origin, web
}

func TestStaleServeWhenOriginDies(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, origin, _ := degradedFixture(t, s)
		url := "http://s.example/a"
		if _, err := w.Get("u", url); err != nil {
			t.Fatalf("admit: %v", err)
		}

		origin.down.Store(true)

		res, err := w.Get("u", url)
		if err != nil {
			t.Fatalf("degraded get: %v", err)
		}
		if !res.Stale {
			t.Error("degraded serve not marked Stale")
		}
		if !res.Hit {
			t.Error("degraded serve not counted as a hit")
		}
		if res.Page.Title != "alpha page" {
			t.Errorf("degraded serve title = %q", res.Page.Title)
		}
		if got := w.Stats().StaleServes; got != 1 {
			t.Errorf("StaleServes = %d, want 1", got)
		}

		// Unadmitted content has no copy to fall back on: the error stands.
		if _, err := w.Get("u", "http://s.example/b"); !errors.Is(err, errOriginDown) {
			t.Fatalf("unadmitted get err = %v, want origin error", err)
		}

		// Recovery: the origin returns and serves resume fresh.
		origin.down.Store(false)
		res, err = w.Get("u", url)
		if err != nil {
			t.Fatalf("recovered get: %v", err)
		}
		if res.Stale {
			t.Error("recovered serve still marked Stale")
		}
	})
}

func TestRefetchFailureDegradesToStaleCopy(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, origin, web := degradedFixture(t, s)
		url := "http://s.example/a"
		if _, err := w.Get("u", url); err != nil {
			t.Fatalf("admit: %v", err)
		}

		// The origin's HEAD succeeds and reports new content, but the refetch
		// GET fails: still a stale serve, not an error.
		if err := web.Update(url, "changed terms"); err != nil {
			t.Fatal(err)
		}
		origin.kill(url)

		res, err := w.Get("u", url)
		if err != nil {
			t.Fatalf("refetch-degraded get: %v", err)
		}
		if !res.Stale {
			t.Error("refetch failure did not degrade to stale copy")
		}
		if strings.Contains(res.Page.Body, "changed terms") {
			t.Error("stale serve returned content the warehouse never fetched")
		}
	})
}

func TestRefreshForcesRefetchAndDegrades(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, origin, web := degradedFixture(t, s)
		url := "http://s.example/a"
		if _, err := w.Get("u", url); err != nil {
			t.Fatalf("admit: %v", err)
		}

		// Healthy origin: Refresh picks up new content immediately.
		if err := web.Update(url, "freshly minted words"); err != nil {
			t.Fatal(err)
		}
		res, err := w.Refresh(context.Background(), url)
		if err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		if res.Stale || res.Page.Version != 2 {
			t.Fatalf("refresh result stale=%v version=%d, want fresh v2", res.Stale, res.Page.Version)
		}

		// Dead origin: Refresh degrades to the admitted copy.
		origin.down.Store(true)
		res, err = w.Refresh(context.Background(), url)
		if err != nil {
			t.Fatalf("degraded Refresh: %v", err)
		}
		if !res.Stale || res.Page.Version != 2 {
			t.Fatalf("degraded refresh stale=%v version=%d, want stale v2", res.Stale, res.Page.Version)
		}

		// Refresh of something never admitted is an honest not-found.
		if _, err := w.Refresh(context.Background(), "http://s.example/nope"); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("refresh of unadmitted url err = %v", err)
		}
	})
}

func TestStaleServeRespectsCancelledContext(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, origin, _ := degradedFixture(t, s)
		url := "http://s.example/a"
		if _, err := w.Get("u", url); err != nil {
			t.Fatalf("admit: %v", err)
		}
		origin.down.Store(true)

		// Even degraded serves flow through GetCtx; an already-dead context
		// still short-circuits at the origin probe and then degrades — the
		// resident copy is in-process, so serving it needs no origin budget.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := w.GetCtx(ctx, "u", url)
		if err != nil {
			t.Fatalf("GetCtx on cancelled ctx: %v", err)
		}
		if !res.Stale {
			t.Error("cancelled-ctx degraded serve not marked stale")
		}
	})
}

// TestSearchWithFallbackFlakyOrigin covers the §3(1) feedback loop against
// an origin that errors on some link targets: dead links are skipped
// without aborting the loop, and Fetched/Rounds stay accurate.
func TestSearchWithFallbackFlakyOrigin(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		clock := core.NewSimClock(0)
		web := simweb.NewWeb(clock)
		web.AddSite("h.example", 50)
		pages := []*core.Page{
			{
				URL: "http://h.example/hub", Title: "City portal", Body: "directory of services",
				Size: core.KB,
				Anchors: []core.Anchor{
					{Text: "Gion festival parade schedule", Target: "http://h.example/festival"},
					{Text: "Festival parade photographs", Target: "http://h.example/photos"},
					{Text: "Festival parade route map", Target: "http://h.example/map"},
				},
			},
			{
				URL: "http://h.example/festival", Title: "Gion festival 2003",
				Body: "the festival parade passes through the city center", Size: core.KB,
			},
			{
				URL: "http://h.example/photos", Title: "Parade photographs",
				Body: "photographs of the festival parade floats", Size: core.KB,
			},
			{
				URL: "http://h.example/map", Title: "Parade route",
				Body: "the parade route crosses the river", Size: core.KB,
			},
		}
		for _, p := range pages {
			if err := web.AddPage(p); err != nil {
				t.Fatal(err)
			}
		}
		origin := newFlakyOrigin(web)
		// Two of the three matching link targets error at the origin.
		origin.kill("http://h.example/festival")
		origin.kill("http://h.example/map")

		w := s.open(t, DefaultConfig(), clock, origin)
		if _, err := w.Get("u", "http://h.example/hub"); err != nil {
			t.Fatalf("admit hub: %v", err)
		}

		res, err := w.SearchWithFallback("festival parade", 2, 5)
		if err != nil {
			t.Fatalf("SearchWithFallback: %v", err)
		}
		// The loop must survive the two failures and still land the live page.
		fetched := map[string]bool{}
		for _, u := range res.Fetched {
			fetched[u] = true
		}
		if !fetched["http://h.example/photos"] {
			t.Errorf("live target not fetched: %v", res.Fetched)
		}
		if fetched["http://h.example/festival"] || fetched["http://h.example/map"] {
			t.Errorf("dead targets reported as fetched: %v", res.Fetched)
		}
		// Fetched lists exactly the successful pulls: every entry resident.
		for _, u := range res.Fetched {
			if !w.Resident(u) {
				t.Errorf("Fetched reports %q but it is not resident", u)
			}
		}
		if res.Rounds < 1 {
			t.Errorf("Rounds = %d, want >= 1", res.Rounds)
		}
		// The live page is now searchable.
		if got := w.Search("photographs", 3); len(got) == 0 {
			t.Error("fetched page not indexed")
		}
	})
}
