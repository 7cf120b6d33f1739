package warehouse

import (
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
)

// A hand-built web where the warehouse holds one hub page whose links
// (with descriptive anchor texts) lead to the content the query wants.
func fallbackFixture(t *testing.T, s stack) (*Warehouse, *core.SimClock) {
	t.Helper()
	clock := core.NewSimClock(0)
	web := simweb.NewWeb(clock)
	web.AddSite("h.example", 50)
	pages := []*core.Page{
		{
			URL: "http://h.example/hub", Title: "City portal", Body: "directory of services",
			Size: core.KB,
			Anchors: []core.Anchor{
				{Text: "Gion festival parade schedule", Target: "http://h.example/festival"},
				{Text: "Garbage collection calendar", Target: "http://h.example/garbage"},
				{Text: "Dead link", Target: "http://h.example/missing"},
			},
		},
		{
			URL: "http://h.example/festival", Title: "Gion festival 2003",
			Body: "the festival parade passes through the city center", Size: core.KB,
		},
		{
			URL: "http://h.example/garbage", Title: "Garbage calendar",
			Body: "burnable waste on tuesdays", Size: core.KB,
		},
	}
	for _, p := range pages {
		if err := web.AddPage(p); err != nil {
			t.Fatal(err)
		}
	}
	w := s.open(t, DefaultConfig(), clock, web)
	if _, err := w.Get("u", "http://h.example/hub"); err != nil {
		t.Fatal(err)
	}
	return w, clock
}

func TestSearchWithFallbackFetchesByAnchorText(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, _ := fallbackFixture(t, s)
		// The warehouse has only the hub; "festival parade" matches nothing
		// resident, but the hub's anchor text points the way.
		res, err := w.SearchWithFallback("festival parade", 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scores) == 0 {
			t.Fatalf("fallback found nothing: %+v", res)
		}
		if res.Rounds == 0 {
			t.Error("no fallback rounds ran")
		}
		found := false
		for _, u := range res.Fetched {
			if u == "http://h.example/festival" {
				found = true
			}
			if u == "http://h.example/garbage" {
				t.Error("irrelevant link fetched before the relevant one")
			}
		}
		if !found {
			t.Errorf("festival page not fetched: %v", res.Fetched)
		}
		// The fetched page is now resident and directly searchable.
		if got := w.Search("festival parade", 3); len(got) == 0 {
			t.Error("fetched page not indexed")
		}
	})
}

func TestSearchWithFallbackNoopWhenSatisfied(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, _ := fallbackFixture(t, s)
		// The hub itself satisfies a query about services.
		res, err := w.SearchWithFallback("directory services", 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Fetched) != 0 || res.Rounds != 0 {
			t.Errorf("satisfied query still fetched: %+v", res)
		}
	})
}

func TestSearchWithFallbackRespectsBudget(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, _ := fallbackFixture(t, s)
		// Ask for more results than exist with a zero fetch budget.
		res, err := w.SearchWithFallback("festival parade", 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Fetched) != 0 {
			t.Errorf("zero budget fetched %v", res.Fetched)
		}
		// With budget 1, at most one fetch happens even though 2 links match
		// weakly.
		res2, err := w.SearchWithFallback("festival parade calendar", 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res2.Fetched) > 1 {
			t.Errorf("budget exceeded: %v", res2.Fetched)
		}
	})
}

func TestSearchWithFallbackSurvivesDeadLinks(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, _ := fallbackFixture(t, s)
		// A query matching only the dead link's anchor: the loop must skip the
		// fetch failure and terminate cleanly.
		res, err := w.SearchWithFallback("dead link", 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range res.Fetched {
			if strings.Contains(u, "missing") {
				t.Errorf("dead link reported as fetched: %v", res.Fetched)
			}
		}
	})
}
