package recommend

import (
	"sync"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/text"
)

func TestObserveVisitBuildsProfile(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(0.3)
	if _, ok := m.profiles["alice"]; ok {
		t.Error("profile exists before visits")
	}
	m.ObserveVisit("alice", 1, c.VectorizeNew("kyoto temple garden"))
	p, ok := m.profiles["alice"]
	if !ok || p.Norm() == 0 {
		t.Fatalf("profile = %v, %v", p, ok)
	}
	if n := len(m.profiles); n != 1 {
		t.Errorf("%d profiles, want 1", n)
	}
}

func TestRecommendRanksAndExcludesVisited(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(0.3)
	kyoto := c.VectorizeNew("kyoto temple garden shrine")
	cooking := c.VectorizeNew("ramen broth noodle recipe")
	weather := c.VectorizeNew("typhoon rainfall humidity")

	m.ObserveVisit("alice", 1, kyoto)
	candidates := []Candidate{
		{1, kyoto}, // visited: excluded
		{2, c.Vectorize("kyoto garden visit")},
		{3, cooking},
		{4, weather},
	}
	got := m.Recommend("alice", candidates, 10)
	if len(got) == 0 {
		t.Fatal("no recommendations")
	}
	for _, s := range got {
		if s.Doc == 1 {
			t.Error("visited object recommended")
		}
	}
	if got[0].Doc != 2 {
		t.Errorf("top suggestion = %v, want the kyoto page", got[0])
	}
	// Unknown user: nothing.
	if got := m.Recommend("nobody", candidates, 5); got != nil {
		t.Errorf("cold user got %v", got)
	}
	// n limits output.
	if got := m.Recommend("alice", candidates, 1); len(got) != 1 {
		t.Errorf("limit ignored: %v", got)
	}
}

func TestProfileTracksDrift(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(0.5)
	kyoto := c.VectorizeNew("kyoto temple garden")
	cooking := c.VectorizeNew("ramen noodle broth")
	m.ObserveVisit("u", 1, kyoto)
	for i := core.ObjectID(2); i < 10; i++ {
		m.ObserveVisit("u", i, cooking)
	}
	p := m.profiles["u"]
	if p.Cosine(cooking) <= p.Cosine(kyoto) {
		t.Errorf("profile did not drift: cook=%v kyoto=%v",
			p.Cosine(cooking), p.Cosine(kyoto))
	}
}

func TestNextHops(t *testing.T) {
	m := NewManager(0)
	m.SetPaths([]logmine.Path{
		{URLs: []string{"/a", "/d", "/g"}, Support: 13},
		{URLs: []string{"/a", "/b", "/e"}, Support: 5},
		{URLs: []string{"/x", "/y"}, Support: 9},
	})
	got := m.NextHops("/a", 10)
	if len(got) != 2 {
		t.Fatalf("NextHops = %+v", got)
	}
	if got[0].Support != 13 || got[0].URLs[0] != "/d" || got[0].URLs[1] != "/g" {
		t.Errorf("top suggestion = %+v", got[0])
	}
	if got[1].URLs[0] != "/b" {
		t.Errorf("second suggestion = %+v", got[1])
	}
	if got := m.NextHops("/nowhere", 10); len(got) != 0 {
		t.Errorf("unknown entry: %v", got)
	}
	if got := m.NextHops("/a", 1); len(got) != 1 {
		t.Errorf("limit ignored: %v", got)
	}
	// Replacing the path set replaces suggestions.
	m.SetPaths(nil)
	if got := m.NextHops("/a", 10); len(got) != 0 {
		t.Errorf("stale paths survived SetPaths(nil): %v", got)
	}
}

func TestManagerConcurrent(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(0.2)
	vec := c.VectorizeNew("kyoto station")
	cands := []Candidate{{7, c.Vectorize("kyoto gardens")}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.ObserveVisit("u", core.ObjectID(i%5+1), vec)
				m.Recommend("u", cands, 3)
				m.NextHops("/a", 2)
				m.SetPaths([]logmine.Path{{URLs: []string{"/a", "/b"}, Support: g}})
			}
		}(g)
	}
	wg.Wait()
}
