package topic

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/text"
)

func TestManagerLearnAndHotTerms(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(c.Dict())
	// High-priority content about kyoto, low-priority about osaka.
	m.Learn(c.VectorizeNew("kyoto station travel kyoto"), 0.9)
	m.Learn(c.VectorizeNew("osaka castle visit"), 0.1)

	hot := m.HotTerms(3)
	if len(hot) == 0 {
		t.Fatal("no hot terms")
	}
	if hot[0].Term != "kyoto" {
		t.Errorf("top term = %q, want kyoto", hot[0].Term)
	}
	var osakaW, kyotoW float64
	for _, wt := range m.HotTerms(100) {
		switch wt.Term {
		case "kyoto":
			kyotoW = wt.Weight
		case "osaka":
			osakaW = wt.Weight
		}
	}
	if kyotoW <= osakaW {
		t.Errorf("priority weighting lost: kyoto=%v osaka=%v", kyotoW, osakaW)
	}
}

func TestManagerHeat(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(c.Dict())
	if got := m.Heat(c.Vectorize("anything")); got != 0 {
		t.Errorf("empty model heat = %v", got)
	}
	m.Learn(c.VectorizeNew("festival fireworks kyoto"), 1)
	hotDoc := c.Vectorize("kyoto festival tonight")
	coldDoc := c.Vectorize("database index performance")
	if m.Heat(hotDoc) <= m.Heat(coldDoc) {
		t.Errorf("heat ordering wrong: hot=%v cold=%v", m.Heat(hotDoc), m.Heat(coldDoc))
	}
}

func TestManagerDecay(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(c.Dict())
	m.Learn(c.VectorizeNew("kyoto festival"), 1)
	before := m.HotTerms(1)[0].Weight
	m.Decay(0.5)
	after := m.HotTerms(1)[0].Weight
	if math.Abs(after-before/2) > 1e-9 {
		t.Errorf("decay: %v -> %v", before, after)
	}
	// Decay to nothing prunes entries.
	for i := 0; i < 40; i++ {
		m.Decay(0.1)
	}
	if got := m.HotTerms(10); len(got) != 0 {
		t.Errorf("terms survive full decay: %v", got)
	}
	// Invalid factors are no-ops.
	m.Learn(c.VectorizeNew("x y"), 1)
	w := m.HotTerms(1)[0].Weight
	m.Decay(0)
	m.Decay(1.5)
	if m.HotTerms(1)[0].Weight != w {
		t.Error("invalid decay changed weights")
	}
}

func TestManagerRelatedAndExpand(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(c.Dict())
	for i := 0; i < 5; i++ {
		m.Learn(c.VectorizeNew("kyoto station shinkansen"), 1)
		m.Learn(c.VectorizeNew("osaka harbor ferry"), 1)
	}
	rel := m.Related("kyoto", 5)
	if len(rel) == 0 {
		t.Fatal("no related terms")
	}
	relSet := map[string]bool{}
	for _, r := range rel {
		relSet[r.Term] = true
	}
	if !relSet["station"] || !relSet["shinkansen"] {
		t.Errorf("related to kyoto = %v", rel)
	}
	if relSet["ferri"] || relSet["harbor"] {
		t.Errorf("cross-topic relation leaked: %v", rel)
	}
	if got := m.Related("neverseen", 3); got != nil {
		t.Errorf("Related(unknown) = %v", got)
	}
	if got := m.Related("", 3); got != nil {
		t.Errorf("Related(empty) = %v", got)
	}

	q := m.ExpandQuery("kyoto", 2)
	if !strings.HasPrefix(q, "kyoto") {
		t.Errorf("expansion lost original: %q", q)
	}
	if !strings.Contains(q, "station") && !strings.Contains(q, "shinkansen") {
		t.Errorf("expansion missing related terms: %q", q)
	}
	// Expansion must not duplicate terms already in the query.
	q2 := m.ExpandQuery("kyoto station", 2)
	if strings.Count(q2, "station") > 1 {
		t.Errorf("duplicated term in expansion: %q", q2)
	}
}

func TestBoostTerm(t *testing.T) {
	m := NewManager(nil)
	m.BoostTerm("Gion Festival", 2)
	hot := m.HotTerms(5)
	if len(hot) != 2 {
		t.Fatalf("hot terms = %v", hot)
	}
	m.BoostTerm("", 1)   // no-op
	m.BoostTerm("x", -1) // no-op
	if len(m.HotTerms(5)) != 2 {
		t.Error("no-op boosts changed model")
	}
}

func TestManagerConcurrent(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(c.Dict())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Learn(c.Vectorize("kyoto station"), 0.5)
				m.Heat(c.Vectorize("kyoto"))
				m.HotTerms(3)
				m.Decay(0.999)
			}
		}()
	}
	wg.Wait()
}

func TestSensorDetectsBurst(t *testing.T) {
	clock := core.NewSimClock(0)
	feed := NewNewsFeed()
	s := NewSensor(clock, 0.9, feed)

	// Steady background chatter.
	for i := core.Time(0); i < 5; i++ {
		feed.Publish(Article{Time: i * 10, Headline: "weather report sunny"})
	}
	clock.Set(49)
	first := s.Poll()
	// First poll: everything is new, so everything bursts; absorb it.
	if len(first) == 0 {
		t.Fatal("first poll found nothing")
	}

	// More background, no bursts expected now.
	feed.Publish(Article{Time: 55, Headline: "weather report cloudy"})
	clock.Set(60)
	if bursts := s.Poll(); hasTerm(bursts, "weather") {
		t.Errorf("steady term burst: %v", bursts)
	}

	// The event: three headlines about the festival.
	for i := core.Time(61); i < 64; i++ {
		feed.Publish(Article{Time: i, Headline: "gion festival parade tonight"})
	}
	clock.Set(70)
	bursts := s.Poll()
	if !hasTerm(bursts, "festiv") && !hasTerm(bursts, "festival") {
		t.Fatalf("festival did not burst: %v", bursts)
	}
	if len(bursts) > 0 && bursts[0].Score <= 1 {
		t.Errorf("burst score = %v", bursts[0].Score)
	}

	// Repeat coverage of the same story bursts less.
	feed.Publish(Article{Time: 75, Headline: "gion festival crowds"})
	clock.Set(80)
	again := s.Poll()
	if s1, s2 := scoreOf(bursts, "festiv"), scoreOf(again, "festiv"); s2 >= s1 && s1 > 0 {
		t.Errorf("burst did not attenuate: %v then %v", s1, s2)
	}
}

func hasTerm(bs []Burst, term string) bool {
	for _, b := range bs {
		if b.Term == term {
			return true
		}
	}
	return false
}

func scoreOf(bs []Burst, term string) float64 {
	for _, b := range bs {
		if b.Term == term {
			return b.Score
		}
	}
	return 0
}

func TestSensorFeedInto(t *testing.T) {
	clock := core.NewSimClock(0)
	feed := NewNewsFeed()
	feed.Publish(Article{Time: 0, Headline: "typhoon warning kansai"})
	s := NewSensor(clock, 0.9, feed)
	m := NewManager(nil)
	bursts := s.FeedInto(m, 1.0)
	if len(bursts) == 0 {
		t.Fatal("no bursts")
	}
	hot := m.HotTerms(5)
	found := false
	for _, wt := range hot {
		if wt.Term == "typhoon" {
			found = true
		}
	}
	if !found {
		t.Errorf("typhoon not boosted into manager: %v", hot)
	}
}

func TestSensorMultipleFeeds(t *testing.T) {
	clock := core.NewSimClock(10)
	f1 := NewNewsFeed()
	f2 := NewNewsFeed()
	f1.Publish(Article{Time: 5, Headline: "earthquake drill"})
	s := NewSensor(clock, 0.9, f1)
	s.AddFeed(f2)
	f2.Publish(Article{Time: 8, Headline: "earthquake preparedness"})
	bursts := s.Poll()
	if got := scoreOf(bursts, "earthquak"); got < 1.9 {
		t.Errorf("cross-feed burst score = %v, want ~2", got)
	}
}

func TestSensorDefaultDecay(t *testing.T) {
	s := NewSensor(core.NewSimClock(0), 5) // invalid decay falls back
	if s.decay != 0.9 {
		t.Errorf("decay = %v, want default 0.9", s.decay)
	}
}

// Heat over the TermID-indexed model is the map-keyed model's Heat bit for
// bit: the same products added in the vector's TermID order, over a
// seeded mix of learned pages, priorities (zero too) and boosts.
func TestHeatMatchesMapModel(t *testing.T) {
	c := text.NewCorpus()
	m := NewManager(c.Dict())
	ref, norm2 := map[text.TermID]float64{}, 0.0
	refBump := func(id text.TermID, d float64) {
		old := ref[id]
		ref[id] = old + d
		norm2 += d * (2*old + d)
	}
	words := strings.Fields("kyoto station travel festival fireworks osaka castle data warehouse index night bus deer park temple garden")
	rng := rand.New(rand.NewSource(3))
	page := func() text.Vector {
		var b strings.Builder
		for i := 1 + rng.Intn(12); i > 0; i-- {
			b.WriteString(words[rng.Intn(len(words))] + " ")
		}
		return c.VectorizeNew(b.String())
	}
	for i := 0; i < 300; i++ {
		switch rng.Intn(3) {
		case 0:
			w, x := words[rng.Intn(len(words))], float64(1+rng.Intn(4))
			m.BoostTerm(w, x)
			for _, term := range text.Terms(w) {
				refBump(c.Dict().ID(term), x)
			}
		default:
			v, prio := page(), core.Priority(rng.Intn(4))/4
			m.Learn(v, prio)
			v.ForEach(func(id text.TermID, w float64) { refBump(id, float64(prio)*w) })
		}
		probe := page()
		var dot float64
		probe.ForEach(func(id text.TermID, w float64) { dot += w * ref[id] })
		want := 0.0
		if norm2 > 0 {
			want = dot / math.Sqrt(norm2)
		}
		if got := m.Heat(probe); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: Heat %v, map model %v", i, got, want)
		}
	}
}
