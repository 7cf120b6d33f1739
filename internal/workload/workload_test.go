package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/text"
)

func TestZipfDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z := NewZipf(rng, 100, 1.0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		r := z.Sample()
		if r < 0 || r >= 100 {
			t.Fatalf("Sample out of range: %d", r)
		}
		counts[r]++
	}
	// Rank 0 should get roughly 1/H(100) ≈ 19% of mass.
	p0 := float64(counts[0]) / draws
	if p0 < 0.15 || p0 > 0.24 {
		t.Errorf("rank-0 mass = %v, want ~0.19", p0)
	}
	// Monotone-ish head: rank 0 clearly above rank 10.
	if counts[0] <= counts[10] {
		t.Errorf("head not dominant: c0=%d c10=%d", counts[0], counts[10])
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 50, 0.8)
	sum := 0.0
	for i := 0; i < 50; i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(50) != 0 {
		t.Error("out-of-range Prob != 0")
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-9 {
			t.Errorf("Prob(%d) = %v, want 0.1", i, z.Prob(i))
		}
	}
}

func TestZipfPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range []func(){
		func() { NewZipf(rng, 0, 1) },
		func() { NewZipf(rng, 10, -1) },
	} {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestVocabularyDisjointTopics(t *testing.T) {
	v := NewVocabulary(5, 20, 10)
	seen := make(map[string]int)
	for ti, words := range v.Topics {
		if len(words) != 20 {
			t.Fatalf("topic %d has %d words", ti, len(words))
		}
		for _, w := range words {
			if prev, dup := seen[w]; dup {
				t.Errorf("word %q in topics %d and %d", w, prev, ti)
			}
			seen[w] = ti
		}
	}
	for _, w := range v.Shared {
		if _, dup := seen[w]; dup {
			t.Errorf("shared word %q also topical", w)
		}
	}
	if len(v.Shared) != 10 {
		t.Errorf("shared size = %d", len(v.Shared))
	}
}

func TestVocabularySyntheticExtension(t *testing.T) {
	// Demand more words than the base pool provides.
	v := NewVocabulary(40, 24, 24)
	total := make(map[string]bool)
	for _, ws := range v.Topics {
		for _, w := range ws {
			total[w] = true
		}
	}
	if len(total) != 40*24 {
		t.Errorf("got %d distinct words, want %d", len(total), 40*24)
	}
	// Synthetic words must survive stemming unchanged enough to stay unique.
	stems := make(map[string]bool)
	for w := range total {
		stems[text.Stem(w)] = true
	}
	if len(stems) < len(total)*9/10 {
		t.Errorf("stemming collapsed vocabulary: %d stems for %d words", len(stems), len(total))
	}
}

func TestSentenceShape(t *testing.T) {
	v := NewVocabulary(3, 20, 10)
	rng := rand.New(rand.NewSource(3))
	s := v.Sentence(rng, 1, 12, 0.2)
	if s == "" {
		t.Fatal("empty sentence")
	}
	words := strings.Fields(s)
	if len(words) < 12 {
		t.Errorf("sentence too short: %q", s)
	}
	// With sharedProb 0, all content words come from the topic vocabulary.
	s0 := v.Sentence(rng, 2, 8, 0)
	topicSet := make(map[string]bool)
	for _, w := range v.Topics[2] {
		topicSet[w] = true
	}
	for _, w := range strings.Fields(s0) {
		if !topicSet[w] && !isConnective(w) {
			t.Errorf("off-topic word %q in %q", w, s0)
		}
	}
}

func isConnective(w string) bool {
	for _, c := range connectives {
		if c == w {
			return true
		}
	}
	return false
}

func TestGenerateWebShape(t *testing.T) {
	clock := core.NewSimClock(0)
	cfg := DefaultWebConfig()
	cfg.Sites, cfg.PagesPerSite = 5, 10
	g, err := GenerateWeb(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Web.NumPages() != 50 {
		t.Fatalf("NumPages = %d", g.Web.NumPages())
	}
	if len(g.PageURLs) != 50 {
		t.Fatalf("PageURLs = %d", len(g.PageURLs))
	}
	hasLinks, hasMedia := false, false
	for _, url := range g.PageURLs {
		p, ok := g.Web.Lookup(url)
		if !ok {
			t.Fatalf("missing page %q", url)
		}
		if p.Title == "" || p.Body == "" {
			t.Errorf("page %q has empty content", url)
		}
		if p.Topic != g.TopicOf[url] {
			t.Errorf("topic mismatch for %q", url)
		}
		if len(p.Anchors) > 0 {
			hasLinks = true
			for _, a := range p.Anchors {
				if _, ok := g.Web.Lookup(a.Target); !ok {
					t.Errorf("dangling link %q -> %q", url, a.Target)
				}
				if a.Text == "" {
					t.Errorf("empty anchor text on %q", url)
				}
			}
		}
		if len(p.Components) > 0 {
			hasMedia = true
		}
	}
	if !hasLinks {
		t.Error("no page has links")
	}
	if !hasMedia {
		t.Error("no page has media")
	}
}

func TestGenerateWebDeterministic(t *testing.T) {
	cfg := DefaultWebConfig()
	cfg.Sites, cfg.PagesPerSite = 3, 5
	g1, err1 := GenerateWeb(core.NewSimClock(0), cfg)
	g2, err2 := GenerateWeb(core.NewSimClock(0), cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i, url := range g1.PageURLs {
		if g2.PageURLs[i] != url {
			t.Fatalf("URL order differs at %d", i)
		}
		p1, _ := g1.Web.Lookup(url)
		p2, _ := g2.Web.Lookup(url)
		if p1.Title != p2.Title || p1.Body != p2.Body || p1.Size != p2.Size {
			t.Fatalf("content differs for %q", url)
		}
	}
}

func TestGenerateWebRejectsBadConfig(t *testing.T) {
	if _, err := GenerateWeb(core.NewSimClock(0), WebConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func genSmallTrace(t *testing.T, cfg TraceConfig) (*GeneratedWeb, *Trace) {
	t.Helper()
	clock := core.NewSimClock(0)
	wcfg := DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite = 5, 20
	g, err := GenerateWeb(clock, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(g, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr
}

func TestGenerateTraceBasics(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Sessions = 300
	cfg.Length = 10000
	_, tr := genSmallTrace(t, cfg)
	if len(tr.Log) < cfg.Sessions {
		t.Fatalf("log too short: %d records", len(tr.Log))
	}
	// Sorted by time.
	for i := 1; i < len(tr.Log); i++ {
		if tr.Log[i].Time < tr.Log[i-1].Time {
			t.Fatal("log not sorted")
		}
	}
	first, last, _ := tr.Log.Span()
	if first < 0 || last > 10000+core.Time(cfg.MaxWalk)*core.Time(cfg.ThinkTimeMax) {
		t.Errorf("span [%v, %v] outside window", first, last)
	}
	if tr.Updates == 0 {
		t.Error("no content updates generated")
	}
	// Some record must carry the Modified flag (updates + re-access).
	modified := false
	for _, r := range tr.Log {
		if r.Modified {
			modified = true
			break
		}
	}
	if !modified {
		t.Error("no Modified record in trace")
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Sessions = 100
	cfg.Length = 5000
	_, tr1 := genSmallTrace(t, cfg)
	_, tr2 := genSmallTrace(t, cfg)
	if len(tr1.Log) != len(tr2.Log) {
		t.Fatalf("lengths differ: %d vs %d", len(tr1.Log), len(tr2.Log))
	}
	for i := range tr1.Log {
		if tr1.Log[i] != tr2.Log[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, tr1.Log[i], tr2.Log[i])
		}
	}
}

func TestGenerateTraceEventCreatesHotSpot(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Sessions = 1000
	cfg.Length = 20000
	cfg.Events = []Event{{
		Start: 10000, Length: 2000, Topic: 3, Intensity: 0.9,
		Headline: "festival tonight", Lead: 500,
	}}
	g, tr := genSmallTrace(t, cfg)
	if n := len(tr.News.Since(core.TimeNever, core.Time(cfg.Length))); n != 1 {
		t.Fatalf("news feed has %d articles", n)
	}
	arts := tr.News.Since(core.TimeNever, 10000)
	if len(arts) != 1 || arts[0].Time != 9500 {
		t.Fatalf("article = %+v", arts)
	}
	// During the event window, topic-3 share of entry traffic should jump.
	inEvent, inEventTopic, outEvent, outEventTopic := 0, 0, 0, 0
	for _, r := range tr.Log {
		topical := g.TopicOf[r.URL] == 3
		if r.Time >= 10000 && r.Time < 12000 {
			inEvent++
			if topical {
				inEventTopic++
			}
		} else {
			outEvent++
			if topical {
				outEventTopic++
			}
		}
	}
	if inEvent == 0 || outEvent == 0 {
		t.Fatalf("no traffic in/out of event window: %d/%d", inEvent, outEvent)
	}
	inShare := float64(inEventTopic) / float64(inEvent)
	outShare := float64(outEventTopic) / float64(outEvent)
	if inShare < outShare*2 {
		t.Errorf("event did not concentrate traffic: in=%.2f out=%.2f", inShare, outShare)
	}
}

// The headline statistic: with Zipf skew and content churn over a large
// page population, well over half of referenced pages are one-timers.
func TestOneTimerRegime(t *testing.T) {
	clock := core.NewSimClock(0)
	wcfg := DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite = 20, 100 // 2000 pages
	g, err := GenerateWeb(clock, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTraceConfig()
	cfg.Sessions = 1200
	cfg.Length = 200000
	cfg.FollowLinkProb = 0.4
	tr, err := GenerateTrace(g, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := logmine.AnalyzeReuse(tr.Log)
	ratio := stats.OneTimerRatio()
	if ratio < 0.5 {
		t.Errorf("one-timer ratio = %.2f, want the paper's >0.5 regime (objects=%d oneTimers=%d)",
			ratio, stats.Objects, stats.OneTimers)
	}
}

// Property: generated traces always reference existing pages.
func TestTraceURLsExist(t *testing.T) {
	f := func(seed int64) bool {
		clock := core.NewSimClock(0)
		wcfg := DefaultWebConfig()
		wcfg.Sites, wcfg.PagesPerSite, wcfg.Seed = 3, 8, seed
		g, err := GenerateWeb(clock, wcfg)
		if err != nil {
			return false
		}
		cfg := DefaultTraceConfig()
		cfg.Sessions, cfg.Length, cfg.Seed = 50, 2000, seed
		tr, err := GenerateTrace(g, clock, cfg)
		if err != nil {
			return false
		}
		for _, r := range tr.Log {
			if _, ok := g.Web.Lookup(r.URL); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
