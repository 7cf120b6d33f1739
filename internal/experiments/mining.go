package experiments

import (
	"fmt"

	"cbfww/internal/analyzer"
	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/workload"
)

// C1OneTimers regenerates the paper's headline measurement — "Over 60% of
// web pages once used will never be retrieved again before modified or
// replaced" — over synthetic Kyoto-inet-like traces, sweeping popularity
// skew and content churn to show the regime where the claim holds.
func C1OneTimers(seed int64) Table {
	t := Table{
		Title: "Claim §1: one-time-use ratio across workload regimes",
		Header: []string{"zipf s", "updates/tick", "objects", "one-timers",
			"one-timer ratio", "max hit ratio"},
	}
	for _, s := range []float64{0.6, 0.9, 1.2} {
		for _, churn := range []float64{0, 0.002} {
			_, tr := generate(seed, 20, 150, 1500, 200_000, func(tc *workload.TraceConfig) {
				tc.ZipfS = s
				tc.FollowLinkProb = 0.4
				tc.UpdatesPerTick = churn
			})
			st := logmine.AnalyzeReuse(tr.Log)
			t.AddRow(f2(s), fmt.Sprintf("%g", churn), itoa(st.Objects),
				itoa(st.OneTimers), pct(st.OneTimerRatio()), pct(st.MaxHitRatio()))
		}
	}
	t.AddNote("paper's regime: one-timer ratio > 60%% — reproduced at moderate skew, amplified by content churn")
	return t
}

// F5LogicalDocuments regenerates Figure 5: frequently traversed paths
// become logical documents. The trace embeds the paper's example paths
// A-B-E and A-D-G (A-D-G traversed 13 times) in background noise; the
// miner must recover both with the right supports.
func F5LogicalDocuments(seed int64) Table {
	var log logmine.Log
	at := core.Time(0)
	user := 0
	emit := func(urls ...string) {
		u := fmt.Sprintf("u%02d", user%7)
		user++
		for _, url := range urls {
			log = append(log, logmine.Record{Time: at, User: u, URL: url, Status: 200, Bytes: 1})
			at = at.Add(3)
		}
		at = at.Add(10_000) // session gap
	}
	for i := 0; i < 13; i++ {
		emit("/A", "/D", "/G")
	}
	for i := 0; i < 5; i++ {
		emit("/A", "/B", "/E")
	}
	// Background noise: one-off wanderings.
	noise := []string{"/A", "/B", "/C", "/D", "/E", "/F", "/G", "/H"}
	rng := newRand(seed)
	for i := 0; i < 30; i++ {
		a := noise[rng.Intn(len(noise))]
		b := noise[rng.Intn(len(noise))]
		if a != b {
			emit(a, b)
		}
	}

	sessions := logmine.Sessionize(log, 60)
	paths := logmine.MaximalOnly(logmine.MinePaths(sessions, logmine.MinerConfig{
		MinLength: 3, MaxLength: 3, MinSupport: 4,
	}))

	t := Table{
		Title:  "Figure 5: Logical Documents from Repeated Traversal Paths",
		Header: []string{"path", "support"},
	}
	for _, p := range paths {
		t.AddRow(p.Key(), itoa(p.Support))
	}
	t.AddNote("paper's example: A-D-G traversed 13 times; sessions=%d", len(sessions))
	return t
}

// AnalyzerHotSpots is the §4.4 observation: hot-spot data driven by local
// events has a very short lifetime. An event workload is generated and the
// Data Analyzer's hot-spot lifetimes for event-topic pages are compared
// with steady pages.
func AnalyzerHotSpots(seed int64) Table {
	// Dry run: find the coldest topic under topic-affine background
	// traffic, so the event dominates its pages' access histories (a
	// local event's pages are obscure outside the event — exactly the
	// Kyoto-inet observation).
	const length = 500_000
	var events []workload.Event
	tune := func(tc *workload.TraceConfig) {
		// Pure topic-block popularity with steep skew: tail-topic pages see
		// almost no background traffic, so a local event is the only reason
		// anyone ever visits them — the regime the paper describes.
		tc.TopicAffinity = 1.0
		tc.ZipfS = 1.2
		tc.Events = events
	}
	gDry, dry := generate(seed, 10, 40, 3000, length, tune)
	topicTraffic := make(map[int]int)
	for _, r := range dry.Log {
		topicTraffic[gDry.TopicOf[r.URL]]++
	}
	coldest, coldCount := 0, 1<<62
	for topic := 0; topic < len(gDry.Vocab.Topics); topic++ {
		if c := topicTraffic[topic]; c < coldCount {
			coldest, coldCount = topic, c
		}
	}

	// Real run: the event hits the coldest topic.
	ev := workload.Event{Start: 200_000, Length: 8_000, Topic: coldest, Intensity: 0.95,
		Headline: "gion festival parade", Lead: 2000}
	events = []workload.Event{ev}
	_, tr := generate(seed, 10, 40, 3000, length, tune)
	rep := analyzer.Analyze(tr.Log, 4)

	// Classify pages by event participation: a page is event-driven when
	// most of its accesses landed inside the event window — these are the
	// pages that were hot *because of* the event.
	inWindow := make(map[string]int)
	total := make(map[string]int)
	for _, r := range tr.Log {
		total[r.URL]++
		if r.Time >= ev.Start && r.Time.Before(ev.Start.Add(ev.Length)) {
			inWindow[r.URL]++
		}
	}
	var evSum, bgSum float64
	var evN, bgN int
	for _, h := range rep.HotSpots {
		if 2*inWindow[h.URL] > total[h.URL] {
			evSum += float64(h.Lifetime)
			evN++
		} else {
			bgSum += float64(h.Lifetime)
			bgN++
		}
	}
	t := Table{
		Title:  "§4.4: Hot-Spot Lifetimes (event-driven pages vs background)",
		Header: []string{"page class", "hot spots", "mean lifetime (ticks)"},
	}
	if evN > 0 {
		t.AddRow("event-driven", itoa(evN), f2(evSum/float64(evN)))
	}
	if bgN > 0 {
		t.AddRow("background", itoa(bgN), f2(bgSum/float64(bgN)))
	}
	t.AddNote("trace length %d ticks; event window %d ticks on coldest topic %d",
		length, int64(ev.Length), coldest)
	t.AddNote("paper: \"for local events, there will be almost no access of the corresponding web pages after the event\"")
	return t
}
