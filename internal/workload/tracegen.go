package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/topic"
)

// Event is a short-lived hot spot, the phenomenon §4.4 observed in the
// Kyoto-inet data: "Hot spot data is very much influenced by the hot topics
// in news papers/TV or local events. The lifetime is very short."
type Event struct {
	// Start / Length bound the request surge.
	Start  core.Time
	Length core.Duration
	// Topic is the topic whose pages get hot.
	Topic int
	// Intensity is the fraction of request traffic redirected to the event
	// topic while the event is live.
	Intensity float64
	// Headline is published to the news feed Lead ticks before Start —
	// the early signal the Topic Sensor can exploit.
	Headline string
	Lead     core.Duration
}

// BurstSchedule is the declarative form of a hot-spot event series: Count
// bursts spread evenly over the trace window, each redirecting Intensity
// of the traffic to a rotating topic for Length ticks. It expands into
// Events, so a scenario spec can say "two bursts at 0.8 intensity"
// without hand-placing timestamps. The zero value schedules nothing.
type BurstSchedule struct {
	// Count is the number of bursts; 0 disables the schedule.
	Count int
	// Length is the per-burst duration; 0 defaults to 5% of the trace.
	Length core.Duration
	// Intensity is the traffic fraction redirected while a burst is live.
	Intensity float64
	// FirstTopic is where the topic rotation starts (burst i hits topic
	// FirstTopic+i, wrapped by the generator at use time).
	FirstTopic int
}

// Expand materializes the schedule into concrete Events over a trace of
// the given start and length. Burst midpoints sit at the (i+1)/(Count+1)
// fractions of the window, so a single burst lands mid-trace.
func (b BurstSchedule) Expand(start core.Time, length core.Duration) []Event {
	if b.Count <= 0 || b.Intensity <= 0 || length <= 0 {
		return nil
	}
	bl := b.Length
	if bl <= 0 {
		bl = length / 20
	}
	if bl < 1 {
		bl = 1
	}
	evs := make([]Event, 0, b.Count)
	for i := 0; i < b.Count; i++ {
		mid := start.Add(core.Duration(int64(length) * int64(i+1) / int64(b.Count+1)))
		evs = append(evs, Event{
			Start:     mid.Add(-bl / 2),
			Length:    bl,
			Topic:     b.FirstTopic + i,
			Intensity: b.Intensity,
			Headline:  fmt.Sprintf("burst %d topic %d", i+1, b.FirstTopic+i),
		})
	}
	return evs
}

// TraceConfig shapes a generated access trace.
type TraceConfig struct {
	// Users is the client population size.
	Users int
	// Sessions is the number of navigation sessions to generate.
	Sessions int
	// Start and Length bound the trace on the timeline.
	Start  core.Time
	Length core.Duration
	// ZipfS is the popularity skew over entry pages. Around 0.9 with
	// Sessions ≈ pages yields the paper's ~60% one-timer regime.
	ZipfS float64
	// FollowLinkProb is the chance of continuing the walk at each step.
	FollowLinkProb float64
	// MaxWalk bounds session length in pages.
	MaxWalk int
	// ThinkTimeMax is the maximum gap between steps within a session.
	ThinkTimeMax core.Duration
	// UpdatesPerTick is the expected number of page updates per tick
	// (content churn; drives the "modified or replaced" part of the
	// one-timer definition).
	UpdatesPerTick float64
	// TopicAffinity in [0, 1] correlates popularity with topics: at 1,
	// popularity ranks are assigned in topic blocks so the Zipf head
	// concentrates in a few hot topics — the paper's premise that "hot
	// spot data is very much influenced by the hot topics"; at 0, ranks
	// are independent of topics.
	TopicAffinity float64
	// Events are the hot-spot surges.
	Events []Event
	// Burst declaratively adds evenly spaced surges on top of Events (the
	// scenario matrix's burst-schedule axis).
	Burst BurstSchedule
	// Seed drives all randomness.
	Seed int64
}

// DefaultTraceConfig covers the generated web of DefaultWebConfig with a
// month-like trace (1 tick = 1 second).
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Users:          200,
		Sessions:       2000,
		Start:          0,
		Length:         30 * 24 * 3600,
		ZipfS:          0.9,
		FollowLinkProb: 0.55,
		MaxWalk:        8,
		ThinkTimeMax:   30,
		UpdatesPerTick: 0.001,
		Seed:           1,
	}
}

// Trace is a generated access trace plus its side products.
type Trace struct {
	// Log is the access log, sorted by time.
	Log logmine.Log
	// News carries the event headlines for the Topic Sensor.
	News *topic.NewsFeed
	// Updates counts content updates applied to the web during generation.
	Updates int
}

// GenerateTrace simulates cfg.Sessions navigation sessions over the
// generated web and returns the access log. The web's pages are mutated
// (content updates) as a side effect, exactly as the live web would churn
// under a real trace. The web's clock must be a *core.SimClock; the
// generator drives it forward and leaves it at the trace end.
func GenerateTrace(g *GeneratedWeb, clock *core.SimClock, cfg TraceConfig) (*Trace, error) {
	if cfg.Users < 1 || cfg.Sessions < 1 || cfg.Length <= 0 {
		return nil, fmt.Errorf("workload: %w: users, sessions and length must be positive", core.ErrInvalid)
	}
	if cfg.MaxWalk < 1 {
		cfg.MaxWalk = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := NewZipf(rng, len(g.PageURLs), cfg.ZipfS)
	perm := popularityOrder(rng, g, cfg.TopicAffinity)

	// Group pages by topic for event targeting.
	byTopic := make(map[int][]string)
	for url, t := range g.TopicOf {
		byTopic[t] = append(byTopic[t], url)
	}
	for _, urls := range byTopic {
		sortStrings(urls)
	}

	events := cfg.Events
	if bursts := cfg.Burst.Expand(cfg.Start, cfg.Length); len(bursts) > 0 {
		events = append(append([]Event{}, cfg.Events...), bursts...)
	}

	news := topic.NewNewsFeed()
	for _, ev := range events {
		news.Publish(topic.Article{
			Time:     ev.Start.Add(-ev.Lead),
			Headline: ev.Headline,
		})
	}

	// Session start times: uniform over the trace window, sorted.
	starts := make([]core.Time, cfg.Sessions)
	for i := range starts {
		starts[i] = cfg.Start.Add(core.Duration(rng.Int63n(int64(cfg.Length))))
	}
	sortTimes(starts)

	tr := &Trace{News: news}
	lastVersion := make(map[string]int)
	var updateDebt float64
	prevTime := cfg.Start

	for i, at := range starts {
		// Apply content churn accumulated since the previous session.
		updateDebt += float64(at.Sub(prevTime)) * cfg.UpdatesPerTick
		for updateDebt >= 1 {
			updateDebt--
			url := g.PageURLs[rng.Intn(len(g.PageURLs))]
			topic := g.TopicOf[url]
			clock.Set(maxTime(clock.Now(), at))
			if err := g.Web.Update(url, g.Vocab.Sentence(rng, topic, 4, 0)); err != nil {
				return nil, err
			}
			tr.Updates++
		}
		prevTime = at

		user := fmt.Sprintf("user%03d", rng.Intn(cfg.Users))
		entry := g.PageURLs[perm[zipf.Sample()]]
		// During an event, traffic is redirected to the event topic.
		for _, ev := range events {
			if at >= ev.Start && at.Before(ev.Start.Add(ev.Length)) && rng.Float64() < ev.Intensity {
				urls := byTopic[ev.Topic%len(g.Vocab.Topics)]
				if len(urls) > 0 {
					entry = urls[rng.Intn(len(urls))]
				}
				break
			}
		}

		// Random walk from the entry page.
		t := at
		url := entry
		referrer := ""
		for step := 0; step < cfg.MaxWalk; step++ {
			page, ok := g.Web.Lookup(url)
			if !ok {
				break
			}
			clock.Set(maxTime(clock.Now(), t))
			rec := logmine.Record{
				Time:     t,
				User:     user,
				URL:      url,
				Referrer: referrer,
				Status:   200,
				Bytes:    page.Size,
			}
			if prev, seen := lastVersion[url]; seen && prev != page.Version {
				rec.Modified = true
			}
			lastVersion[url] = page.Version
			tr.Log = append(tr.Log, rec)

			if len(page.Anchors) == 0 || rng.Float64() >= cfg.FollowLinkProb {
				break
			}
			referrer = url
			url = page.Anchors[rng.Intn(len(page.Anchors))].Target
			if cfg.ThinkTimeMax > 0 {
				t = t.Add(1 + core.Duration(rng.Int63n(int64(cfg.ThinkTimeMax))))
			} else {
				t = t.Add(1)
			}
		}
		_ = i
	}
	tr.Log.Sort()
	if end := cfg.Start.Add(cfg.Length); clock.Now().Before(end) {
		clock.Set(end)
	}
	return tr, nil
}

// popularityOrder maps Zipf ranks to page indices. With zero affinity the
// mapping is a uniform random permutation; with affinity 1 pages are
// ordered in topic blocks (a randomly chosen hot-topic order, shuffled
// within each topic) so popularity concentrates topically. Intermediate
// affinities interpolate by partially re-shuffling the blocked order.
func popularityOrder(rng *rand.Rand, g *GeneratedWeb, affinity float64) []int {
	n := len(g.PageURLs)
	if affinity <= 0 {
		return Permutation(rng, n)
	}
	if affinity > 1 {
		affinity = 1
	}
	// Blocked order: topics in random order, pages shuffled within topic.
	topics := len(g.Vocab.Topics)
	topicOrder := rng.Perm(topics)
	topicRank := make([]int, topics)
	for r, t := range topicOrder {
		topicRank[t] = r
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	sort.SliceStable(idx, func(a, b int) bool {
		ta := topicRank[g.TopicOf[g.PageURLs[idx[a]]]]
		tb := topicRank[g.TopicOf[g.PageURLs[idx[b]]]]
		return ta < tb
	})
	// Degrade toward random with (1-affinity)·n swaps.
	swaps := int(float64(n) * (1 - affinity))
	for s := 0; s < swaps; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

func maxTime(a, b core.Time) core.Time {
	if a.After(b) {
		return a
	}
	return b
}

func sortTimes(ts []core.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}

func sortStrings(ss []string) { sort.Strings(ss) }
