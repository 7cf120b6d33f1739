package experiments

import (
	"context"
	"fmt"
	"time"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/object"
	"cbfww/internal/priority"
	"cbfww/internal/storage"
	"cbfww/internal/topic"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// buildWarehouseWorld generates a web + trace + optional events and a
// warehouse configured for experiments; callers mutate cfg first.
type world struct {
	g     *workload.GeneratedWeb
	clock *core.SimClock
	trace *workload.Trace
	w     *warehouse.Warehouse
}

func buildWorld(seed int64, sites, pages, sessions int, length core.Duration,
	events []workload.Event, mutate func(*warehouse.Config),
	mutateTrace ...func(*workload.TraceConfig)) *world {

	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite, wcfg.Seed = sites, pages, seed
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		panic(err)
	}
	tcfg := workload.DefaultTraceConfig()
	tcfg.Sessions = sessions
	tcfg.Length = length
	tcfg.Seed = seed
	tcfg.Events = events
	for _, m := range mutateTrace {
		m(&tcfg)
	}
	// The trace generator drives the clock; snapshot the log, then rewind
	// is impossible (monotonic clock), so the warehouse replays on a fresh
	// clock of its own.
	tr, err := workload.GenerateTrace(g, clock, tcfg)
	if err != nil {
		panic(err)
	}

	wclock := core.NewSimClock(0)
	// The web's pages have already churned to their final content; that is
	// fine — replay consistency still observes version mismatches through
	// the log's Modified flags having influenced nothing here. The
	// warehouse sees the web as it is now.
	cfg := warehouse.DefaultConfig()
	cfg.Storage.Tiers = storage.ClassicTiers(2*core.MB, 256*core.MB)
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := warehouse.New(cfg, wclock, g.Web)
	if err != nil {
		panic(err)
	}
	return &world{g: g, clock: wclock, trace: tr, w: w}
}

// replay drives the warehouse with the trace log, advancing the clock to
// each record's time and running Maintain every maintainEvery ticks.
func (wd *world) replay(maintainEvery core.Duration) {
	next := core.Time(maintainEvery)
	for _, r := range wd.trace.Log {
		if r.Time.After(wd.clock.Now()) {
			wd.clock.Set(r.Time)
		}
		if maintainEvery > 0 && wd.clock.Now() >= next {
			if _, err := wd.w.Maintain(); err != nil {
				panic(err)
			}
			for next <= wd.clock.Now() {
				next = next.Add(maintainEvery)
			}
		}
		// Errors here mean the page vanished, which this workload doesn't do.
		if _, err := wd.w.Get(r.User, r.URL); err != nil {
			panic(err)
		}
	}
}

// F8AdmissionPriority regenerates Figure 8 — admission-time priority from
// semantic regions and topics — against the conventional "newest page gets
// top priority" rule. Both run the full warehouse; the LRU-style variant
// disables the evidence sources and gives every new page maximal default
// priority, so memory fills with whatever arrived last (exactly the
// behaviour the paper criticizes, since ~60% of arrivals never return).
func F8AdmissionPriority(seed int64) Table {
	// Three admission policies over identical traces. All variants share
	// the same usage-heat machinery and AdmissionDecay, so the only
	// difference is where the admission estimate puts a brand-new page:
	//
	//	top:      every newcomer gets priority 1 (the LRU tradition);
	//	bottom:   every newcomer gets priority 0 (pessimist — correct for
	//	          the ~60% one-timer mass, but cold-starts hot pages);
	//	evidence: semantic-region similarity + hot topics (CBFWW).
	run := func(newcomerPrio float64) (warehouse.Stats, float64) {
		wd := buildWorld(seed, 20, 100, 3000, 400_000, nil, func(c *warehouse.Config) {
			if newcomerPrio >= 0 {
				c.Priority = priority.Config{
					SimilarityWeight: 0, TopicWeight: 0,
					MinSimilarity: 2, // unattainable: region evidence off
					Default:       core.Priority(newcomerPrio),
					Lambda:        0.3, EpochLength: 3600,
				}
			}
		}, func(tc *workload.TraceConfig) {
			// The paper's regime: hot spots are topical, and a heavy
			// one-timer tail exists.
			tc.TopicAffinity = 0.9
			tc.FollowLinkProb = 0.4
		})
		// Manual replay sampling the memory tier at every maintenance
		// sweep: what share of its residents are unproven newcomers
		// (admitted, never yet re-referenced)?
		counts := make(map[string]int)
		var wasteSum float64
		var samples int
		const period = 3600
		next := core.Time(period)
		for _, r := range wd.trace.Log {
			if r.Time.After(wd.clock.Now()) {
				wd.clock.Set(r.Time)
			}
			if wd.clock.Now() >= next {
				// Sample the memory tier *before* the sweep: this is the
				// placement the policy lived with for the last period.
				residents, oneTimers := 0, 0
				for _, info := range wd.w.Pages() {
					if info.Tier == "memory" {
						residents++
						if counts[info.URL] <= 1 {
							oneTimers++
						}
					}
				}
				if residents > 0 {
					wasteSum += float64(oneTimers) / float64(residents)
					samples++
				}
				if _, err := wd.w.Maintain(); err != nil {
					panic(err)
				}
				for next <= wd.clock.Now() {
					next = next.Add(period)
				}
			}
			counts[r.URL]++
			if _, err := wd.w.Get(r.User, r.URL); err != nil {
				panic(err)
			}
		}
		waste := 0.0
		if samples > 0 {
			waste = wasteSum / float64(samples)
		}
		return wd.w.Stats(), waste
	}

	cbfww, wasteC := run(-1)
	top, wasteT := run(1)
	bottom, wasteB := run(0)

	t := Table{
		Title:  "Figure 8: Admission-Time Priority vs Naive Admission Rules",
		Header: []string{"metric", "CBFWW (evidence)", "newest=top (LRU)", "newest=bottom"},
	}
	memHit := func(s warehouse.Stats) string {
		return pct(float64(s.MemoryHits) / float64(s.Requests))
	}
	t.AddRow("memory occupied by unproven newcomers", pct(wasteC), pct(wasteT), pct(wasteB))
	t.AddRow("memory-tier hit ratio", memHit(cbfww), memHit(top), memHit(bottom))
	t.AddRow("warehouse hit ratio", pct(cbfww.HitRatio()), pct(top.HitRatio()), pct(bottom.HitRatio()))
	t.AddRow("mean access latency (ticks)", f2(cbfww.MeanLatency()), f2(top.MeanLatency()), f2(bottom.MeanLatency()))
	t.AddNote("unproven newcomer = resident page never re-referenced since admission, sampled hourly")
	t.AddNote("expected shape: newest=top floods memory with the ~60%% one-timer mass; CBFWW stays near the pessimist's cleanliness while warming hot-topic pages")
	return t
}

// X2TopicSensor measures the Topic Sensor's value on event workloads: the
// same event-laden trace runs with and without the sensor watching the
// news feed that announces the events. With the sensor, event pages are
// prefetched and topic-boosted before the request wave.
func X2TopicSensor(seed int64) Table {
	events := []workload.Event{
		{Start: 150_000, Length: 10_000, Topic: 3, Intensity: 0.85,
			Headline: "gion festival parade tonight", Lead: 8_000},
		{Start: 300_000, Length: 10_000, Topic: 7, Intensity: 0.85,
			Headline: "typhoon landfall warning kansai", Lead: 8_000},
	}
	run := func(sensorOn bool) (warehouse.Stats, float64) {
		wd := buildWorld(seed, 10, 60, 2500, 450_000, events, nil)
		if sensorOn {
			wd.w.WatchFeed(wd.trace.News)
			// Event pages get URL-carrying articles so Maintain can
			// prefetch: announce every event-topic page at lead time.
			for _, ev := range events {
				// PageURLs is generation-ordered: iterating it (not the
				// TopicOf map) keeps the publish order deterministic.
				for _, url := range wd.g.PageURLs {
					if wd.g.TopicOf[url] == ev.Topic {
						wd.trace.News.Publish(topic.Article{
							Time: ev.Start.Add(-ev.Lead), Headline: ev.Headline, URL: url,
						})
					}
				}
			}
		}

		inEvent := func(url string, at core.Time) bool {
			for _, ev := range events {
				if wd.g.TopicOf[url] == ev.Topic && at >= ev.Start && at.Before(ev.Start.Add(ev.Length)) {
					return true
				}
			}
			return false
		}

		// Manual replay so per-request hits during event windows can be
		// counted directly.
		hits, reqs := 0, 0
		next := core.Time(3600)
		for _, r := range wd.trace.Log {
			if r.Time.After(wd.clock.Now()) {
				wd.clock.Set(r.Time)
			}
			if wd.clock.Now() >= next {
				if _, err := wd.w.Maintain(); err != nil {
					panic(err)
				}
				for next <= wd.clock.Now() {
					next += 3600
				}
			}
			res, err := wd.w.Get(r.User, r.URL)
			if err != nil {
				panic(err)
			}
			if inEvent(r.URL, r.Time) {
				reqs++
				if res.Hit {
					hits++
				}
			}
		}
		ratio := 0.0
		if reqs > 0 {
			ratio = float64(hits) / float64(reqs)
		}
		return wd.w.Stats(), ratio
	}
	off, offRatio := run(false)
	on, onRatio := run(true)

	t := Table{
		Title:  "§3(3): Topic Sensor — Prefetch and Boost on Event Workloads",
		Header: []string{"metric", "sensor off", "sensor on"},
	}
	t.AddRow("prefetches", itoa(off.Prefetches), itoa(on.Prefetches))
	t.AddRow("event-window warm ratio", pct(offRatio), pct(onRatio))
	t.AddRow("overall hit ratio", pct(off.HitRatio()), pct(on.HitRatio()))
	t.AddRow("mean latency (ticks)", f2(off.MeanLatency()), f2(on.MeanLatency()))
	t.AddNote("sensor reads the news feed %q; articles carry event-page URLs (lead %d ticks)", "simnews", 8000)
	t.AddNote("expected shape: sensor-on prefetches event pages, so the first request wave already hits")
	return t
}

// X5Consistency compares strong vs weak consistency on a churning
// workload: origin traffic (revalidations + fetches) against staleness
// served.
func X5Consistency(seed int64) Table {
	t := Table{
		Title: "§3(7): Strong vs Weak Consistency",
		Header: []string{"mode", "revalidations", "origin fetches", "hit ratio",
			"stale serves", "mean latency"},
	}
	for _, mode := range []constraint.Mode{constraint.Strong, constraint.Weak} {
		wd := buildWorld(seed, 8, 50, 2000, 300_000, nil, func(c *warehouse.Config) {
			if mode == constraint.Strong {
				c.Consistency = constraint.Consistency{Mode: constraint.Strong}
			} else {
				c.Consistency = constraint.Consistency{
					Mode: constraint.Weak, MinPoll: 600, MaxPoll: 24 * 3600,
				}
			}
		})
		// Churn the web during the replay: update random pages as time
		// passes (the trace generator's churn already ran before the
		// replay clock; do live churn here).
		stale := 0
		rng := newRand(seed)
		var updates core.Time = 2000
		for _, r := range wd.trace.Log {
			if r.Time.After(wd.clock.Now()) {
				wd.clock.Set(r.Time)
			}
			for updates <= r.Time {
				url := wd.g.PageURLs[rng.Intn(len(wd.g.PageURLs))]
				if err := wd.g.Web.Update(url, "churn content"); err != nil {
					panic(err)
				}
				updates += 2000
			}
			res, err := wd.w.Get(r.User, r.URL)
			if err != nil {
				panic(err)
			}
			if res.Hit {
				if v, _, err := wd.g.Web.HeadCtx(context.Background(), r.URL); err == nil && res.Page.Version < v {
					stale++
				}
			}
		}
		st := wd.w.Stats()
		t.AddRow(mode.String(), itoa(st.Revalidations), itoa(st.OriginFetches),
			pct(st.HitRatio()), itoa(stale), f2(st.MeanLatency()))
	}
	t.AddNote("expected shape: strong serves zero stale at the cost of per-access revalidation; weak bounds origin traffic and serves bounded staleness")
	return t
}

// Q1PopularityQueries runs the paper's three §4.3 example queries against
// a populated warehouse and reports their results plus throughput.
func Q1PopularityQueries(seed int64) Table {
	wd := buildWorld(seed, 6, 30, 1200, 200_000, nil, func(c *warehouse.Config) {
		c.Miner.MinSupport = 2
	})
	wd.replay(6 * 3600)
	if _, err := wd.w.MinePaths(); err != nil {
		panic(err)
	}

	queries := []struct {
		name string
		q    string
	}{
		{"paper query 1 (MRU + MENTION)", `
			SELECT MRU p.oid, p.title FROM Physical_Page p
			WHERE p.title MENTION 'station'`},
		{"paper query 2 (MFU + EXISTS)", `
			SELECT MFU 10 l.oid, l.path FROM Logical_Page l
			WHERE EXISTS (SELECT * FROM Physical_Page p
			              WHERE p.oid IN l.physicals AND p.size > 20,000)`},
		{"paper query 3 (MFU + end_at)", fmt.Sprintf(`
			SELECT MFU 5 l.path FROM Logical_Page l
			WHERE end_at(l.oid) IN
			(SELECT p.oid FROM Physical_Page p WHERE p.url = '%s')`, wd.g.PageURLs[0])},
		{"usage-attribute filter", `
			SELECT LFU 5 p.url, p.freq FROM Physical_Page p WHERE p.freq > 0`},
	}

	t := Table{
		Title:  "§4.3: Popularity-Aware Queries on a Populated Warehouse",
		Header: []string{"query", "rows", "latency"},
	}
	for _, q := range queries {
		start := time.Now()
		rows, err := wd.w.Query(q.q)
		lat := time.Since(start)
		if err != nil {
			t.AddRow(q.name, "ERR: "+err.Error(), "-")
			continue
		}
		t.AddRow(q.name, itoa(len(rows)), lat.Round(time.Microsecond).String())
	}
	t.AddNote("warehouse holds %d pages, %d logical pages", wd.w.ResidentPages(),
		wd.w.Hierarchy().Len(object.KindLogical))
	return t
}
