package experiments

import (
	"context"
	"fmt"
	"time"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/object"
	"cbfww/internal/priority"
	"cbfww/internal/storage"
	"cbfww/internal/topic"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// generate is workload.Generate for the experiments, which panic on a
// bad config.
func generate(seed int64, sites, pages, sessions int, length core.Duration,
	tune func(*workload.TraceConfig)) (*workload.GeneratedWeb, *workload.Trace) {
	g, tr, err := workload.Generate(seed, sites, pages, sessions, length, tune)
	if err != nil {
		panic(err)
	}
	return g, tr
}

// noChurn tunes a trace to leave the web's content unchanged.
func noChurn(tc *workload.TraceConfig) { tc.UpdatesPerTick = 0 }

// labWarehouse is the experiments' warehouse over g's web, on a fresh
// clock: the default config with a 2 MB memory and a 256 MB disk tier,
// then mutate. The web's pages have already churned to their final
// content, so the warehouse sees the web as it is at the trace's end.
func labWarehouse(g *workload.GeneratedWeb, mutate func(*warehouse.Config)) (*warehouse.Warehouse, *core.SimClock) {
	clock := core.NewSimClock(0)
	cfg := warehouse.DefaultConfig()
	cfg.Storage.Tiers = storage.ClassicTiers(2*core.MB, 256*core.MB)
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := warehouse.New(cfg, clock, g.Web)
	if err != nil {
		panic(err)
	}
	return w, clock
}

// Hooks are a replay's optional callbacks.
type Hooks struct {
	// BeforeSweep runs just before each Maintain, so it sees the
	// placement the last period lived with.
	BeforeSweep func()
	// BeforeServe runs once the clock has reached the record's time,
	// before a sweep that falls due there and before the serve.
	BeforeServe func(r logmine.Record) error
	// AfterServe sees each record with what the warehouse served for it.
	AfterServe func(r logmine.Record, res warehouse.GetResult)
}

// Replay plays log into w, the lab's one trace-to-warehouse loop. For
// each record it moves clock to the record's time, runs one Maintain per
// period of every ticks elapsed (0: never) and serves the record with
// Get; h's hooks run around those steps.
func Replay(w *warehouse.Warehouse, clock *core.SimClock, log logmine.Log, every core.Duration, h Hooks) error {
	next := core.Time(every)
	for _, r := range log {
		if r.Time.After(clock.Now()) {
			clock.Set(r.Time)
		}
		if h.BeforeServe != nil {
			if err := h.BeforeServe(r); err != nil {
				return err
			}
		}
		for every > 0 && clock.Now() >= next {
			if h.BeforeSweep != nil {
				h.BeforeSweep()
			}
			if _, err := w.Maintain(); err != nil {
				return err
			}
			next = next.Add(every)
		}
		res, err := w.Get(r.User, r.URL)
		if err != nil {
			return err
		}
		if h.AfterServe != nil {
			h.AfterServe(r, res)
		}
	}
	return nil
}

// must panics on err: a replay error means a page vanished, which no
// experiment's workload does.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// newcomerReplay replays a 20×100-page trace in the paper's regime —
// topical hot spots and a heavy one-timer tail — into a lab warehouse
// that mutate configures, with an hourly sweep. Before each sweep it
// samples what share of the memory tier's residents are unproven
// newcomers (admitted, never re-referenced since): the placement the
// policy lived with for the last period. It returns the warehouse's
// stats and that share's mean over the samples.
func newcomerReplay(seed int64, sessions int, length core.Duration, mutate func(*warehouse.Config)) (warehouse.Stats, float64) {
	g, tr := generate(seed, 20, 100, sessions, length, func(tc *workload.TraceConfig) {
		tc.TopicAffinity = 0.9
		tc.FollowLinkProb = 0.4
	})
	w, clock := labWarehouse(g, mutate)
	counts := make(map[string]int)
	var wasteSum float64
	var samples int
	must(Replay(w, clock, tr.Log, 3600, Hooks{
		BeforeSweep: func() {
			residents, oneTimers := 0, 0
			for _, info := range w.Pages() {
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
		},
		AfterServe: func(r logmine.Record, _ warehouse.GetResult) { counts[r.URL]++ },
	}))
	if samples == 0 {
		return w.Stats(), 0
	}
	return w.Stats(), wasteSum / float64(samples)
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
		return newcomerReplay(seed, 3000, 400_000, func(c *warehouse.Config) {
			if newcomerPrio >= 0 {
				c.Priority = priority.Config{
					SimilarityWeight: 0, TopicWeight: 0,
					MinSimilarity: 2, // unattainable: region evidence off
					Default:       core.Priority(newcomerPrio),
					Lambda:        0.3, EpochLength: 3600,
				}
			}
		})
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
		g, tr := generate(seed, 10, 60, 2500, 450_000, func(tc *workload.TraceConfig) {
			tc.Events = events
		})
		w, clock := labWarehouse(g, nil)
		if sensorOn {
			w.WatchFeed(tr.News)
			// Event pages get URL-carrying articles so Maintain can
			// prefetch: announce every event-topic page at lead time.
			for _, ev := range events {
				// PageURLs is generation-ordered: iterating it (not the
				// TopicOf map) keeps the publish order deterministic.
				for _, url := range g.PageURLs {
					if g.TopicOf[url] == ev.Topic {
						tr.News.Publish(topic.Article{
							Time: ev.Start.Add(-ev.Lead), Headline: ev.Headline, URL: url,
						})
					}
				}
			}
		}

		inEvent := func(url string, at core.Time) bool {
			for _, ev := range events {
				if g.TopicOf[url] == ev.Topic && at >= ev.Start && at.Before(ev.Start.Add(ev.Length)) {
					return true
				}
			}
			return false
		}

		// Count per-request hits during event windows.
		hits, reqs := 0, 0
		must(Replay(w, clock, tr.Log, 3600, Hooks{
			AfterServe: func(r logmine.Record, res warehouse.GetResult) {
				if inEvent(r.URL, r.Time) {
					reqs++
					if res.Hit {
						hits++
					}
				}
			},
		}))
		ratio := 0.0
		if reqs > 0 {
			ratio = float64(hits) / float64(reqs)
		}
		return w.Stats(), ratio
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
		g, tr := generate(seed, 8, 50, 2000, 300_000, nil)
		w, clock := labWarehouse(g, func(c *warehouse.Config) {
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
		must(Replay(w, clock, tr.Log, 0, Hooks{
			BeforeServe: func(r logmine.Record) error {
				for ; updates <= r.Time; updates += 2000 {
					if err := g.Web.Update(g.PageURLs[rng.Intn(len(g.PageURLs))], "churn content"); err != nil {
						return err
					}
				}
				return nil
			},
			AfterServe: func(r logmine.Record, res warehouse.GetResult) {
				if !res.Hit {
					return
				}
				if v, _, err := g.Web.HeadCtx(context.Background(), r.URL); err == nil && res.Page.Version < v {
					stale++
				}
			},
		}))
		st := w.Stats()
		t.AddRow(mode.String(), itoa(st.Revalidations), itoa(st.OriginFetches),
			pct(st.HitRatio()), itoa(stale), f2(st.MeanLatency()))
	}
	t.AddNote("expected shape: strong serves zero stale at the cost of per-access revalidation; weak bounds origin traffic and serves bounded staleness")
	return t
}

// Q1PopularityQueries runs the paper's three §4.3 example queries against
// a populated warehouse and reports their results plus throughput.
func Q1PopularityQueries(seed int64) Table {
	g, tr := generate(seed, 6, 30, 1200, 200_000, nil)
	w, clock := labWarehouse(g, func(c *warehouse.Config) {
		c.Miner.MinSupport = 2
	})
	must(Replay(w, clock, tr.Log, 6*3600, Hooks{}))
	if _, err := w.MinePaths(tr.Log); err != nil {
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
			(SELECT p.oid FROM Physical_Page p WHERE p.url = '%s')`, g.PageURLs[0])},
		{"usage-attribute filter", `
			SELECT LFU 5 p.url, p.freq FROM Physical_Page p WHERE p.freq > 0`},
	}

	t := Table{
		Title:  "§4.3: Popularity-Aware Queries on a Populated Warehouse",
		Header: []string{"query", "rows", "latency"},
	}
	for _, q := range queries {
		start := time.Now()
		rows, err := w.Query(q.q)
		lat := time.Since(start)
		if err != nil {
			t.AddRow(q.name, "ERR: "+err.Error(), "-")
			continue
		}
		t.AddRow(q.name, itoa(len(rows)), lat.Round(time.Microsecond).String())
	}
	t.AddNote("warehouse holds %d pages, %d logical pages", w.ResidentPages(),
		w.Hierarchy().Len(object.KindLogical))
	return t
}
