// Hotspotnews: the Topic Sensor in action. A news feed announces a local
// event before the request wave arrives (the paper's Kyoto-inet
// observation: hot spots follow news). With the sensor watching the feed,
// the warehouse prefetches the event pages and boosts their topic, so the
// wave's first requests already hit warm copies.
package main

import (
	"fmt"
	"log"

	"cbfww/internal/core"
	"cbfww/internal/topic"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

func main() {
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite = 6, 15
	web, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		log.Fatal(err)
	}
	w, err := warehouse.New(warehouse.DefaultConfig(), clock, web.Web)
	if err != nil {
		log.Fatal(err)
	}

	// The news feed the sensor watches.
	feed := topic.NewNewsFeed()
	w.WatchFeed(feed)

	// Pick an "event topic" and its pages.
	const eventTopic = 2
	var eventPages []string
	for _, u := range web.PageURLs {
		if web.TopicOf[u] == eventTopic {
			eventPages = append(eventPages, u)
		}
	}
	fmt.Printf("event topic %d has %d pages\n\n", eventTopic, len(eventPages))

	// Background traffic on other topics so the system has usage history.
	for i, u := range web.PageURLs {
		if web.TopicOf[u] != eventTopic && i%3 == 0 {
			if _, err := w.Get("background", u); err != nil {
				log.Fatal(err)
			}
			clock.Advance(30)
		}
	}

	// T-2h: the paper publishes. Articles name the pages they cover.
	fmt.Printf("[%v] news: festival announced — %d articles published\n", clock.Now(), len(eventPages))
	for _, u := range eventPages {
		feed.Publish(topic.Article{
			Time:     clock.Now(),
			Headline: "gion festival parade schedule announced",
			URL:      u,
		})
	}

	// The hourly maintenance sweep polls the sensor.
	clock.Advance(3600)
	rep, err := w.Maintain()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[%v] maintenance: %d bursting terms, %d pages prefetched\n",
		clock.Now(), len(rep.Bursts), rep.Prefetched)
	for i, b := range rep.Bursts {
		if i >= 5 {
			break
		}
		fmt.Printf("         burst: %-12s score %.1f\n", b.Term, b.Score)
	}

	// T0: the request wave hits.
	clock.Advance(3600)
	fmt.Printf("\n[%v] the wave arrives:\n", clock.Now())
	hits := 0
	for _, u := range eventPages {
		res, err := w.Get("crowd", u)
		if err != nil {
			log.Fatal(err)
		}
		if res.Hit {
			hits++
		}
		clock.Advance(10)
	}
	fmt.Printf("first-request warm hits: %d/%d (without the sensor: 0/%d — every first request \n"+
		"would pay an origin fetch)\n", hits, len(eventPages), len(eventPages))

	st := w.Stats()
	fmt.Printf("\nstats: prefetches=%d requests=%d hitRatio=%.0f%%\n",
		st.Prefetches, st.Requests, 100*st.HitRatio())
}
