// Socialnav: logical documents and social navigation (§3(5), §5.2). Users
// repeatedly traverse the same link paths; the warehouse mines those paths
// into logical pages, and new users standing on an entry page get the
// community's trodden continuations plus content recommendations from
// their own interest profile.
package main

import (
	"fmt"
	"log"
	"strings"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

func main() {
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite = 5, 12
	web, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := warehouse.DefaultConfig()
	cfg.Miner.MinSupport = 3
	w, err := warehouse.New(cfg, clock, web.Web)
	if err != nil {
		log.Fatal(err)
	}

	// Find a real 3-hop path in the generated link graph.
	entry := web.PageURLs[0]
	p0, _ := web.Web.Lookup(entry)
	if len(p0.Anchors) == 0 {
		log.Fatal("generated entry page has no links; re-run with another seed")
	}
	second := p0.Anchors[0].Target
	p1, _ := web.Web.Lookup(second)
	third := ""
	for _, a := range p1.Anchors {
		if a.Target != entry && a.Target != second {
			third = a.Target
			break
		}
	}
	path := []string{entry, second}
	if third != "" {
		path = append(path, third)
	}
	fmt.Printf("the community's habitual route (%d hops):\n", len(path))
	for _, u := range path {
		fmt.Println("  ", u)
	}

	// Seven users walk it; others wander. The walks are kept as an access
	// log, the one the warehouse mines.
	var walks logmine.Log
	get := func(user, url string) {
		res, err := w.Get(user, url)
		if err != nil {
			log.Fatal(err)
		}
		walks = append(walks, logmine.Record{Time: clock.Now(), User: user, URL: url, Status: 200, Bytes: res.Page.Size})
	}
	for i := 0; i < 7; i++ {
		user := fmt.Sprintf("user%02d", i)
		for _, u := range path {
			get(user, u)
			clock.Advance(5)
		}
		clock.Advance(4000) // session boundary
	}
	for i, u := range web.PageURLs[5:15] {
		get(fmt.Sprintf("wanderer%d", i%3), u)
		clock.Advance(2500)
	}

	// Mine logical pages.
	rep, err := w.MinePaths(walks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmined: %d sessions -> %d frequent paths -> %d logical pages in %d regions\n",
		rep.Sessions, rep.Paths, rep.LogicalPages, rep.Regions)

	// Social navigation: a newcomer lands on the entry page.
	fmt.Printf("\na newcomer is on %s; the community suggests:\n", entry)
	for _, s := range w.NextHops(entry, 3) {
		fmt.Printf("  support=%2d  -> %s\n", s.Support, strings.Join(s.URLs, " -> "))
	}

	// The logical document is queryable, title assembled per §5.3.
	rows, err := w.Query(`SELECT MFU 3 l.path, l.title FROM Logical_Page l`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlogical pages (anchor-text titles):")
	for _, r := range rows {
		fmt.Printf("  %s\n    title: %q\n", r.Values[0], r.Values[1])
	}

	// Content recommendation from the newcomer's profile after one visit.
	if _, err := w.Get("newcomer", entry); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncontent recommendations for the newcomer:")
	for _, s := range w.Recommend("newcomer", 3) {
		fmt.Printf("  score=%.3f %v\n", s.Value, s.Doc)
	}
}
