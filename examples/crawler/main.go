// Crawler: populate a warehouse over real HTTP. The simulated web is
// served on a socket; a polite concurrent crawler walks its link graph
// through the crawl.Requester, the one core.Origin the crawler and the
// warehouse both fetch through, and every crawled page is prefetched into
// the warehouse — so by the time users arrive, the warehouse is warm and
// queryable.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/crawl"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

func main() {
	// The origin: a synthetic web on a real listener.
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite = 5, 12
	web, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, web.Web.Handler())
	fmt.Printf("origin: %d pages on %d sites at http://%s\n\n",
		web.Web.NumPages(), wcfg.Sites, ln.Addr())

	// The Web Requester: HTTP fetcher with per-host politeness.
	rcfg := crawl.DefaultConfig()
	rcfg.PerHostInterval = 2 * time.Millisecond
	requester, err := crawl.NewRequester(rcfg, crawl.FixedResolver(ln.Addr().String()))
	if err != nil {
		log.Fatal(err)
	}

	// The warehouse fetches through the same requester (real sockets).
	w, err := warehouse.New(warehouse.DefaultConfig(), clock, requester)
	if err != nil {
		log.Fatal(err)
	}

	// Crawl breadth-first from three seeds and prefetch every page found.
	c, err := crawl.NewCrawler(requester, crawl.CrawlConfig{
		MaxPages: 200, MaxDepth: 5, Workers: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res := c.Crawl(context.Background(), web.PageURLs[0], web.PageURLs[13], web.PageURLs[26])
	fmt.Printf("crawl: %d pages in %v (%d errors, %d skipped, %d HTTP requests)\n",
		len(res.Pages), time.Since(start).Round(time.Millisecond),
		res.Errors, res.Skipped, requester.Fetches())

	for _, p := range res.Pages {
		if err := w.Prefetch(p.URL); err != nil {
			log.Fatal(err)
		}
		clock.Advance(1)
	}
	fmt.Printf("warehouse: %d pages admitted via prefetch\n\n", w.ResidentPages())

	// A user arrives: everything crawled is already warm.
	warm := 0
	for _, p := range res.Pages[:10] {
		r, err := w.Get("visitor", p.URL)
		if err != nil {
			log.Fatal(err)
		}
		if r.Hit {
			warm++
		}
		clock.Advance(1)
	}
	fmt.Printf("first 10 visitor requests: %d/10 warm hits\n", warm)

	// And the crawl's harvest is queryable.
	rows, err := w.Query("SELECT LFU 5 p.url, p.size FROM Physical_Page p WHERE p.size > 100,000")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlargest rarely-used pages (SELECT LFU 5 ... WHERE p.size > 100,000):")
	for _, r := range rows {
		fmt.Printf("  %-44s %s bytes\n", r.Values[0], r.Values[1])
	}
}
