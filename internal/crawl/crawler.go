package crawl

import (
	"fmt"
	"sync"

	"cbfww/internal/core"
)

// CrawlConfig bounds a crawl.
type CrawlConfig struct {
	// MaxPages stops the crawl after this many successful fetches.
	MaxPages int
	// MaxDepth bounds link distance from the seeds (0 = seeds only).
	MaxDepth int
	// Workers is the number of concurrent fetchers.
	Workers int
	// SameHostOnly restricts the frontier to the seeds' hosts.
	SameHostOnly bool
}

// DefaultCrawlConfig crawls up to 256 pages, 4 links deep, 8 workers.
func DefaultCrawlConfig() CrawlConfig {
	return CrawlConfig{MaxPages: 256, MaxDepth: 4, Workers: 8}
}

// CrawlResult is what a crawl returns.
type CrawlResult struct {
	// Pages are the successfully fetched pages, in completion order.
	Pages []core.Page
	// Errors counts failed fetches (dead links, non-200s).
	Errors int
	// Skipped counts frontier entries dropped by depth/host/size limits.
	Skipped int
}

// Crawler walks the link graph breadth-first through a Requester (or any
// origin) with a bounded worker pool. It is the "robots will search
// through internet" half of the paper's index trade-off — here used to
// seed a warehouse.
type Crawler struct {
	origin interface {
		Fetch(url string) (core.FetchResult, error)
	}
	cfg CrawlConfig
}

// NewCrawler returns a crawler over any Fetch-capable origin.
func NewCrawler(origin interface {
	Fetch(url string) (core.FetchResult, error)
}, cfg CrawlConfig) (*Crawler, error) {
	if origin == nil {
		return nil, fmt.Errorf("crawl: %w: nil origin", core.ErrInvalid)
	}
	if cfg.MaxPages < 1 {
		cfg.MaxPages = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Crawler{origin: origin, cfg: cfg}, nil
}

// job is one frontier entry.
type job struct {
	url   string
	depth int
}

// Crawl runs a breadth-first crawl from the seeds.
func (c *Crawler) Crawl(seeds ...string) CrawlResult {
	var (
		mu      sync.Mutex
		res     CrawlResult
		seen    = make(map[string]bool)
		hosts   = make(map[string]bool)
		pending sync.WaitGroup
	)
	for _, s := range seeds {
		if host, _, err := splitURL(s); err == nil {
			hosts[host] = true
		}
	}
	// A buffered channel holds the frontier; pending tracks outstanding
	// jobs so the crawl terminates when the frontier drains.
	frontier := make(chan job, 4096)
	enqueue := func(j job) {
		mu.Lock()
		defer mu.Unlock()
		if seen[j.url] {
			return
		}
		if j.depth > c.cfg.MaxDepth {
			res.Skipped++
			return
		}
		if c.cfg.SameHostOnly {
			if host, _, err := splitURL(j.url); err != nil || !hosts[host] {
				res.Skipped++
				return
			}
		}
		if len(seen) >= c.cfg.MaxPages {
			res.Skipped++
			return
		}
		seen[j.url] = true
		pending.Add(1)
		select {
		case frontier <- j:
		default:
			// Frontier overflow: drop rather than deadlock.
			pending.Done()
			delete(seen, j.url)
			res.Skipped++
		}
	}
	for _, s := range seeds {
		enqueue(job{url: s, depth: 0})
	}

	var workers sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range frontier {
				fr, err := c.origin.Fetch(j.url)
				mu.Lock()
				if err != nil {
					res.Errors++
					mu.Unlock()
				} else {
					res.Pages = append(res.Pages, fr.Page)
					mu.Unlock()
					for _, a := range fr.Page.Anchors {
						enqueue(job{url: a.Target, depth: j.depth + 1})
					}
				}
				pending.Done()
			}
		}()
	}
	pending.Wait()
	close(frontier)
	workers.Wait()
	return res
}
