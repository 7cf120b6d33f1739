// Package simweb is the simulated-web substrate of the reproduction. The
// paper's system fetches from the live web, watches news sites, and serves
// a provider's (Kyoto-inet) user population; none of that is available, so
// simweb provides a deterministic synthetic equivalent:
//
//   - sites with per-site fetch latency (origin distance),
//   - pages with topical content, titles, anchors/links and embedded media
//     components (the Dexter-style document composition of §5.1),
//   - content update processes that bump page versions,
//   - an http.Handler so integration tests exercise real sockets.
//
// All randomness flows through explicitly seeded *rand.Rand instances and
// all time through core.Clock, so every experiment is reproducible.
package simweb

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cbfww/internal/core"
)

// The page contract lives in core. These aliases exist only because the
// benchmark harness (benchmark/) still names them; they go when it moves
// to the core names, and nothing else may use them.
type (
	Page        = core.Page
	Anchor      = core.Anchor
	Component   = core.Component
	FetchResult = core.FetchResult
)

// Site is an origin server: a host with pages and a fetch latency that
// models its network distance.
type Site struct {
	Host    string
	Latency core.Duration
	pages   map[string]*core.Page // by full URL
}

// Web is the simulated web: a set of sites plus global URL lookup. Safe
// for concurrent use.
type Web struct {
	mu    sync.RWMutex
	clock core.Clock
	sites map[string]*Site
	pages map[string]*core.Page // all pages by URL
	// FetchCount tallies origin fetches per URL, for traffic accounting.
	fetchCount map[string]int
}

// NewWeb returns an empty web on the given clock.
func NewWeb(clock core.Clock) *Web {
	return &Web{
		clock:      clock,
		sites:      make(map[string]*Site),
		pages:      make(map[string]*core.Page),
		fetchCount: make(map[string]int),
	}
}

// AddSite registers a host with the given origin latency. Adding an
// existing host returns the existing site (latency unchanged).
func (w *Web) AddSite(host string, latency core.Duration) *Site {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.sites[host]; ok {
		return s
	}
	s := &Site{Host: host, Latency: latency, pages: make(map[string]*core.Page)}
	w.sites[host] = s
	return s
}

// AddPage installs a page. The page URL must have the form
// "http://host/path" with a registered host. Version and LastMod are
// initialized if zero.
func (w *Web) AddPage(p *core.Page) error {
	host, err := hostOf(p.URL)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.sites[host]
	if !ok {
		return fmt.Errorf("simweb: %w: host %q not registered", core.ErrNotFound, host)
	}
	if _, dup := w.pages[p.URL]; dup {
		return fmt.Errorf("simweb: %w: page %q", core.ErrExists, p.URL)
	}
	if p.Version == 0 {
		p.Version = 1
	}
	if p.LastMod == 0 {
		p.LastMod = w.clock.Now()
	}
	s.pages[p.URL] = p
	w.pages[p.URL] = p
	return nil
}

// hostOf extracts the host from an http:// URL.
func hostOf(url string) (string, error) {
	rest, ok := strings.CutPrefix(url, "http://")
	if !ok {
		return "", fmt.Errorf("simweb: %w: URL %q must start with http://", core.ErrInvalid, url)
	}
	host, _, _ := strings.Cut(rest, "/")
	if host == "" {
		return "", fmt.Errorf("simweb: %w: URL %q has no host", core.ErrInvalid, url)
	}
	return host, nil
}

// Fetch retrieves the current content of url, simulating the origin
// round-trip cost. The returned Page is a copy; mutating it does not
// affect the web.
func (w *Web) Fetch(url string) (core.FetchResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	p, ok := w.pages[url]
	if !ok {
		return core.FetchResult{}, fmt.Errorf("simweb: fetch %q: %w", url, core.ErrNotFound)
	}
	w.fetchCount[url]++
	host, _ := hostOf(url)
	lat := w.sites[host].Latency
	cp := *p
	cp.Anchors = append([]core.Anchor(nil), p.Anchors...)
	cp.Components = append([]core.Component(nil), p.Components...)
	return core.FetchResult{Page: cp, Latency: lat}, nil
}

// Head returns the page's version and last-modified time without a body
// transfer — the cheap consistency probe used by weak-consistency polling.
func (w *Web) Head(url string) (version int, lastMod core.Time, err error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p, ok := w.pages[url]
	if !ok {
		return 0, 0, fmt.Errorf("simweb: head %q: %w", url, core.ErrNotFound)
	}
	return p.Version, p.LastMod, nil
}

// Update modifies the page's body (appending an update marker and new
// terms), bumps its version and stamps LastMod with the current time.
// extra is appended to the body; it may be empty.
func (w *Web) Update(url, extra string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	p, ok := w.pages[url]
	if !ok {
		return fmt.Errorf("simweb: update %q: %w", url, core.ErrNotFound)
	}
	p.Version++
	p.LastMod = w.clock.Now()
	if extra != "" {
		p.Body += " " + extra
	}
	return nil
}

// Lookup returns the live page object (not a copy) for generators that
// need to inspect structure, plus whether it exists. Callers must not
// mutate the result.
func (w *Web) Lookup(url string) (*core.Page, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p, ok := w.pages[url]
	return p, ok
}

// URLs returns all page URLs in sorted order.
func (w *Web) URLs() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.pages))
	for u := range w.pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// NumPages returns the number of installed pages.
func (w *Web) NumPages() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.pages)
}

// FetchCount returns how many origin fetches url has served.
func (w *Web) FetchCount(url string) int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.fetchCount[url]
}

// TotalFetches returns the total origin traffic in requests.
func (w *Web) TotalFetches() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	n := 0
	for _, c := range w.fetchCount {
		n += c
	}
	return n
}
