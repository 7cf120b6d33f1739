package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/crawl"
	"cbfww/internal/simweb"
)

// The test rig: the harness owns the origin. It fills a simweb.Web with
// generated pages, serves it over loopback TCP with its own request
// counters, and knows up front the bytes the daemon must serve for every
// (URL, version), so each response is checked and origin traffic is
// counted by the harness, not by the program under test.

// URL populations of one run; the bases keep them disjoint.
const (
	baseResident = 0
	baseCold     = 1_000_000
	baseProbe    = 2_000_000
)

// bodySum identifies a body without keeping it: length and CRC-32 (the
// hardware-assisted IEEE polynomial, so checking 1 GB/s of 256 KiB bodies
// does not make the load generator the bottleneck).
type bodySum struct {
	n   int64
	crc uint32
}

func sumOf(b []byte) bodySum { return bodySum{n: int64(len(b)), crc: crc32.ChecksumIEEE(b)} }

// update is one scheduled origin content change: page (resident index)
// gets extra appended and its version bumped.
type update struct {
	page  int
	extra string
}

// corpus is the generated web of one run plus the oracle over it.
type corpus struct {
	web      *simweb.Web
	resident []string
	cold     []string
	updates  []update

	mu sync.Mutex
	// expect[url][v-1] is the body the daemon must serve as version v.
	expect map[string][]bodySum
	// seen tracks, per URL, the highest version a completed response
	// carried and when it completed, for the monotonicity check.
	seen map[string]seenVersion
}

type seenVersion struct {
	version int
	at      time.Time
}

// renderHTML returns the HTML the origin serves for url's current content.
func renderHTML(web *simweb.Web, url string) (string, error) {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	web.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("render %s: status %d", url, rec.Code)
	}
	return rec.Body.String(), nil
}

// render returns the parsed body the warehouse stores for url's current
// content: the same HTML the origin serves, through the same parser the
// daemon's Web Requester uses.
func render(web *simweb.Web, url string) (string, error) {
	html, err := renderHTML(web, url)
	if err != nil {
		return "", err
	}
	return crawl.ParsePage(url, html).Body, nil
}

// newCorpus generates residents+colds pages of bodySize bytes and nUpdates
// scheduled updates over the resident pages, and computes every expected
// body.
func newCorpus(seed int64, residents, colds, bodySize, nUpdates int) (*corpus, error) {
	clock := core.NewWallClock()
	c := &corpus{
		web:    simweb.NewWeb(clock),
		expect: make(map[string][]bodySum, residents+colds),
		seen:   make(map[string]seenVersion),
	}
	for s := 0; s < numSites; s++ {
		c.web.AddSite(siteHost(s), 0)
	}
	add := func(base, i int) (string, error) {
		p := genPage(seed, base, i, bodySize)
		if err := c.web.AddPage(p); err != nil {
			return "", err
		}
		body, err := render(c.web, p.URL)
		if err != nil {
			return "", err
		}
		c.expect[p.URL] = []bodySum{sumOf([]byte(body))}
		return p.URL, nil
	}
	for i := 0; i < residents; i++ {
		u, err := add(baseResident, i)
		if err != nil {
			return nil, err
		}
		c.resident = append(c.resident, u)
	}
	for i := 0; i < colds; i++ {
		u, err := add(baseCold, i)
		if err != nil {
			return nil, err
		}
		c.cold = append(c.cold, u)
	}
	if nUpdates > 0 && residents > 0 {
		// Replay the update schedule on a scratch web to learn each
		// version's bytes before the run starts.
		scratch := simweb.NewWeb(clock)
		for s := 0; s < numSites; s++ {
			scratch.AddSite(siteHost(s), 0)
		}
		added := make(map[int]bool)
		r := mix(seed, streamUpdates)
		for k := 0; k < nUpdates; k++ {
			u := update{page: r.Intn(residents), extra: words(r, 3)}
			c.updates = append(c.updates, u)
			if !added[u.page] {
				if err := scratch.AddPage(genPage(seed, baseResident, u.page, bodySize)); err != nil {
					return nil, err
				}
				added[u.page] = true
			}
			url := c.resident[u.page]
			if err := scratch.Update(url, u.extra); err != nil {
				return nil, err
			}
			body, err := render(scratch, url)
			if err != nil {
				return nil, err
			}
			c.expect[url] = append(c.expect[url], sumOf([]byte(body)))
		}
	}
	return c, nil
}

// applyUpdate performs scheduled update k on the live origin.
func (c *corpus) applyUpdate(k int) error {
	u := c.updates[k]
	return c.web.Update(c.resident[u.page], u.extra)
}

// Oracle verdicts.
var (
	errWrongBytes   = errors.New("body does not match the version its header names")
	errNoSuchVer    = errors.New("version header names a version the origin never served")
	errVersionWent  = errors.New("version went backwards")
	errUnknownURL   = errors.New("url outside the generated corpus")
	errMalformedRep = errors.New("malformed reply")
)

// check verifies one /body or /fetch reply: the body must be the bytes of
// the version the reply names, and a request sent after an earlier reply
// for the same URL completed must not see an older version than it.
func (c *corpus) check(url string, version int, got bodySum, headOnly bool, sent, done time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sums, ok := c.expect[url]
	if !ok {
		return errUnknownURL
	}
	if version < 1 || version > len(sums) {
		return errNoSuchVer
	}
	want := sums[version-1]
	if got.n != want.n || (!headOnly && got.crc != want.crc) {
		return errWrongBytes
	}
	prev := c.seen[url]
	if version < prev.version && sent.After(prev.at) {
		return errVersionWent
	}
	if version > prev.version {
		c.seen[url] = seenVersion{version: version, at: done}
	}
	return nil
}

// origin serves a corpus over loopback and counts what the daemon asks.
type origin struct {
	srv   *http.Server
	addr  string
	gets  atomic.Int64
	heads atomic.Int64
	done  chan struct{}
}

func startOrigin(web *simweb.Web) (*origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin: %w", err)
	}
	o := &origin{addr: ln.Addr().String(), done: make(chan struct{})}
	inner := web.Handler()
	o.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			o.heads.Add(1)
		} else {
			o.gets.Add(1)
		}
		inner.ServeHTTP(w, r)
	})}
	go func() {
		defer close(o.done)
		_ = o.srv.Serve(ln) // always ErrServerClosed after close()
	}()
	return o, nil
}

// close stops the origin and waits for its serve loop to end.
func (o *origin) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := o.srv.Shutdown(ctx); err != nil {
		_ = o.srv.Close()
	}
	<-o.done
}
