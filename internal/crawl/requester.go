// Package crawl is the Web Requester of Figure 1 realized over real HTTP:
// a polite, concurrent fetcher that retrieves pages from origin servers
// through net/http, reconstructs their document structure (title, body,
// anchors, media components) from the HTML, and exposes the
// core.Origin interface so a CBFWW can run against socket-served
// origins instead of the in-process simulation.
//
// The package also provides Crawler, a bounded-depth concurrent frontier
// crawler used to pre-populate a warehouse ("store everything as long as
// it seems to be worthwhile").
package crawl

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cbfww/internal/core"
)

// Resolver maps a logical host ("site00.example") to a dialable address
// ("127.0.0.1:41234"). Simulated hosts are not in DNS, so the requester
// needs this indirection; a production deployment would return the host
// unchanged.
type Resolver func(host string) (string, error)

// FixedResolver resolves every host to one address — the common test
// setup where a single listener serves all sites by Host header.
func FixedResolver(addr string) Resolver {
	return func(string) (string, error) { return addr, nil }
}

// Config tunes the requester.
type Config struct {
	// PerHostInterval is the politeness delay between requests to the
	// same host (wall-clock; zero disables).
	PerHostInterval time.Duration
	// Timeout bounds each HTTP request.
	Timeout time.Duration
	// MaxBodyBytes bounds how much of a response body is read.
	MaxBodyBytes int64
}

// DefaultConfig is polite enough for tests and local use.
func DefaultConfig() Config {
	return Config{
		PerHostInterval: 0,
		Timeout:         10 * time.Second,
		MaxBodyBytes:    4 << 20,
	}
}

// Requester fetches pages over HTTP. It implements core.Origin.
// Safe for concurrent use; politeness is enforced per host.
type Requester struct {
	cfg     Config
	resolve Resolver
	client  *http.Client

	mu      sync.Mutex
	lastHit map[string]time.Time
	fetches int
}

// NewRequester returns a Requester using the given resolver.
func NewRequester(cfg Config, resolve Resolver) (*Requester, error) {
	if resolve == nil {
		return nil, fmt.Errorf("crawl: %w: nil resolver", core.ErrInvalid)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	return &Requester{
		cfg:     cfg,
		resolve: resolve,
		client:  &http.Client{Timeout: cfg.Timeout},
		lastHit: make(map[string]time.Time),
	}, nil
}

// Fetches returns the number of HTTP requests issued (GET and HEAD).
func (r *Requester) Fetches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetches
}

// polite blocks until the per-host interval has elapsed, then claims the
// slot. The wait is interruptible: a cancelled request releases its
// worker-pool slot immediately instead of sleeping out the interval.
func (r *Requester) polite(ctx context.Context, host string) error {
	if r.cfg.PerHostInterval <= 0 {
		r.mu.Lock()
		r.fetches++
		r.mu.Unlock()
		return ctx.Err()
	}
	for {
		r.mu.Lock()
		last := r.lastHit[host]
		now := time.Now()
		if wait := r.cfg.PerHostInterval - now.Sub(last); wait > 0 {
			r.mu.Unlock()
			if err := core.Sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}
		r.lastHit[host] = now
		r.fetches++
		r.mu.Unlock()
		return nil
	}
}

// do issues one request with the Host header carrying the logical host.
// The context bounds the whole exchange (on top of the client timeout).
func (r *Requester) do(ctx context.Context, method, url string) (*http.Response, error) {
	host, path, err := splitURL(url)
	if err != nil {
		return nil, err
	}
	addr, err := r.resolve(host)
	if err != nil {
		return nil, fmt.Errorf("crawl: resolve %q: %w", host, err)
	}
	if err := r.polite(ctx, host); err != nil {
		return nil, fmt.Errorf("crawl: %s %s: %w", method, url, err)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, nil)
	if err != nil {
		return nil, fmt.Errorf("crawl: %w: %v", core.ErrInvalid, err)
	}
	req.Host = host
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("crawl: %s %s: %w", method, url, err)
	}
	return resp, nil
}

// FetchCtx implements core.Origin over HTTP: GET the page, parse its
// HTML back into the document model, and report the origin's simulated
// latency (X-Simweb-Latency header; absent headers degrade gracefully).
// Cancellation or deadline expiry of ctx aborts the HTTP exchange.
func (r *Requester) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	resp, err := r.do(ctx, http.MethodGet, url)
	if err != nil {
		return core.FetchResult{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return core.FetchResult{}, fmt.Errorf("crawl: fetch %q: %w", url, core.ErrNotFound)
	}
	if resp.StatusCode != http.StatusOK {
		return core.FetchResult{}, fmt.Errorf("crawl: fetch %q: %w", url, &StatusError{Code: resp.StatusCode})
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		return core.FetchResult{}, fmt.Errorf("crawl: read %q: %w", url, err)
	}
	page := ParsePage(url, string(body))
	page.Version = headerInt(resp.Header, "X-Simweb-Version", 1)
	page.LastMod = core.Time(headerInt(resp.Header, "X-Simweb-LastMod", 0))
	if page.Size == 0 {
		page.Size = core.Bytes(len(body))
	}
	lat := core.Duration(headerInt(resp.Header, "X-Simweb-Latency", 0))
	return core.FetchResult{Page: page, Latency: lat}, nil
}

// HeadCtx implements core.Origin's revalidation probe over HTTP HEAD,
// bounded by ctx as FetchCtx is.
func (r *Requester) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	resp, err := r.do(ctx, http.MethodHead, url)
	if err != nil {
		return 0, 0, err
	}
	drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return 0, 0, fmt.Errorf("crawl: head %q: %w", url, core.ErrNotFound)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("crawl: head %q: %w", url, &StatusError{Code: resp.StatusCode})
	}
	v := headerInt(resp.Header, "X-Simweb-Version", 1)
	lm := core.Time(headerInt(resp.Header, "X-Simweb-LastMod", 0))
	return v, lm, nil
}

// StatusError reports a non-200, non-404 origin response. It exposes the
// code via HTTPStatus so retry policies can classify 5xx as transient
// without importing this package.
type StatusError struct{ Code int }

func (e *StatusError) Error() string { return "status " + strconv.Itoa(e.Code) }

// HTTPStatus returns the response status code.
func (e *StatusError) HTTPStatus() int { return e.Code }

// drainClose consumes what remains of body before closing it, so the
// underlying connection returns to the keep-alive pool instead of being
// torn down. The drain is bounded: a huge error body is not worth a
// connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 256<<10))
	body.Close()
}

func headerInt(h http.Header, key string, def int) int {
	s := h.Get(key)
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

// splitURL separates an http:// URL into host and path.
func splitURL(url string) (host, path string, err error) {
	rest, ok := strings.CutPrefix(url, "http://")
	if !ok {
		return "", "", fmt.Errorf("crawl: %w: URL %q must be http://", core.ErrInvalid, url)
	}
	host, path, _ = strings.Cut(rest, "/")
	if host == "" {
		return "", "", fmt.Errorf("crawl: %w: URL %q has no host", core.ErrInvalid, url)
	}
	return host, "/" + path, nil
}
