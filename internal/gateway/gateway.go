// Package gateway is the warehouse's network front: an http.Server daemon
// exposing CBFWW's non-transparent surfaces — fetch-through, the §4.3
// popularity-aware query dialect, recommendation, ranked search — over
// real sockets. The paper positions CBFWW as a non-transparent proxy users
// query directly (§3, §4.3); this package is that daemon, engineered for
// concurrency:
//
//   - request coalescing: N concurrent requests for one cold URL trigger
//     exactly one origin fetch (singleflight.go) — the miss-storm shape of
//     the paper's hot spots (§3(3));
//   - a bounded worker pool for origin fetches with per-request context
//     deadlines (pool.go), so a flood of cold URLs cannot swamp origins or
//     pile up goroutines;
//   - hot hits bypass both: resident pages are served straight from the
//     warehouse under its read-write lock;
//   - graceful shutdown that drains in-flight requests;
//   - a counters/latency-histogram registry (metrics.go) surfaced at
//     /stats.
//
// Endpoints:
//
//	GET  /fetch?url=U[&user=X]   fetch-through with admission
//	GET  /body?url=U[&user=X]    fetch-through, raw body streamed (metadata in headers)
//	POST /query                  popularity-aware query (§4.3); body = query text or form q=
//	GET  /search?q=T[&n=K]       ranked retrieval through the index hierarchy
//	GET  /recommend?user=X[&n=K] content suggestions
//	GET  /peer/fetch?url=U       cluster-internal resident-only probe (never fetches origin)
//	POST /peer/put               cluster-internal replication push (admit without origin fetch)
//	GET  /stats                  gateway + warehouse counters, latency quantiles, cluster section
//	GET  /healthz                liveness + health view: {"status":"ok"} or "degraded" with detail
//
// With a peers.Cluster configured, /fetch and /body route by ownership:
// a URL whose replica set excludes this node is proxied to the first
// healthy replica in owner order (or 307-redirected under
// Config.Redirect), and responses carry X-CBFWW-Node (who served) and
// X-CBFWW-Owner (the primary owner). A replica that is Down or
// breaker-open is routed around — the next replica takes it, and with
// none left the gateway serves locally instead of failing. /healthz
// always answers 200 (a degraded node is still alive) but reports
// status "degraded" with a complaint list when any peer is Down or any
// breaker is open.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/peers"
	"cbfww/internal/resilience"
	"cbfww/internal/storage"
	"cbfww/internal/warehouse"
)

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// FetchWorkers bounds concurrent origin fetches.
	FetchWorkers int
	// FetchTimeout is the origin-fetch budget per coalesced fetch.
	FetchTimeout time.Duration
	// MaxQueryBytes bounds a POST /query body.
	MaxQueryBytes int64
	// MaxResults caps n parameters on /search and /recommend.
	MaxResults int
	// Resilient, when the warehouse's origin is wrapped by a
	// resilience.Origin, surfaces its retry/breaker counters at /stats
	// (nil is fine: the counters read zero).
	Resilient *resilience.Origin
	// EnablePprof mounts net/http/pprof's profiling endpoints under
	// /debug/pprof/. Off by default: the profiles expose internals
	// (goroutine stacks, heap contents) no public daemon should serve.
	EnablePprof bool
	// EnableAdmin mounts POST /admin/resize, the live capacity-retarget
	// endpoint. Off by default for the same reason as pprof: resizing
	// tiers is an operator surface, not a public one.
	EnableAdmin bool
	// Cluster, when set, makes this gateway one node of a peer ring:
	// /fetch and /body route to the URL's owner, /peer/fetch answers
	// resident-only probes, and /stats grows a "cluster" section. Nil (or
	// unconfigured) means standalone — every URL is self-owned.
	Cluster *peers.Cluster
	// Redirect switches ownership routing from proxying to 307 redirects:
	// the client is told the owner's address instead of the gateway
	// fetching on its behalf. Only meaningful with a Cluster.
	Redirect bool
}

// DefaultConfig returns production-ish defaults.
func DefaultConfig() Config {
	return Config{
		Addr:          "127.0.0.1:8642",
		FetchWorkers:  32,
		FetchTimeout:  10 * time.Second,
		MaxQueryBytes: 64 << 10,
		MaxResults:    100,
	}
}

// Server is the warehouse daemon.
type Server struct {
	cfg     Config
	wh      *warehouse.Warehouse
	metrics *Registry
	flights *flightGroup
	pool    *workerPool

	// coalesced counts /fetch requests that shared another request's
	// origin fetch instead of issuing their own.
	coalesced atomic.Uint64

	srv      *http.Server
	ln       net.Listener
	serveErr chan error
}

// New assembles a daemon over the warehouse (which must be non-nil).
func New(cfg Config, wh *warehouse.Warehouse) (*Server, error) {
	if wh == nil {
		return nil, fmt.Errorf("gateway: %w: nil warehouse", core.ErrInvalid)
	}
	def := DefaultConfig()
	if cfg.Addr == "" {
		cfg.Addr = def.Addr
	}
	if cfg.FetchWorkers <= 0 {
		cfg.FetchWorkers = def.FetchWorkers
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = def.FetchTimeout
	}
	if cfg.MaxQueryBytes <= 0 {
		cfg.MaxQueryBytes = def.MaxQueryBytes
	}
	if cfg.MaxResults <= 0 {
		cfg.MaxResults = def.MaxResults
	}
	s := &Server{
		cfg:     cfg,
		wh:      wh,
		metrics: NewRegistry(),
		flights: newFlightGroup(),
		pool:    newWorkerPool(cfg.FetchWorkers),
	}
	s.srv = &http.Server{Handler: s.Handler()}
	return s, nil
}

// Handler returns the daemon's routing table — usable directly under
// httptest without opening a real socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fetch", s.instrument("fetch", s.handleFetch))
	mux.HandleFunc("GET /body", s.instrument("body", s.handleBody))
	mux.HandleFunc("POST /query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("GET /search", s.instrument("search", s.handleSearch))
	mux.HandleFunc("GET /recommend", s.instrument("recommend", s.handleRecommend))
	mux.HandleFunc("GET "+peers.PeerFetchPath, s.instrument("peer_fetch", s.handlePeerFetch))
	mux.HandleFunc("POST "+peers.PeerPutPath, s.instrument("peer_put", s.handlePeerPut))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.EnableAdmin {
		mux.HandleFunc("POST /admin/resize", s.instrument("admin_resize", s.handleAdminResize))
	}
	if s.cfg.EnablePprof {
		// net/http/pprof registers on DefaultServeMux as an import side
		// effect; route the same handlers here without touching the
		// default mux (Index dispatches /debug/pprof/{heap,goroutine,...}).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Metrics exposes the registry (tests and embedding binaries).
func (s *Server) Metrics() *Registry { return s.metrics }

// CoalescedFetches returns how many /fetch requests joined another
// request's origin fetch.
func (s *Server) CoalescedFetches() uint64 { return s.coalesced.Load() }

// Start listens on cfg.Addr and serves in the background. It returns once
// the listener is bound, so Addr() is immediately valid.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("gateway: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address (host:port), valid after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown stops accepting connections and blocks until every in-flight
// request has completed (or ctx expires, whichever is first).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if s.serveErr != nil {
		if serr := <-s.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		s.serveErr = nil
	}
	return err
}

// statusRecorder captures the response status for the metrics middleware.
// The embedded interface hides the writer's other methods: ReadFrom keeps
// net/http's sendfile path reachable, Unwrap serves ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(r.ResponseWriter, src)
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with the counters/latency registry.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.metrics.Observe(name, time.Since(start), rec.status >= 500)
	}
}

// httpStatus maps warehouse/context errors onto HTTP statuses.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, core.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, resilience.ErrOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(err), map[string]string{"error": err.Error()})
}

// nParam parses an optional positive integer query parameter, clamped to
// the configured maximum.
func (s *Server) nParam(r *http.Request, name string, def int) int {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return def
	}
	if n > s.cfg.MaxResults {
		n = s.cfg.MaxResults
	}
	return n
}

// FetchResponse is the /fetch payload.
type FetchResponse struct {
	URL          string  `json:"url"`
	Title        string  `json:"title"`
	Body         string  `json:"body"`
	Size         int64   `json:"size"`
	Version      int     `json:"version"`
	Hit          bool    `json:"hit"`
	Coalesced    bool    `json:"coalesced"`
	Source       string  `json:"source"`
	LatencyTicks int64   `json:"latency_ticks"`
	Priority     float64 `json:"priority"`
	Stale        bool    `json:"stale"`
}

// routeToOwner applies cluster ownership routing for url. It returns true
// when the response has been fully written (proxied to a replica, or a
// 307 issued); false means the caller must serve locally — because this
// node is in the URL's replica set, the request's hop list already names
// this node (a true cycle), the cluster is off, or every replica is
// unreachable and local degradation is the right answer. Routing walks
// the replica set in owner order and picks the first *healthy* member:
// one the prober calls Up and whose breaker is not open. On local serves
// the X-CBFWW-Node and X-CBFWW-Owner headers are already set when routing
// is on.
func (s *Server) routeToOwner(w http.ResponseWriter, r *http.Request, url string) bool {
	cl := s.cfg.Cluster
	if cl == nil || !cl.Enabled() {
		return false
	}
	owners, selfIn := cl.Owners(url)
	h := w.Header()
	if len(owners) > 0 {
		h.Set(peers.HeaderOwner, owners[0])
	}
	hops := r.Header.Get(peers.HeaderFrom)
	if hops != "" {
		// A peer routed this request here; credit the immediate sender.
		cl.CountForwarded(peers.LastHop(hops))
	}
	if peers.HopsContain(hops, cl.Self()) {
		// This request has been through us before — a genuine routing
		// cycle (membership views can disagree mid-reconfigure). Serve
		// locally; never forward a request a second time.
		h.Set(peers.HeaderNode, cl.Self())
		return false
	}
	if selfIn {
		// We are one of the URL's replicas: serve locally. A cold miss
		// still probes the other replicas before the origin (the
		// warehouse's peer source), preserving one-origin-fetch.
		h.Set(peers.HeaderNode, cl.Self())
		return false
	}
	// Not a replica: hand the request to the first healthy replica that
	// has not already seen it.
	for _, owner := range owners {
		if peers.HopsContain(hops, owner) {
			continue
		}
		if !cl.Healthy(owner) {
			cl.CountRoutedAround(owner)
			continue
		}
		if s.cfg.Redirect {
			cl.CountRedirect(owner)
			h.Set("Location", "http://"+owner+r.URL.RequestURI())
			w.WriteHeader(http.StatusTemporaryRedirect)
			return true
		}
		if cl.Proxy(w, r, owner) {
			return true
		}
		// Proxy failed in transit or 5xx'd: the next replica is as good.
	}
	// Every replica unreachable or already visited: degrade to the local
	// serve path (which still has peer probes and stale-serve behind it).
	// Never fail the request on a peer's account.
	h.Set(peers.HeaderNode, cl.Self())
	return false
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	url, user := q.Get("url"), q.Get("user")
	if url == "" {
		writeError(w, fmt.Errorf("gateway: %w: missing url parameter", core.ErrInvalid))
		return
	}
	if s.routeToOwner(w, r, url) {
		return
	}
	var (
		res    warehouse.GetResult
		err    error
		joined bool
	)
	if s.wh.Resident(url) {
		// Hot path: the page is already warehoused, so serving it is pure
		// in-memory work — no coalescing or pooling needed.
		res, err = s.wh.GetCtx(r.Context(), user, url)
	} else {
		res, joined, err = s.flights.Do(r.Context(), url, func() (warehouse.GetResult, error) {
			// The shared fetch is detached from any single client so an
			// impatient leader cannot poison the result for its joiners;
			// the configured fetch budget bounds it instead.
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.FetchTimeout)
			defer cancel()
			var (
				out  warehouse.GetResult
				ferr error
			)
			if perr := s.pool.do(ctx, func() { out, ferr = s.wh.GetCtx(ctx, user, url) }); perr != nil {
				return warehouse.GetResult{}, perr
			}
			return out, ferr
		})
		if joined {
			s.coalesced.Add(1)
		}
	}
	if err != nil {
		// An open breaker with no resident copy is the one honest answer a
		// bound-free warehouse cannot dodge: 503 plus when to come back.
		var open *resilience.BreakerOpenError
		if errors.As(err, &open) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(open.RetryAfter)))
		}
		writeError(w, err)
		return
	}
	if res.Stale {
		// Degraded serve: the origin failed (or lagged) and the warehouse
		// answered from its admitted copy.
		w.Header().Set("X-CBFWW-Stale", "1")
	}
	writeJSON(w, http.StatusOK, FetchResponse{
		URL:          res.Page.URL,
		Title:        res.Page.Title,
		Body:         res.Page.Body,
		Size:         int64(res.Page.Size),
		Version:      res.Page.Version,
		Hit:          res.Hit,
		Coalesced:    joined,
		Source:       res.Source,
		LatencyTicks: int64(res.Latency),
		Priority:     float64(res.Priority),
		Stale:        res.Stale,
	})
}

// handleBody streams the page body itself — the bytes the storage tiers
// hold — instead of a JSON envelope. Serving metadata rides in headers:
// X-CBFWW-Source (tier name or "origin"), X-CBFWW-Version, and
// X-CBFWW-Stale on degraded serves. It shares /fetch's full fetch-through
// path, so a cold URL is admitted exactly as if fetched — but a warm one
// moves store→socket through the tier's BlobReader (a single Write for
// heap and mmap blobs, sendfile for disk files and CRC-verified segment
// windows) instead of materializing Page.Body. Content-Length comes from
// the stored size, so HEAD answers the size without moving a byte and GET
// responses skip chunked encoding. Once the headers are out a failed
// transfer can only cut the response short; sendBody counts it.
func (s *Server) handleBody(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	url := q.Get("url")
	if url == "" {
		writeError(w, fmt.Errorf("gateway: %w: missing url parameter", core.ErrInvalid))
		return
	}
	if s.routeToOwner(w, r, url) {
		return
	}
	res, bs, err := s.wh.GetBodyCtx(r.Context(), q.Get("user"), url)
	if err != nil {
		var open *resilience.BreakerOpenError
		if errors.As(err, &open) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(open.RetryAfter)))
		}
		writeError(w, err)
		return
	}
	defer bs.Close()
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.FormatInt(bs.Len(), 10))
	h.Set("X-CBFWW-Source", res.Source)
	h.Set("X-CBFWW-Version", strconv.Itoa(res.Page.Version))
	if res.Stale {
		h.Set("X-CBFWW-Stale", "1")
	}
	if r.Method == http.MethodHead {
		return
	}
	s.sendBody("body", w, bs)
}

// sendBody streams a body whose Content-Length is already committed; a
// transfer that fails or ends short counts as the endpoint's aborted.
func (s *Server) sendBody(endpoint string, w io.Writer, bs *warehouse.BodyStream) {
	if n, err := bs.WriteTo(w); err != nil || n != bs.Len() {
		s.metrics.Abort(endpoint)
	}
}

// QueryRow is one /query result row: the projected values in SELECT order,
// rendered as strings.
type QueryRow struct {
	ID     int64    `json:"id"`
	Values []string `json:"values"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := s.queryText(r)
	if err != nil {
		writeError(w, err)
		return
	}
	rows, err := s.wh.Query(q)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %w", core.ErrInvalid, err))
		return
	}
	out := make([]QueryRow, len(rows))
	for i, row := range rows {
		vals := make([]string, len(row.Values))
		for j, v := range row.Values {
			vals[j] = v.String()
		}
		out[i] = QueryRow{ID: int64(row.ID), Values: vals}
	}
	writeJSON(w, http.StatusOK, map[string]any{"query": q, "rows": out})
}

// queryText extracts the query from a POST body. A form-encoded q= field
// wins when present; otherwise the raw body is the query text — so both
// `curl -d 'SELECT ...'` (which claims form encoding) and a plain text
// body work.
func (s *Server) queryText(r *http.Request) (string, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxQueryBytes))
	if err != nil {
		return "", fmt.Errorf("gateway: read query: %w", err)
	}
	raw := strings.TrimSpace(string(body))
	if raw == "" {
		return "", fmt.Errorf("gateway: %w: empty query body", core.ErrInvalid)
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-www-form-urlencoded") {
		if vals, err := url.ParseQuery(raw); err == nil {
			if q := strings.TrimSpace(vals.Get("q")); q != "" {
				return q, nil
			}
		}
	}
	return raw, nil
}

// SearchHit is one /search result.
type SearchHit struct {
	Doc   int64   `json:"doc"`
	Score float64 `json:"score"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, fmt.Errorf("gateway: %w: missing q parameter", core.ErrInvalid))
		return
	}
	n := s.nParam(r, "n", 10)
	res := s.wh.SearchTiered(q, n)
	hits := make([]SearchHit, len(res.Scores))
	for i, sc := range res.Scores {
		hits[i] = SearchHit{Doc: int64(sc.Doc), Score: sc.Value}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tier":          s.wh.StorageManager().TierName(res.Tier),
		"latency_ticks": int64(res.Latency),
		"hits":          hits,
	})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeError(w, fmt.Errorf("gateway: %w: missing user parameter", core.ErrInvalid))
		return
	}
	n := s.nParam(r, "n", 10)
	recs := s.wh.RecommendPages(user, n)
	type rec struct {
		URL   string  `json:"url"`
		Score float64 `json:"score"`
	}
	out := make([]rec, len(recs))
	for i, p := range recs {
		out[i] = rec{URL: p.URL, Score: p.Score}
	}
	writeJSON(w, http.StatusOK, map[string]any{"user": user, "recommendations": out})
}

// handlePeerFetch answers a cluster-internal resident-only probe: the
// page from the local warehouse if (and only if) it is already admitted,
// 404 otherwise. It never triggers an origin fetch and never probes other
// peers, which keeps the cluster's probe graph loop-free. A resident
// serve counts as a real access — peer demand is demand, and should drive
// the same usage/priority machinery as a local client's.
func (s *Server) handlePeerFetch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	url := q.Get("url")
	if url == "" {
		writeError(w, fmt.Errorf("gateway: %w: missing url parameter", core.ErrInvalid))
		return
	}
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(peers.HeaderNode, cl.Self())
		cl.CountForwarded(r.Header.Get(peers.HeaderFrom))
	}
	res, bs, ok := s.wh.GetResidentStream(q.Get("user"), url)
	if !ok {
		writeError(w, fmt.Errorf("gateway: peer fetch %q: %w", url, core.ErrNotFound))
		return
	}
	defer bs.Close()
	// Framed answer: JSON meta line + raw body, streamed from the serving
	// tier.
	meta := peers.PageMeta(res.Page)
	meta.URL = url
	meta.BodyLen = bs.Len()
	meta.Source = res.Source
	meta.LatencyTicks = int64(res.Latency)
	meta.Stale = res.Stale
	line, err := peers.EncodeFrameMeta(meta)
	if err != nil {
		writeError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", peers.FrameContentType)
	h.Set("Content-Length", strconv.FormatInt(int64(len(line))+bs.Len(), 10))
	w.Write(line) // a failed write fails the body's too, which counts it
	s.sendBody("peer_fetch", w, bs)
}

// handlePeerPut receives a replication push: a replica-set member admitted
// a payload and offers it so this node can hold its copy without an origin
// fetch. Admission constraints still apply, version conflicts resolve
// newest-wins, and the receiving warehouse never re-replicates what came
// in this way — so pushes cannot storm.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, peers.FrameContentType) {
		writeError(w, fmt.Errorf("gateway: peer put: %w: content type %q", core.ErrInvalid, ct))
		return
	}
	m, page, err := peers.ReadFrame(r.Body)
	if err != nil {
		writeError(w, fmt.Errorf("gateway: peer put: %w: %w", core.ErrInvalid, err))
		return
	}
	if m.URL == "" {
		writeError(w, fmt.Errorf("gateway: peer put: %w: missing url", core.ErrInvalid))
		return
	}
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(peers.HeaderNode, cl.Self())
		cl.CountReplicaReceived(peers.LastHop(r.Header.Get(peers.HeaderFrom)))
	}
	admitted, err := s.wh.AdmitReplica(m.URL, core.FetchResult{Page: page})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"admitted": admitted})
}

// retryAfterSeconds renders a cool-down as a Retry-After value, rounding
// up so clients never come back early (and never see 0).
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// ResizeRequest is the POST /admin/resize body: capacity targets in
// bytes, keyed by tier name as listed in /stats' storage section. Tiers
// not named keep their current targets; the unbounded anchor cannot be
// resized.
type ResizeRequest struct {
	Targets map[string]int64 `json:"targets"`
}

// ResizeResponse echoes the tier table after the retarget, so the
// operator sees occupancy against the new capacities immediately.
type ResizeResponse struct {
	Storage []storage.TierInfo `json:"storage"`
}

// handleAdminResize retargets tier capacities on the live manager, which
// re-solves placement in one pass over the population: only the copies
// whose tier changed move, but every object is decided once. Mounted
// only under Config.EnableAdmin.
func (s *Server) handleAdminResize(w http.ResponseWriter, r *http.Request) {
	var req ResizeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("gateway: admin resize: %w: %w", core.ErrInvalid, err))
		return
	}
	if len(req.Targets) == 0 {
		writeError(w, fmt.Errorf("gateway: admin resize: %w: no targets", core.ErrInvalid))
		return
	}
	targets := make(map[string]core.Bytes, len(req.Targets))
	for name, b := range req.Targets {
		targets[name] = core.Bytes(b)
	}
	mgr := s.wh.StorageManager()
	if err := mgr.ResizeTiers(targets); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ResizeResponse{Storage: mgr.Tiers()})
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Gateway    GatewayStats                `json:"gateway"`
	Resilience ResilienceStats             `json:"resilience"`
	Endpoints  map[string]EndpointSnapshot `json:"endpoints"`
	Warehouse  warehouse.Stats             `json:"warehouse"`
	// Shards breaks the warehouse's traffic down by lock stripe so
	// operators can see striping imbalance and per-stripe lock contention.
	Shards []ShardSnapshot `json:"shards"`
	// Cluster is the peer-ring section: membership, per-peer routing and
	// probe counters, breaker states. Always present — disabled with no
	// peers on a standalone daemon — so dashboards need no shape branch.
	Cluster peers.ClusterStats `json:"cluster"`
	// Storage is the live tier table: one row per tier with capacity
	// target, occupancy, cumulative moved/demoted bytes and access cost.
	Storage []storage.TierInfo `json:"storage"`
}

// ShardSnapshot is one warehouse lock stripe's share of the load.
type ShardSnapshot struct {
	Shard          int   `json:"shard"`
	Pages          int   `json:"pages"`
	Requests       int   `json:"requests"`
	Hits           int   `json:"hits"`
	OriginFetches  int   `json:"origin_fetches"`
	LockWaitMicros int64 `json:"lock_wait_micros"`
	LockAcquires   int64 `json:"lock_acquires"`
}

// ResilienceStats surfaces the origin-resilience counters: retries and
// breaker activity from the resilience wrapper, degraded serves from the
// warehouse.
type ResilienceStats struct {
	Retries          uint64 `json:"retries"`
	BreakerOpens     uint64 `json:"breaker_opens"`
	BreakerHalfOpens uint64 `json:"breaker_half_opens"`
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	OpenHosts        int    `json:"open_hosts"`
	StaleServes      uint64 `json:"stale_serves"`
}

// GatewayStats are the daemon-level counters.
type GatewayStats struct {
	CoalescedFetches     uint64 `json:"coalesced_fetches"`
	InflightOriginFetchs int    `json:"inflight_origin_fetches"`
	FetchWorkers         int    `json:"fetch_workers"`
	ResidentPages        int    `json:"resident_pages"`
	Shards               int    `json:"shards"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	whStats := s.wh.Stats()
	res := ResilienceStats{StaleServes: uint64(whStats.StaleServes)}
	if s.cfg.Resilient != nil {
		rs := s.cfg.Resilient.Stats()
		res.Retries = rs.Retries
		res.BreakerOpens = rs.BreakerOpens
		res.BreakerHalfOpens = rs.BreakerHalfOpens
		res.BreakerFastFails = rs.BreakerFastFails
		res.OpenHosts = rs.OpenHosts
	}
	shardStats := s.wh.ShardStats()
	shards := make([]ShardSnapshot, len(shardStats))
	for i, ss := range shardStats {
		shards[i] = ShardSnapshot{
			Shard:          ss.Shard,
			Pages:          ss.Pages,
			Requests:       ss.Requests,
			Hits:           ss.Hits,
			OriginFetches:  ss.OriginFetches,
			LockWaitMicros: ss.LockWaitMicros,
			LockAcquires:   ss.LockAcquires,
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Gateway: GatewayStats{
			CoalescedFetches:     s.coalesced.Load(),
			InflightOriginFetchs: s.pool.inflight(),
			FetchWorkers:         s.pool.capacity(),
			ResidentPages:        s.wh.ResidentPages(),
			Shards:               s.wh.NumShards(),
		},
		Resilience: res,
		Endpoints:  s.metrics.Snapshot(),
		Warehouse:  whStats,
		Shards:     shards,
		Cluster:    s.cfg.Cluster.Stats(),
		Storage:    s.wh.StorageManager().Tiers(),
	})
}

// HealthzResponse is the /healthz payload: "ok" when everything this node
// can see is healthy, "degraded" with a complaint list when any peer is
// Down or any breaker (peer or origin) is open.
type HealthzResponse struct {
	Status string   `json:"status"`
	Detail []string `json:"detail,omitempty"`
}

// handleHealthz reports liveness plus the node's health view. It always
// answers 200 — a degraded node is still alive and still serving, and a
// 503 here would make load balancers and the cluster prober treat one
// peer's outage as everyone's, cascading the very failure replication
// exists to absorb. Degradation is in the body, for operators.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var detail []string
	if cl := s.cfg.Cluster; cl != nil {
		detail = append(detail, cl.Degraded()...)
	}
	if res := s.cfg.Resilient; res != nil {
		if n := res.Stats().OpenHosts; n > 0 {
			detail = append(detail, fmt.Sprintf("%d origin breaker(s) open", n))
		}
	}
	status := "ok"
	if len(detail) > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, HealthzResponse{Status: status, Detail: detail})
}
