package gateway

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The gateway's observability surface: per-endpoint request counters and
// latency histograms, cheap enough to sit on every request (one mutex
// acquisition and two array writes), rendered as JSON by /stats.

// histBuckets is the number of exponential latency buckets: bucket i holds
// observations in [2^i, 2^(i+1)) microseconds, so the range spans 1µs to
// ~70s — wider than any sane HTTP request.
const histBuckets = 27

// Histogram is a fixed-bucket exponential latency histogram. Safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// quantileLocked returns an upper-bound estimate of the p-quantile
// (0 < p <= 1): the upper edge of the bucket containing the p-th sample,
// clamped to the observed maximum. Requires h.mu.
func (h *Histogram) quantileLocked(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			upper := time.Duration(1<<(uint(i)+1)) * time.Microsecond
			if upper > h.max {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count: h.total,
		MinMs: ms(h.min),
		MaxMs: ms(h.max),
		P50Ms: ms(h.quantileLocked(0.50)),
		P90Ms: ms(h.quantileLocked(0.90)),
		P99Ms: ms(h.quantileLocked(0.99)),
	}
	if h.total > 0 {
		s.MeanMs = ms(h.sum / time.Duration(h.total))
	}
	return s
}

// EndpointSnapshot summarizes one endpoint's activity. Aborted counts
// responses cut short after their headers (and Content-Length) were sent.
type EndpointSnapshot struct {
	Requests uint64            `json:"requests"`
	Errors   uint64            `json:"errors"`
	Aborted  uint64            `json:"aborted"`
	Latency  HistogramSnapshot `json:"latency"`
}

// endpointStats is the live counterpart of EndpointSnapshot.
type endpointStats struct {
	requests uint64
	errors   uint64
	aborted  uint64
	hist     Histogram
}

// Registry tracks per-endpoint activity. Safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{endpoints: make(map[string]*endpointStats)}
}

// endpoint returns (creating if needed) the stats cell for name.
func (r *Registry) endpoint(name string) *endpointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.endpoints[name]
	if e == nil {
		e = &endpointStats{}
		r.endpoints[name] = e
	}
	return e
}

// Observe records one request against the named endpoint. isErr marks
// responses with status >= 500 (client errors are the client's problem and
// would drown real failures).
func (r *Registry) Observe(name string, d time.Duration, isErr bool) {
	e := r.endpoint(name)
	r.mu.Lock()
	e.requests++
	if isErr {
		e.errors++
	}
	r.mu.Unlock()
	e.hist.Observe(d)
}

// Abort records one response of the named endpoint that failed after its
// headers were sent.
func (r *Registry) Abort(name string) {
	e := r.endpoint(name)
	r.mu.Lock()
	e.aborted++
	r.mu.Unlock()
}

// Snapshot returns every endpoint's summary keyed by endpoint name.
func (r *Registry) Snapshot() map[string]EndpointSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.endpoints))
	for name := range r.endpoints {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)

	out := make(map[string]EndpointSnapshot, len(names))
	for _, name := range names {
		e := r.endpoint(name)
		r.mu.Lock()
		snap := EndpointSnapshot{Requests: e.requests, Errors: e.errors, Aborted: e.aborted}
		r.mu.Unlock()
		snap.Latency = e.hist.Snapshot()
		out[name] = snap
	}
	return out
}
