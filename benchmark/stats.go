package main

import (
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// Sample statistics: exact quantiles over recorded latencies, the
// equal-count window cut of a measured phase, and the host-noise canary
// that decides which windows to trust.

// numWindows is how many equal-count windows a measured phase is cut into.
const numWindows = 20

// canaryTolerance: a window whose canary ran this much slower than the
// run's median canary is dropped before medians are taken.
const canaryTolerance = 0.10

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// method: the smallest sample with at least q of the samples at or below
// it. It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// recorder collects latency samples in microseconds.
type recorder struct{ us []float64 }

func (r *recorder) add(d time.Duration) { r.us = append(r.us, float64(d)/float64(time.Microsecond)) }

func (r *recorder) sorted() []float64 {
	s := append([]float64(nil), r.us...)
	sort.Float64s(s)
	return s
}

// canaryBuf is the canary's fixed input.
var canaryBuf = func() []byte {
	b := make([]byte, 64<<10)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// canarySink keeps the compiler from discarding the canary's work.
var canarySink uint64

// runCanary times a fixed pure-CPU job (FNV-1a over 1 MiB, as sixteen
// 64 KiB passes) and returns the fastest pass: the minimum discards passes
// that were preempted or ran while the core was still waking up, leaving
// how fast this host's CPU is running right now.
func runCanary() time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 16; i++ {
		h := fnv.New64a()
		start := time.Now()
		h.Write(canaryBuf)
		d := time.Since(start)
		canarySink += h.Sum64()
		if d < best {
			best = d
		}
	}
	return best
}

// window is one equal-count slice of a measured phase.
type window struct {
	ops       int
	bodyBytes int64
	wall      time.Duration
	canary    time.Duration
	lat       recorder
}

// keepWindows applies the canary filter: it returns the windows whose
// canary is within canaryTolerance of the run's median canary, and the
// canary spread (slowest ÷ fastest − 1). The reference is the median, not
// the best: on the development host the fastest reading is a short-lived
// boost state 27 % above the usual one, so "within 10 % of the best" would
// drop most windows of every run that happened to catch it once.
func keepWindows(ws []window) (kept []*window, spread float64) {
	readings := make([]float64, 0, len(ws))
	for i := range ws {
		if c := ws[i].canary; c > 0 {
			readings = append(readings, float64(c))
		}
	}
	if len(readings) == 0 {
		for i := range ws {
			kept = append(kept, &ws[i])
		}
		return kept, 0
	}
	sort.Float64s(readings)
	limit := time.Duration(median(readings) * (1 + canaryTolerance))
	for i := range ws {
		if ws[i].canary <= limit {
			kept = append(kept, &ws[i])
		}
	}
	return kept, readings[len(readings)-1]/readings[0] - 1
}

// spreadOf is a median with the extremes it was taken over.
type spreadOf struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(v []float64) spreadOf {
	if len(v) == 0 {
		return spreadOf{}
	}
	s := spreadOf{Median: median(v), Min: v[0], Max: v[0]}
	for _, x := range v {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}
