package gateway

import (
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if got := h.quantileLocked(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	samples := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		5 * time.Millisecond, 100 * time.Millisecond,
	}
	for _, d := range samples {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.MinMs != 1 || s.MaxMs != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", s.MinMs, s.MaxMs)
	}
	if s.P50Ms > s.P90Ms || s.P90Ms > s.P99Ms {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", s.P50Ms, s.P90Ms, s.P99Ms)
	}
	// p99 is clamped to the observed maximum.
	if s.P99Ms > 100 {
		t.Fatalf("p99 = %v exceeds observed max 100ms", s.P99Ms)
	}
	// The median sample is 3ms; its bucket's upper edge is at most 2x.
	if s.P50Ms < 3 || s.P50Ms > 8 {
		t.Fatalf("p50 = %vms implausible for median 3ms", s.P50Ms)
	}
}

func TestHistogramQuantileUpperBound(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	// Every sample identical: all quantiles must land on the sample's
	// bucket, clamped to the max.
	for _, p := range []float64{0.01, 0.5, 0.99, 1} {
		q := h.quantileLocked(p)
		if q != 10*time.Millisecond && q > 16*time.Millisecond {
			t.Fatalf("quantile(%v) = %v, want ~10ms", p, q)
		}
	}
}

func TestRegistryObserve(t *testing.T) {
	r := NewRegistry()
	r.Observe("fetch", 5*time.Millisecond, false)
	r.Observe("fetch", 7*time.Millisecond, true)
	r.Observe("stats", 1*time.Millisecond, false)

	snap := r.Snapshot()
	f, ok := snap["fetch"]
	if !ok {
		t.Fatal("fetch endpoint missing from snapshot")
	}
	if f.Requests != 2 || f.Errors != 1 {
		t.Fatalf("fetch requests/errors = %d/%d, want 2/1", f.Requests, f.Errors)
	}
	if f.Latency.Count != 2 {
		t.Fatalf("fetch latency count = %d, want 2", f.Latency.Count)
	}
	if s := snap["stats"]; s.Requests != 1 || s.Errors != 0 {
		t.Fatalf("stats requests/errors = %d/%d, want 1/0", s.Requests, s.Errors)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				r.Observe("fetch", time.Duration(i)*time.Microsecond, i%10 == 0)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	snap := r.Snapshot()
	if got := snap["fetch"].Requests; got != 8*500 {
		t.Fatalf("requests = %d, want %d", got, 8*500)
	}
}
