package simweb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"cbfww/internal/core"
)

// Fault injection: a wrapper origin that makes the simulated web flaky on
// demand — random fetch failures, latency spikes and per-host blackouts —
// so the resilience layer (retries, circuit breakers, stale-serve
// degradation) is testable end-to-end. All randomness flows through one
// seeded *rand.Rand, so a given seed produces the same fault sequence on
// every run.

// ErrInjected is the sentinel wrapped by every injected fault, including
// blackout refusals.
var ErrInjected = errors.New("injected origin fault")

// FaultConfig tunes the fault process.
type FaultConfig struct {
	// Seed drives the fault RNG (0 behaves like 1: deterministic).
	Seed int64
	// ErrorRate is the per-request probability of an injected failure.
	ErrorRate float64
	// SpikeRate is the per-request probability of a latency spike.
	SpikeRate float64
	// SpikeLatency is the extra simulated latency a spike adds.
	SpikeLatency core.Duration
}

// FaultStats counts injected faults by kind.
type FaultStats struct {
	InjectedErrors   int
	LatencySpikes    int
	BlackoutRefusals int
}

// FaultyOrigin wraps a *Web as an origin that misbehaves per FaultConfig.
// It implements core.Origin. Safe for concurrent use.
type FaultyOrigin struct {
	web *Web
	cfg FaultConfig

	mu        sync.Mutex
	rng       *rand.Rand
	blackouts map[string]bool
	stats     FaultStats
}

// NewFaultyOrigin wraps web with the given fault process.
func NewFaultyOrigin(web *Web, cfg FaultConfig) *FaultyOrigin {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultyOrigin{
		web:       web,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		blackouts: make(map[string]bool),
	}
}

// Blackout turns the named host's blackout on or off: while on, every
// request to it fails as if the site were unreachable.
func (f *FaultyOrigin) Blackout(host string, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if on {
		f.blackouts[host] = true
	} else {
		delete(f.blackouts, host)
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultyOrigin) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// decide rolls the fault dice for one request, returning extra latency to
// add or the injected error.
func (f *FaultyOrigin) decide(url string) (core.Duration, error) {
	host, err := hostOf(url)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.blackouts[host] {
		f.stats.BlackoutRefusals++
		return 0, fmt.Errorf("simweb: host %q blacked out: %w", host, ErrInjected)
	}
	if f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate {
		f.stats.InjectedErrors++
		return 0, fmt.Errorf("simweb: %q: %w", url, ErrInjected)
	}
	if f.cfg.SpikeRate > 0 && f.rng.Float64() < f.cfg.SpikeRate {
		f.stats.LatencySpikes++
		return f.cfg.SpikeLatency, nil
	}
	return 0, nil
}

// FetchCtx implements core.Origin with fault injection: an
// already-cancelled or expired context aborts before the dice are rolled.
func (f *FaultyOrigin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	if err := ctx.Err(); err != nil {
		return core.FetchResult{}, fmt.Errorf("simweb: fetch %q: %w", url, err)
	}
	extra, err := f.decide(url)
	if err != nil {
		return core.FetchResult{}, err
	}
	res, err := f.web.FetchCtx(ctx, url)
	if err != nil {
		return core.FetchResult{}, err
	}
	res.Latency += extra
	return res, nil
}

// HeadCtx implements core.Origin with fault injection (see FetchCtx).
func (f *FaultyOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, fmt.Errorf("simweb: head %q: %w", url, err)
	}
	if _, err := f.decide(url); err != nil {
		return 0, 0, err
	}
	return f.web.HeadCtx(ctx, url)
}
