package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cbfww/internal/core"
)

// RetryPolicy tunes the retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per call; <= 1 disables
	// retries.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff: attempt k waits roughly
	// BaseBackoff·2^(k-1), equal-jittered. Zero means no waiting.
	BaseBackoff time.Duration
	// MaxBackoff caps a single wait. Zero defaults to 32×BaseBackoff.
	MaxBackoff time.Duration
	// Seed makes the jitter deterministic (tests); 0 seeds from the
	// current time.
	Seed int64
}

// Config assembles the wrapper's tunables.
type Config struct {
	Retry   RetryPolicy
	Breaker BreakerConfig
	// Now overrides the breaker clock (tests); nil means time.Now.
	Now func() time.Time
}

// Stats is a snapshot of the wrapper's activity counters.
type Stats struct {
	// Retries counts re-attempts (excluding each call's first attempt).
	Retries uint64 `json:"retries"`
	// BreakerOpens counts closed→open and half-open→open transitions.
	BreakerOpens uint64 `json:"breaker_opens"`
	// BreakerHalfOpens counts open→half-open probe admissions.
	BreakerHalfOpens uint64 `json:"breaker_half_opens"`
	// BreakerFastFails counts calls refused without touching the origin.
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	// OpenHosts is the number of hosts currently refusing traffic.
	OpenHosts int `json:"open_hosts"`
}

// Origin wraps an inner origin with retries and per-host breaking. Safe
// for concurrent use; implements core.Origin.
type Origin struct {
	inner    core.Origin
	cfg      Config
	breakers *Breakers

	mu      sync.Mutex
	rng     *rand.Rand
	retries uint64
}

// Wrap builds the resilient origin around inner.
func Wrap(inner core.Origin, cfg Config) (*Origin, error) {
	if inner == nil {
		return nil, fmt.Errorf("resilience: %w: nil origin", core.ErrInvalid)
	}
	if cfg.Retry.MaxAttempts < 1 {
		cfg.Retry.MaxAttempts = 1
	}
	if cfg.Retry.MaxBackoff <= 0 {
		cfg.Retry.MaxBackoff = 32 * cfg.Retry.BaseBackoff
	}
	seed := cfg.Retry.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Origin{
		inner:    inner,
		cfg:      cfg,
		breakers: NewBreakers(cfg.Breaker, cfg.Now),
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Stats returns a snapshot of the activity counters.
func (o *Origin) Stats() Stats {
	o.mu.Lock()
	retries := o.retries
	o.mu.Unlock()
	opens, halfOpens, fastFails := o.breakers.Counts()
	st := Stats{
		Retries:          retries,
		BreakerOpens:     opens,
		BreakerHalfOpens: halfOpens,
		BreakerFastFails: fastFails,
	}
	st.OpenHosts = o.breakers.OpenCount()
	return st
}

// FetchCtx implements core.Origin with retries and breaking.
func (o *Origin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	var out core.FetchResult
	err := o.do(ctx, url, func() error {
		var e error
		out, e = o.inner.FetchCtx(ctx, url)
		return e
	})
	if err != nil {
		return core.FetchResult{}, err
	}
	return out, nil
}

// HeadCtx implements core.Origin with retries and breaking.
func (o *Origin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	var (
		v  int
		lm core.Time
	)
	err := o.do(ctx, url, func() error {
		var e error
		v, lm, e = o.inner.HeadCtx(ctx, url)
		return e
	})
	if err != nil {
		return 0, 0, err
	}
	return v, lm, nil
}

// do runs op under the breaker and retry policy.
func (o *Origin) do(ctx context.Context, url string, op func() error) error {
	host := hostOf(url)
	var err error
	for attempt := 1; ; attempt++ {
		report, derr := o.breakers.Allow(host)
		if derr != nil {
			return derr
		}
		err = op()
		report(hostFailure(err))
		if err == nil || attempt >= o.cfg.Retry.MaxAttempts || !Retryable(ctx, err) {
			return err
		}
		o.mu.Lock()
		o.retries++
		o.mu.Unlock()
		if core.Sleep(ctx, o.delay(attempt)) != nil {
			return err
		}
	}
}

// delay computes the jittered backoff for attempt (1-based: the wait
// after the attempt-th failure).
func (o *Origin) delay(attempt int) time.Duration {
	base := o.cfg.Retry.BaseBackoff
	if base <= 0 {
		return 0
	}
	d := base << uint(attempt-1)
	if max := o.cfg.Retry.MaxBackoff; d > max || d <= 0 {
		d = max
	}
	// Equal jitter: half fixed, half uniform — spreads synchronized
	// retry herds without collapsing the floor to zero.
	o.mu.Lock()
	j := time.Duration(o.rng.Int63n(int64(d)/2 + 1))
	o.mu.Unlock()
	return d/2 + j
}
