package resilience

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cbfww/internal/core"
)

// scriptOrigin returns canned errors per URL, in order; past the script's
// end it succeeds. Thread-safe.
type scriptOrigin struct {
	mu     sync.Mutex
	script map[string][]error
	calls  map[string]int
	// called, when non-nil, receives a token per origin call (dropped when
	// full) — tests synchronize on attempts instead of sleeping.
	called chan struct{}
}

func newScriptOrigin() *scriptOrigin {
	return &scriptOrigin{script: make(map[string][]error), calls: make(map[string]int)}
}

func (s *scriptOrigin) fail(url string, errs ...error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.script[url] = append(s.script[url], errs...)
}

func (s *scriptOrigin) callCount(url string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[url]
}

func (s *scriptOrigin) next(url string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[url]++
	if s.called != nil {
		select {
		case s.called <- struct{}{}:
		default:
		}
	}
	if q := s.script[url]; len(q) > 0 {
		err := q[0]
		s.script[url] = q[1:]
		return err
	}
	return nil
}

func (s *scriptOrigin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	if err := s.next(url); err != nil {
		return core.FetchResult{}, err
	}
	return core.FetchResult{Page: core.Page{URL: url, Title: "t", Version: 1}}, nil
}

func (s *scriptOrigin) Fetch(url string) (core.FetchResult, error) {
	return s.FetchCtx(context.Background(), url)
}

func (s *scriptOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	if err := s.next(url); err != nil {
		return 0, 0, err
	}
	return 1, 0, nil
}

func (s *scriptOrigin) Head(url string) (int, core.Time, error) {
	return s.HeadCtx(context.Background(), url)
}

var errFlaky = errors.New("transient origin failure")

// timeoutErr satisfies net.Error with Timeout() true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// coded mimics crawl.StatusError without importing crawl.
type coded struct{ c int }

func (e *coded) Error() string   { return fmt.Sprintf("status %d", e.c) }
func (e *coded) HTTPStatus() int { return e.c }

func TestRetryableClassification(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want bool
	}{
		{"nil error", ctx, nil, false},
		{"generic", ctx, errFlaky, true},
		{"wrapped not found", ctx, fmt.Errorf("x: %w", core.ErrNotFound), false},
		{"wrapped invalid", ctx, fmt.Errorf("x: %w", core.ErrInvalid), false},
		{"caller cancelled", cancelled, errFlaky, false},
		{"op cancelled", ctx, fmt.Errorf("x: %w", context.Canceled), false},
		// A deadline error while the caller's ctx is alive is an inner
		// per-attempt timeout: transient.
		{"attempt deadline", ctx, fmt.Errorf("x: %w", context.DeadlineExceeded), true},
		{"net timeout", ctx, fmt.Errorf("x: %w", net.Error(timeoutErr{})), true},
		{"http 500", ctx, fmt.Errorf("x: %w", &coded{500}), true},
		{"http 503", ctx, fmt.Errorf("x: %w", &coded{503}), true},
		{"http 429", ctx, fmt.Errorf("x: %w", &coded{429}), true},
		{"http 403", ctx, fmt.Errorf("x: %w", &coded{403}), false},
		{"breaker open", ctx, &BreakerOpenError{Host: "h"}, false},
	}
	for _, c := range cases {
		if got := Retryable(c.ctx, c.err); got != c.want {
			t.Errorf("%s: Retryable = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHostFailureClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"generic", errFlaky, true},
		{"not found", fmt.Errorf("x: %w", core.ErrNotFound), false},
		{"breaker fast-fail", &BreakerOpenError{Host: "h"}, false},
		{"http 404-ish", fmt.Errorf("x: %w", &coded{403}), false},
		{"http 500", fmt.Errorf("x: %w", &coded{500}), true},
		{"timeout", timeoutErr{}, true},
	}
	for _, c := range cases {
		if got := hostFailure(c.err); got != c.want {
			t.Errorf("%s: hostFailure = %v, want %v", c.name, got, c.want)
		}
	}
}

func wrapT(t *testing.T, inner core.ContextOrigin, cfg Config) *Origin {
	t.Helper()
	if cfg.Retry.Seed == 0 {
		cfg.Retry.Seed = 1
	}
	o, err := Wrap(inner, cfg)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	return o
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	s := newScriptOrigin()
	url := "http://a.example/p"
	s.fail(url, errFlaky, errFlaky)
	o := wrapT(t, s, Config{Retry: RetryPolicy{MaxAttempts: 3}})

	res, err := o.FetchCtx(context.Background(), url)
	if err != nil {
		t.Fatalf("FetchCtx: %v", err)
	}
	if res.Page.URL != url {
		t.Errorf("page URL = %q", res.Page.URL)
	}
	if n := s.callCount(url); n != 3 {
		t.Errorf("origin calls = %d, want 3", n)
	}
	if st := o.Stats(); st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	s := newScriptOrigin()
	url := "http://a.example/p"
	s.fail(url, errFlaky, errFlaky, errFlaky, errFlaky)
	o := wrapT(t, s, Config{Retry: RetryPolicy{MaxAttempts: 3}})

	if _, err := o.FetchCtx(context.Background(), url); !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want errFlaky", err)
	}
	if n := s.callCount(url); n != 3 {
		t.Errorf("origin calls = %d, want 3 (budget)", n)
	}
}

func TestNoRetryOnNotFound(t *testing.T) {
	s := newScriptOrigin()
	url := "http://a.example/missing"
	s.fail(url, fmt.Errorf("origin: %w", core.ErrNotFound))
	o := wrapT(t, s, Config{Retry: RetryPolicy{MaxAttempts: 5}})

	if _, err := o.FetchCtx(context.Background(), url); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if n := s.callCount(url); n != 1 {
		t.Errorf("origin calls = %d, want 1 (no retry)", n)
	}
}

func TestNoRetryAfterCallerCancels(t *testing.T) {
	s := newScriptOrigin()
	s.called = make(chan struct{}, 8)
	url := "http://a.example/p"
	s.fail(url, errFlaky, errFlaky, errFlaky)
	o := wrapT(t, s, Config{Retry: RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Hour}})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := o.FetchCtx(ctx, url)
		done <- err
	}()
	// Wait for the first attempt to actually hit the origin (the hour-long
	// backoff starts right after), then cancel: the call must return
	// promptly instead of sleeping the hour out.
	select {
	case <-s.called:
	case <-time.After(5 * time.Second):
		t.Fatal("first attempt never reached the origin")
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored cancellation during backoff")
	}
	if n := s.callCount(url); n > 2 {
		t.Errorf("origin calls = %d after cancel, want <= 2", n)
	}
}

func TestBackoffGrowsAndIsCapped(t *testing.T) {
	o := wrapT(t, newScriptOrigin(), Config{Retry: RetryPolicy{
		MaxAttempts: 5, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 400 * time.Millisecond,
	}})
	for attempt := 1; attempt <= 10; attempt++ {
		d := o.delay(attempt)
		if d < 50*time.Millisecond {
			t.Errorf("attempt %d: delay %v below jitter floor", attempt, d)
		}
		if d > 400*time.Millisecond {
			t.Errorf("attempt %d: delay %v above cap", attempt, d)
		}
	}
	// The first attempt's range never exceeds the base.
	if d := o.delay(1); d > 100*time.Millisecond {
		t.Errorf("attempt 1 delay %v exceeds base", d)
	}
}

// fakeClock drives the breaker cool-down manually.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerOpensAndFailsFast(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newScriptOrigin()
	url := "http://dead.example/p"
	s.fail(url, errFlaky, errFlaky, errFlaky, errFlaky, errFlaky)
	o := wrapT(t, s, Config{
		Breaker: BreakerConfig{Threshold: 3, Cooldown: time.Minute},
		Now:     clk.Now,
	})

	for i := 0; i < 3; i++ {
		if _, err := o.FetchCtx(context.Background(), url); !errors.Is(err, errFlaky) {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	st := o.Stats()
	if st.BreakerOpens != 1 || st.OpenHosts != 1 {
		t.Fatalf("after threshold: %+v", st)
	}

	// Open: calls fail fast without touching the origin.
	before := s.callCount(url)
	_, err := o.FetchCtx(context.Background(), url)
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker err = %v, want ErrOpen", err)
	}
	var open *BreakerOpenError
	if !errors.As(err, &open) || open.Host != "dead.example" || open.RetryAfter <= 0 {
		t.Fatalf("open error detail: %+v", open)
	}
	if s.callCount(url) != before {
		t.Fatal("open breaker still reached the origin")
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newScriptOrigin()
	url := "http://flaky.example/p"
	s.fail(url, errFlaky, errFlaky) // opens at threshold 2, then healthy
	o := wrapT(t, s, Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Now:     clk.Now,
	})

	for i := 0; i < 2; i++ {
		o.FetchCtx(context.Background(), url)
	}
	if _, err := o.FetchCtx(context.Background(), url); !errors.Is(err, ErrOpen) {
		t.Fatalf("expected fast fail, got %v", err)
	}

	// Cool-down elapses: the next call is the half-open probe; it succeeds
	// and closes the breaker.
	clk.advance(2 * time.Minute)
	if _, err := o.FetchCtx(context.Background(), url); err != nil {
		t.Fatalf("probe: %v", err)
	}
	st := o.Stats()
	if st.BreakerHalfOpens != 1 || st.OpenHosts != 0 {
		t.Fatalf("after probe: %+v", st)
	}
	// Closed again: traffic flows.
	if _, err := o.FetchCtx(context.Background(), url); err != nil {
		t.Fatalf("post-recovery fetch: %v", err)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newScriptOrigin()
	url := "http://dead.example/p"
	s.fail(url, errFlaky, errFlaky, errFlaky) // 2 to open + 1 failed probe
	o := wrapT(t, s, Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Now:     clk.Now,
	})
	for i := 0; i < 2; i++ {
		o.FetchCtx(context.Background(), url)
	}
	clk.advance(2 * time.Minute)
	if _, err := o.FetchCtx(context.Background(), url); !errors.Is(err, errFlaky) {
		t.Fatalf("probe err = %v", err)
	}
	st := o.Stats()
	if st.BreakerOpens != 2 || st.OpenHosts != 1 {
		t.Fatalf("after failed probe: %+v", st)
	}
	if _, err := o.FetchCtx(context.Background(), url); !errors.Is(err, ErrOpen) {
		t.Fatalf("re-opened breaker err = %v", err)
	}
}

// TestBreakerCooldownJitter: each open draws Cooldown + uniform jitter, so
// a fleet of breakers opened in the same instant does not all probe in the
// same instant (thundering herd on recovery). Negative Jitter disables.
func TestBreakerCooldownJitter(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	bs := NewBreakers(BreakerConfig{Threshold: 1, Cooldown: time.Minute, Jitter: 0.25}, clk.Now)
	const n = 64
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("peer-%d", i)
		rep, err := bs.Allow(keys[i])
		if err != nil {
			t.Fatalf("initial allow %s: %v", keys[i], err)
		}
		rep(true) // threshold 1: opens immediately
	}
	// countAllowed probes every key; allowed probes report success (closing
	// that breaker for good) so each key is counted open at most once.
	countAllowed := func() (allowed, refused int) {
		for _, k := range keys {
			rep, err := bs.Allow(k)
			if err != nil {
				refused++
				continue
			}
			allowed++
			rep(false)
		}
		return
	}
	// At exactly the base cool-down, jittered breakers still refuse.
	clk.advance(time.Minute)
	if allowed, refused := countAllowed(); refused < n/2 {
		t.Fatalf("at base cool-down: %d allowed, %d refused; jitter should hold most closed", allowed, refused)
	}
	// Midway through the jitter window the fleet splits: some probe now,
	// some later — the de-synchronization the jitter exists to create.
	clk.advance(time.Minute / 8)
	midAllowed, midRefused := countAllowed()
	if midAllowed == 0 || midRefused == 0 {
		t.Fatalf("mid-jitter: %d allowed, %d refused; want a split", midAllowed, midRefused)
	}
	// Past the full jitter window everyone probes.
	clk.advance(time.Minute / 8)
	if _, refused := countAllowed(); refused != 0 {
		t.Fatalf("past jitter window: %d still refused, want 0", refused)
	}

	// Negative jitter pins the cool-down to exactly Cooldown.
	exact := NewBreakers(BreakerConfig{Threshold: 1, Cooldown: time.Minute, Jitter: -1}, clk.Now)
	rep, err := exact.Allow("p")
	if err != nil {
		t.Fatalf("allow: %v", err)
	}
	rep(true)
	clk.advance(time.Minute)
	if _, err := exact.Allow("p"); err != nil {
		t.Fatalf("jitter disabled: probe at exactly Cooldown refused: %v", err)
	}
}

func TestBreakerIsPerHost(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newScriptOrigin()
	dead := "http://dead.example/p"
	s.fail(dead, errFlaky, errFlaky)
	o := wrapT(t, s, Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Now:     clk.Now,
	})
	for i := 0; i < 2; i++ {
		o.FetchCtx(context.Background(), dead)
	}
	if _, err := o.FetchCtx(context.Background(), dead); !errors.Is(err, ErrOpen) {
		t.Fatalf("dead host err = %v", err)
	}
	// A healthy host is unaffected.
	if _, err := o.FetchCtx(context.Background(), "http://live.example/p"); err != nil {
		t.Fatalf("live host: %v", err)
	}
	// Head goes through the same machinery.
	if _, _, err := o.HeadCtx(context.Background(), dead); !errors.Is(err, ErrOpen) {
		t.Fatalf("head on open host err = %v", err)
	}
}

func TestNotFoundResetsFailureStreak(t *testing.T) {
	s := newScriptOrigin()
	url := "http://a.example/p"
	nf := fmt.Errorf("origin: %w", core.ErrNotFound)
	// failure, failure, not-found (host alive!), failure, failure: never
	// three consecutive host failures.
	s.fail(url, errFlaky, errFlaky, nf, errFlaky, errFlaky)
	o := wrapT(t, s, Config{Breaker: BreakerConfig{Threshold: 3, Cooldown: time.Minute}})
	for i := 0; i < 5; i++ {
		o.FetchCtx(context.Background(), url)
	}
	if st := o.Stats(); st.BreakerOpens != 0 {
		t.Fatalf("breaker opened across a not-found reset: %+v", st)
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://a.example/p/q":  "a.example",
		"https://b.example/":    "b.example",
		"http://c.example":      "c.example",
		"no-scheme-at-all":      "no-scheme-at-all",
		"http://d.example:8080": "d.example:8080",
	}
	for in, want := range cases {
		if got := hostOf(in); got != want {
			t.Errorf("hostOf(%q) = %q, want %q", in, got, want)
		}
	}
}
