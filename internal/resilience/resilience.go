// Package resilience is the origin-survival layer of the warehouse: the
// paper's premise is that the warehouse — not the origin web — is the
// reliable store ("store everything as long as it seems to be worthwhile",
// §2), so a flaky, slow or dead origin must degrade service, never deny
// it. The package wraps any context-aware origin (crawl.Requester over
// real sockets, or a fault-injecting simweb origin in tests) with:
//
//   - bounded retries with jittered exponential backoff, gated by error
//     classification (retry timeouts, 5xx and connection failures; never
//     retry not-found, invalid input or the caller's own cancellation);
//   - a per-host circuit breaker (closed → open after N consecutive host
//     failures → half-open probe after a cool-down) so a dead site fails
//     fast instead of burning retry budgets and gateway worker-pool slots.
//
// The wrapper consumes and implements core.ContextOrigin, so it drops
// into the warehouse's origin path unchanged; the warehouse's own
// stale-serve degradation (warehouse.GetCtx) then turns the remaining
// failures into marked stale hits whenever a resident copy exists.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"cbfww/internal/core"
)

// ErrOpen is the sentinel matched (errors.Is) by every breaker fast-fail.
// The concrete error is always a *BreakerOpenError carrying the host and
// the remaining cool-down.
var ErrOpen = errors.New("circuit open")

// BreakerOpenError reports a fetch refused because the host's circuit
// breaker is open. RetryAfter is the remaining cool-down — the gateway
// surfaces it as an HTTP Retry-After header.
type BreakerOpenError struct {
	Host       string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("resilience: host %q: %v (retry after %s)", e.Host, ErrOpen, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap lets errors.Is(err, ErrOpen) match.
func (e *BreakerOpenError) Unwrap() error { return ErrOpen }

// statusCoded is implemented by origin errors that carry an HTTP status
// (crawl.StatusError does). Declared here so the two packages need not
// import each other.
type statusCoded interface{ HTTPStatus() int }

// Retryable classifies an origin error: true means another attempt could
// plausibly succeed. The never-retry set: the caller's own context ending
// (ctx), cancellation, not-found / invalid-argument / constraint errors
// (deterministic), an open breaker (retrying defeats its purpose), and
// HTTP 4xx other than 408/429. Timeouts, connection failures, 5xx and
// anything unrecognized are transient until proven otherwise.
func Retryable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	// A timeout reaching us while the caller's ctx is alive (ruled out
	// above) is a per-attempt timeout — transient. This includes bare
	// context.DeadlineExceeded, which an inner per-attempt budget
	// produces and which itself satisfies net.Error.
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	switch {
	case errors.Is(err, context.Canceled):
		return false
	case errors.Is(err, ErrOpen):
		return false
	case errors.Is(err, core.ErrNotFound), errors.Is(err, core.ErrInvalid),
		errors.Is(err, core.ErrExists), errors.Is(err, core.ErrConstraint),
		errors.Is(err, core.ErrClosed):
		return false
	}
	var sc statusCoded
	if errors.As(err, &sc) {
		code := sc.HTTPStatus()
		return code >= 500 || code == 408 || code == 429
	}
	return true
}

// hostFailure classifies an error as evidence of host ill-health for the
// breaker. Deterministic application-level refusals (not-found, invalid)
// mean the host answered, so they reset the failure streak; the breaker's
// own fast-fails are not evidence either way.
func hostFailure(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrOpen):
		return false
	case errors.Is(err, core.ErrNotFound), errors.Is(err, core.ErrInvalid),
		errors.Is(err, core.ErrExists), errors.Is(err, core.ErrConstraint):
		return false
	}
	var sc statusCoded
	if errors.As(err, &sc) && sc.HTTPStatus() < 500 {
		return false
	}
	return true
}

// hostOf extracts the host component used as the breaker key. URLs without
// a scheme key on themselves, so the breaker still partitions sanely when
// handed something unexpected.
func hostOf(url string) string {
	rest, ok := strings.CutPrefix(url, "http://")
	if !ok {
		rest, ok = strings.CutPrefix(url, "https://")
		if !ok {
			rest = url
		}
	}
	host, _, _ := strings.Cut(rest, "/")
	return host
}
