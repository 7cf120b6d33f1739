package warehouse

import (
	"context"
	"time"
)

// fetchPool bounds how many cold misses fetch at once, a counting
// semaphore sized at installation, and how long each trip to the origin
// may take. Only the request that sends a cold URL's first fetch takes a
// slot, after the flight is registered, so the requests waiting for that
// fetch hold none and a miss storm costs one slot. Acquisition is
// context-aware, so a fetch whose deadline expires while queued behind a
// saturated pool fails fast instead of fetching for a client that
// already gave up.
type fetchPool struct {
	sem    chan struct{}
	budget time.Duration // of each origin trip; unbounded unless positive
}

// SetFetchWorkers bounds how many cold misses fetch at once to n (at
// least 1), and each trip to the origin to budget (none when budget is
// not positive): a cold miss's pool wait, peer probe and GET together,
// and a resident page's revalidation HEAD and GET together. A hit makes
// no trip and arms no timer. Without a pool, fetches are unbounded in
// number and time but for their callers' contexts. Safe to call
// concurrently with requests: a fetch gives its slot back to the pool it
// took it from.
func (w *Warehouse) SetFetchWorkers(n int, budget time.Duration) {
	w.pool.Store(&fetchPool{sem: make(chan struct{}, max(n, 1)), budget: budget})
}

// FetchWorkers reports the fetch pool: how many slots are held and how
// many there are, both 0 when no pool is installed.
func (w *Warehouse) FetchWorkers() (inflight, workers int) {
	if p := w.pool.Load(); p != nil {
		return len(p.sem), cap(p.sem)
	}
	return 0, 0
}

// trip is the context of one trip to the origin: ctx's deadline, cut at
// p's budget, without ctx's cancellation, since the requests waiting for
// the trip share it. p may be nil (no pool).
func (p *fetchPool) trip(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if p != nil && p.budget > 0 {
		if b := time.Now().Add(p.budget); !ok || b.Before(dl) {
			dl, ok = b, true
		}
	}
	if ctx = context.WithoutCancel(ctx); !ok {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, dl)
}
