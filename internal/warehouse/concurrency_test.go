package warehouse

// Race-detector workout for the RWMutex split: read-only surfaces (stats,
// search, queries, listings) running concurrently with fetch-through
// admissions, revalidations and maintenance sweeps.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
	"cbfww/internal/workload"
)

func newConcurrencyWarehouse(t *testing.T, s stack) (*Warehouse, *workload.GeneratedWeb) {
	t.Helper()
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite, wcfg.Seed = 4, 10, 11
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		t.Fatalf("GenerateWeb: %v", err)
	}
	w := s.open(t, DefaultConfig(), clock, g.Web)
	return w, g
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g := newConcurrencyWarehouse(t, s)
		urls := g.PageURLs

		var wg sync.WaitGroup
		// Writers: fetch-through traffic over overlapping URL ranges.
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 30; j++ {
					url := urls[(i*7+j)%len(urls)]
					if _, err := w.Get("user", url); err != nil {
						t.Errorf("Get %s: %v", url, err)
						return
					}
				}
			}(i)
		}
		// Readers: every non-mutating surface, concurrently.
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 30; j++ {
					_ = w.Stats()
					_ = w.ResidentPages()
					_ = w.Pages()
					_ = w.Search("page", 5)
					_ = w.Resident(urls[j%len(urls)])
					_ = w.Recommend("user", 3)
					_ = w.RecommendPages("user", 3)
					if _, err := w.Query(`SELECT MFU 3 p.url FROM Physical_Page p`); err != nil {
						t.Errorf("Query: %v", err)
						return
					}
				}
			}()
		}
		// One maintenance loop racing both.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := w.Maintain(); err != nil {
					t.Errorf("Maintain: %v", err)
					return
				}
			}
		}()
		wg.Wait()

		if got := w.Stats().Requests; got == 0 {
			t.Fatal("no requests recorded")
		}
		noFlights(t, w)
	})
}

// noFlights fails t unless every shard's flights map is empty, as it is
// whenever no request is in flight.
func noFlights(t *testing.T, w *Warehouse) {
	t.Helper()
	for i, sh := range w.shards {
		sh.mu.RLock()
		n := len(sh.flights)
		sh.mu.RUnlock()
		if n != 0 {
			t.Errorf("shard %d holds %d flights with no request in flight", i, n)
		}
	}
}

// TestResizeRacesGetBody oscillates the memory tier's capacity while
// readers stream bodies through GetBodyCtx: a page mid-migration must be
// served from whichever tier still holds it — full bytes, never a short
// read — and the storage invariants must hold when the dust settles.
func TestResizeRacesGetBody(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g := newConcurrencyWarehouse(t, s)
		urls := g.PageURLs

		// Warm every page in and record the authoritative bodies.
		bodies := make(map[string]string, len(urls))
		for _, url := range urls {
			res, err := w.Get("user", url)
			if err != nil {
				t.Fatalf("warm-up Get %s: %v", url, err)
			}
			bodies[url] = res.Page.Body
		}
		mgr := w.StorageManager()
		memCap := storage.DefaultConfig().Tiers[0].Capacity

		var wg sync.WaitGroup
		done := make(chan struct{})
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-done:
						return
					default:
					}
					url := urls[(i*5+j)%len(urls)]
					_, bs, err := w.GetBodyCtx(context.Background(), "user", url)
					if err != nil {
						t.Errorf("GetBodyCtx %s: %v", url, err)
						return
					}
					data, err := io.ReadAll(bs)
					bs.Close()
					if err != nil {
						t.Errorf("read %s: %v", url, err)
						return
					}
					if string(data) != bodies[url] {
						t.Errorf("%s: streamed %d bytes, want %d", url, len(data), len(bodies[url]))
						return
					}
				}
			}(i)
		}
		// Oscillate: a tiny memory tier demotes nearly every page; restoring
		// the default re-promotes them — migrations in both directions.
		for i := 0; i < 40; i++ {
			target := core.Bytes(8 * core.KB)
			if i%2 == 0 {
				target = memCap
			}
			if err := mgr.ResizeTiers(map[string]core.Bytes{"memory": target}); err != nil {
				t.Fatalf("ResizeTiers: %v", err)
			}
		}
		close(done)
		wg.Wait()
		if err := mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGetCtxCancelledBeforeFetch(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g := newConcurrencyWarehouse(t, s)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := w.GetCtx(ctx, "user", g.PageURLs[0]); err == nil {
			t.Fatal("GetCtx with cancelled context admitted a cold URL")
		}
		if w.Resident(g.PageURLs[0]) {
			t.Fatal("cancelled fetch still admitted the page")
		}

		// A resident page serves fine even under an expired deadline: the
		// warehouse's whole point is that cached content needs no origin.
		if _, err := w.Get("user", g.PageURLs[0]); err != nil {
			t.Fatalf("warm-up Get: %v", err)
		}
		expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel2()
		res, err := w.GetCtx(expired, "user", g.PageURLs[0])
		if err != nil {
			t.Fatalf("resident GetCtx under expired deadline: %v", err)
		}
		if !res.Hit {
			t.Fatal("resident page not served as hit")
		}
	})
}

// probeOrigin serves a simulated web, counts HEADs and GETs, fails HEADs
// while headDown is set, reports every page at version 1 while restarted
// is set (an origin that counts afresh), and runs hook (set before the
// requests it watches) at the start of every origin call.
type probeOrigin struct {
	web         *simweb.Web
	heads, gets atomic.Int32
	headDown    atomic.Bool
	restarted   atomic.Bool
	hook        func(method, url string)
}

func (o *probeOrigin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	if err := ctx.Err(); err != nil {
		return core.FetchResult{}, err
	}
	o.gets.Add(1)
	if o.hook != nil {
		o.hook("GET", url)
	}
	fr, err := o.web.FetchCtx(ctx, url)
	if o.restarted.Load() {
		fr.Page.Version = 1
	}
	return fr, err
}

func (o *probeOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	o.heads.Add(1)
	if o.hook != nil {
		o.hook("HEAD", url)
	}
	if o.headDown.Load() {
		return 0, 0, errOriginDown
	}
	ver, lastMod, err := o.web.HeadCtx(ctx, url)
	if o.restarted.Load() {
		ver = 1
	}
	return ver, lastMod, err
}

// probeRig is a weak-consistency warehouse over n small pages behind a
// probeOrigin, with the first page admitted.
type probeRig struct {
	w      *Warehouse
	origin *probeOrigin
	web    *simweb.Web
	clock  *core.SimClock
	urls   []string
}

func newProbeRig(t *testing.T, s stack, shards, n int) *probeRig {
	t.Helper()
	clock := core.NewSimClock(0)
	web := simweb.NewWeb(clock)
	web.AddSite("s.example", 30)
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://s.example/p%d", i)
		page := &core.Page{URL: urls[i], Title: "probe page", Body: fmt.Sprintf("resident body %d", i), Size: core.KB}
		if err := web.AddPage(page); err != nil {
			t.Fatal(err)
		}
	}
	r := &probeRig{origin: &probeOrigin{web: web}, web: web, clock: clock, urls: urls}
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.Storage.Tiers = storage.ClassicTiers(256*core.KB, 32*core.MB)
	r.w = s.open(t, cfg, clock, r.origin)
	if _, err := r.w.Get("u", urls[0]); err != nil {
		t.Fatal(err)
	}
	return r
}

// stale makes url due for revalidation under weak consistency.
func (r *probeRig) stale() { r.clock.Advance(1_000_000) }

// update gives url a new version at the origin.
func (r *probeRig) update(t *testing.T, url string) {
	t.Helper()
	if err := r.web.Update(url, "changed terms"); err != nil {
		t.Fatal(err)
	}
}

// loseBody drops every tier without recovery: the admitted body is gone.
func (r *probeRig) loseBody(t *testing.T) {
	t.Helper()
	for _, tier := range []storage.Tier{storage.Memory, storage.Disk, storage.Tertiary} {
		if err := r.w.StorageManager().DropTier(tier); err != nil {
			t.Fatal(err)
		}
	}
}

// No origin call runs under a stripe lock: every HEAD and GET finds the
// URL's stripe free, whichever path of a resident page sends it.
func TestOriginCallsHoldNoShardLock(t *testing.T) {
	cases := []struct {
		name        string
		prepare     func(t *testing.T, r *probeRig, url string)
		refresh     bool
		heads, gets int32
	}{
		{name: "revalidate-unchanged", heads: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { r.stale() }},
		{name: "revalidate-new-version", heads: 1, gets: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { r.update(t, url); r.stale() }},
		{name: "refresh", refresh: true, gets: 1,
			prepare: func(t *testing.T, r *probeRig, url string) {}},
		{name: "lost-body", gets: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { r.loseBody(t) }},
		{name: "head-failure-stale", heads: 1,
			prepare: func(t *testing.T, r *probeRig, url string) { r.origin.headDown.Store(true); r.stale() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachStack(t, func(t *testing.T, s stack) {
				r := newProbeRig(t, s, 2, 1)
				url := r.urls[0]
				tc.prepare(t, r, url)
				r.origin.heads.Store(0)
				r.origin.gets.Store(0)
				r.origin.hook = func(method, url string) {
					sh := r.w.shardOf(url)
					if !sh.mu.TryLock() {
						t.Errorf("%s %s: origin called under the stripe lock", method, url)
						return
					}
					sh.mu.Unlock()
				}
				var err error
				if tc.refresh {
					_, err = r.w.Refresh(context.Background(), url)
				} else {
					_, err = r.w.Get("u", url)
				}
				if err != nil {
					t.Fatal(err)
				}
				if h, g := r.origin.heads.Load(), r.origin.gets.Load(); h != tc.heads || g != tc.gets {
					t.Errorf("origin saw %d HEADs, %d GETs; want %d, %d", h, g, tc.heads, tc.gets)
				}
			})
		})
	}
}

// One revalidation flies per stale page: concurrent requests for it wait
// for its origin calls instead of repeating them, while the rest of the
// stripe keeps serving, and a waiter whose context is done gives up.
func TestOneFlightPerStalePage(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		r := newProbeRig(t, s, 2, 16)
		stale, other := r.urls[0], ""
		for _, u := range r.urls[1:] {
			if ShardIndex(u, r.w.NumShards()) == ShardIndex(stale, r.w.NumShards()) {
				other = u
				break
			}
		}
		if other == "" {
			t.Fatal("no second URL on the stale page's stripe")
		}
		r.stale()
		r.update(t, stale)
		if _, err := r.w.Get("u", other); err != nil { // admitted now: fresh
			t.Fatal(err)
		}

		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		r.origin.hook = func(method, url string) {
			if method == "HEAD" && url == stale {
				once.Do(func() { close(entered) })
				<-release
			}
		}
		r.origin.heads.Store(0)
		r.origin.gets.Store(0)

		const n = 8
		results := make([]GetResult, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = r.w.Get("u", stale)
			}(i)
		}
		<-entered

		// Each side request reports on a buffered channel, so a timed-out
		// one still finishes once the HEAD is released.
		var side sync.WaitGroup
		side.Add(2)
		hit := make(chan error, 1)
		go func() {
			defer side.Done()
			res, err := r.w.Get("u", other)
			if err == nil && !res.Hit {
				err = fmt.Errorf("served %+v, want a hit", res)
			}
			hit <- err
		}()
		select {
		case err := <-hit:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Error("a hit on the same stripe waited behind the blocked HEAD")
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		waiter := make(chan error, 1)
		go func() {
			defer side.Done()
			_, err := r.w.GetCtx(ctx, "u", stale)
			waiter <- err
		}()
		select {
		case err := <-waiter:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled waiter got %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("a cancelled waiter waited for the flight")
		}

		close(release)
		wg.Wait()
		side.Wait()
		if h, g := r.origin.heads.Load(), r.origin.gets.Load(); h != 1 || g != 1 {
			t.Errorf("%d requests for one stale page sent %d HEADs and %d GETs, want 1 and 1", n, h, g)
		}
		for i := range results {
			if errs[i] != nil {
				t.Fatalf("request %d: %v", i, errs[i])
			}
			if results[i].Page.Version != 2 || !strings.Contains(results[i].Page.Body, "changed terms") {
				t.Errorf("request %d served version %d", i, results[i].Page.Version)
			}
		}
	})
}

// gatedOrigin serves a simulated web whose GETs announce their start on
// started, then block until gate is closed or their context ends.
type gatedOrigin struct {
	web     *simweb.Web
	gate    chan struct{}
	started chan struct{}
	gets    atomic.Int32
}

func (o *gatedOrigin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	o.gets.Add(1)
	o.started <- struct{}{}
	select {
	case <-o.gate:
		return o.web.FetchCtx(ctx, url)
	case <-ctx.Done():
		return core.FetchResult{}, ctx.Err()
	}
}

func (o *gatedOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	return o.web.HeadCtx(ctx, url)
}

// One first fetch flies per cold page: concurrent requests for it wait
// for that fetch instead of repeating it, then are served the kept copy; a
// failed fetch fails them all; a miss after the flight fetches afresh; a
// waiter whose context ends gives up alone; and a sender whose context is
// cancelled still completes the fetch, within its deadline or the fetch
// pool's budget, for the requests waiting on it.
func TestOneFlightPerColdPage(t *testing.T) {
	const cold, missing = "http://s.example/cold", "http://s.example/missing"
	rig := func(t *testing.T, s stack) (*Warehouse, *gatedOrigin) {
		clock := core.NewSimClock(0)
		web := simweb.NewWeb(clock)
		web.AddSite("s.example", 30)
		if err := web.AddPage(&core.Page{URL: cold, Title: "cold page", Body: "cold body", Size: core.KB}); err != nil {
			t.Fatal(err)
		}
		origin := &gatedOrigin{web: web, gate: make(chan struct{}), started: make(chan struct{}, 64)}
		cfg := DefaultConfig()
		cfg.Storage.Tiers = storage.ClassicTiers(256*core.KB, 32*core.MB)
		return s.open(t, cfg, clock, origin), origin
	}
	type answer struct {
		res GetResult
		err error
	}
	// send sends n requests for url under ctx.
	send := func(w *Warehouse, ctx context.Context, url string, n int) chan answer {
		out := make(chan answer, n)
		for i := 0; i < n; i++ {
			go func() {
				res, err := w.GetCtx(ctx, "u", url)
				out <- answer{res, err}
			}()
		}
		return out
	}
	// started waits for a fetch to reach the origin.
	started := func(t *testing.T, o *gatedOrigin) {
		select {
		case <-o.started:
		case <-time.After(10 * time.Second):
			t.Fatal("no fetch reached the origin")
		}
	}
	// waiting waits until n requests wait for a fetch.
	waiting := func(t *testing.T, w *Warehouse, n int) {
		deadline := time.Now().Add(10 * time.Second)
		for w.Stats().Coalesced < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d requests wait for the fetch", w.Stats().Coalesced, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// storm sends n requests for url and waits until one fetch is at the
	// origin and the other n-1 requests wait for it.
	storm := func(t *testing.T, w *Warehouse, o *gatedOrigin, url string, n int) chan answer {
		out := send(w, context.Background(), url, n)
		started(t, o)
		waiting(t, w, n-1)
		return out
	}

	eachStack(t, func(t *testing.T, s stack) {
		t.Run("coalesces", func(t *testing.T) {
			w, o := rig(t, s)
			const n = 16
			answers := storm(t, w, o, cold, n)
			close(o.gate)
			coalesced := 0
			for i := 0; i < n; i++ {
				a := <-answers
				if a.err != nil {
					t.Fatal(a.err)
				}
				if a.res.Page.Body != "cold body" {
					t.Errorf("served body %q", a.res.Page.Body)
				}
				if a.res.Coalesced {
					coalesced++
				} else if a.res.Source != sourceOrigin {
					t.Errorf("the sender was served from %q, want origin", a.res.Source)
				}
			}
			st := w.Stats()
			if g := o.gets.Load(); g != 1 || st.OriginFetches != 1 {
				t.Errorf("%d requests sent %d GETs, counted %d origin fetches; want 1", n, g, st.OriginFetches)
			}
			if coalesced != n-1 || st.Coalesced != n-1 || st.Requests != n || st.Hits != n-1 {
				t.Errorf("%d results coalesced, stats %+v; want %d coalesced, served as hits", coalesced, st, n-1)
			}
		})
		t.Run("sequential misses fetch separately", func(t *testing.T) {
			w, o := rig(t, s)
			close(o.gate)
			for i := 0; i < 3; i++ {
				if _, err := w.Get("u", missing); !errors.Is(err, core.ErrNotFound) {
					t.Fatalf("miss %d: %v, want not found", i, err)
				}
			}
			if g, c := o.gets.Load(), w.Stats().Coalesced; g != 3 || c != 0 {
				t.Errorf("3 sequential misses sent %d GETs, %d coalesced; want 3 and 0", g, c)
			}
		})
		t.Run("the error is shared", func(t *testing.T) {
			w, o := rig(t, s)
			answers := storm(t, w, o, missing, 4)
			close(o.gate)
			for i := 0; i < 4; i++ {
				if a := <-answers; !errors.Is(a.err, core.ErrNotFound) {
					t.Errorf("request got %v, want the fetch's not found", a.err)
				}
			}
			if g := o.gets.Load(); g != 1 {
				t.Errorf("4 requests sent %d GETs, want 1", g)
			}
		})
		t.Run("a waiter honours its own context", func(t *testing.T) {
			w, o := rig(t, s)
			answers := storm(t, w, o, cold, 1)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			waiter := make(chan error, 1)
			go func() {
				_, err := w.GetCtx(ctx, "u", cold)
				waiter <- err
			}()
			select {
			case err := <-waiter:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled waiter got %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("a cancelled waiter waited for the flight")
			}
			close(o.gate)
			if a := <-answers; a.err != nil {
				t.Fatal(a.err)
			}
		})
		t.Run("a cancelled sender fetches for its waiters", func(t *testing.T) {
			w, o := rig(t, s)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			sender := send(w, ctx, cold, 1)
			started(t, o)
			waiters := send(w, context.Background(), cold, 4)
			waiting(t, w, 4)
			cancel()
			time.Sleep(50 * time.Millisecond) // a fetch that heeded the cancel would end now
			close(o.gate)
			if a := <-sender; a.err != nil {
				t.Errorf("cancelled sender: %v", a.err)
			}
			for i := 0; i < 4; i++ {
				if a := <-waiters; a.err != nil || !a.res.Coalesced {
					t.Errorf("waiter got coalesced %v, %v; want the page, coalesced", a.res.Coalesced, a.err)
				}
			}
			if g := o.gets.Load(); g != 1 || !w.Resident(cold) {
				t.Errorf("sent %d GETs, resident %v; want 1 and the page kept", g, w.Resident(cold))
			}
		})
		t.Run("a sender keeps its deadline", func(t *testing.T) {
			w, o := rig(t, s)
			defer close(o.gate)
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			sender := send(w, ctx, cold, 1)
			started(t, o)
			waiter := send(w, context.Background(), cold, 1)
			waiting(t, w, 1)
			if a := <-waiter; !errors.Is(a.err, context.DeadlineExceeded) {
				t.Errorf("waiter got %v, want the sender's deadline", a.err)
			}
			if a := <-sender; !errors.Is(a.err, context.DeadlineExceeded) {
				t.Errorf("sender got %v, want its deadline", a.err)
			}
		})
		t.Run("the pool's budget ends a hung flight", func(t *testing.T) {
			w, o := rig(t, s)
			defer close(o.gate)
			w.SetFetchWorkers(4, 300*time.Millisecond)
			answers := storm(t, w, o, cold, 4) // no deadline of their own
			for i := 0; i < 4; i++ {
				if a := <-answers; !errors.Is(a.err, context.DeadlineExceeded) {
					t.Errorf("request got %v, want the budget's deadline", a.err)
				}
			}
		})
	})
}

// A revalidation whose sender hangs up mid-HEAD still completes for the
// requests waiting on it: the origin sees one HEAD and one GET, and every
// waiter is served the new version, fresh.
func TestCancelledSenderRevalidatesForWaiters(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		r := newProbeRig(t, s, 2, 1)
		url := r.urls[0]
		r.update(t, url)
		r.stale()
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		r.origin.hook = func(method, _ string) {
			if method == "HEAD" {
				once.Do(func() { close(entered) })
				<-release
			}
		}
		r.origin.heads.Store(0)
		r.origin.gets.Store(0)

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sender := make(chan error, 1)
		go func() {
			_, err := r.w.GetCtx(ctx, "u", url)
			sender <- err
		}()
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("no HEAD reached the origin")
		}
		// Each waiter takes the stripe lock once, finds the flight and
		// waits for it.
		sh := r.w.shardOf(url)
		acquired := sh.lockAcquires.Load()
		const n = 4
		results, errs := make([]GetResult, n), make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = r.w.Get("u", url)
			}(i)
		}
		for deadline := time.Now().Add(10 * time.Second); sh.lockAcquires.Load() < acquired+n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the waiters never reached the flight")
			}
		}
		cancel()
		close(release)
		wg.Wait()
		if err := <-sender; err != nil {
			t.Errorf("cancelled sender: %v", err)
		}
		if h, g := r.origin.heads.Load(), r.origin.gets.Load(); h != 1 || g != 1 {
			t.Errorf("a cancelled sender and %d waiters sent %d HEADs and %d GETs, want 1 and 1", n, h, g)
		}
		for i := range results {
			if errs[i] != nil {
				t.Fatalf("waiter %d: %v", i, errs[i])
			}
			if got := results[i]; got.Page.Version != 2 || got.Stale {
				t.Errorf("waiter %d served version %d, stale %v; want 2, fresh", i, got.Page.Version, got.Stale)
			}
		}
		noFlights(t, r.w)
	})
}

// A replica push that lands while a cold URL's first fetch is out is what
// the fetch's sender and every request waiting on it are served; the
// origin sees one GET.
func TestReplicaPushDuringColdFetch(t *testing.T) {
	const url = "http://s.example/cold"
	eachStack(t, func(t *testing.T, s stack) {
		clock := core.NewSimClock(0)
		web := simweb.NewWeb(clock)
		web.AddSite("s.example", 30)
		if err := web.AddPage(&core.Page{URL: url, Title: "cold page", Body: "cold body", Size: core.KB}); err != nil {
			t.Fatal(err)
		}
		o := &gatedOrigin{web: web, gate: make(chan struct{}), started: make(chan struct{}, 64)}
		cfg := DefaultConfig()
		cfg.Storage.Tiers = storage.ClassicTiers(256*core.KB, 32*core.MB)
		w := s.open(t, cfg, clock, o)

		const n = 4
		type answer struct {
			res GetResult
			err error
		}
		answers := make(chan answer, n)
		for i := 0; i < n; i++ {
			go func() {
				res, err := w.Get("u", url)
				answers <- answer{res, err}
			}()
		}
		select {
		case <-o.started:
		case <-time.After(10 * time.Second):
			t.Fatal("no fetch reached the origin")
		}
		for deadline := time.Now().Add(10 * time.Second); w.Stats().Coalesced < n-1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d requests wait for the fetch", w.Stats().Coalesced, n-1)
			}
		}
		pushed := core.Page{URL: url, Title: "cold page", Body: "pushed body", Size: core.KB, Version: 5}
		if took, err := w.AdmitReplica(url, core.FetchResult{Page: pushed}); err != nil || !took {
			t.Fatalf("AdmitReplica = (%v, %v), want taken", took, err)
		}
		close(o.gate)
		for i := 0; i < n; i++ {
			a := <-answers
			if a.err != nil {
				t.Fatal(a.err)
			}
			if a.res.Page.Version != 5 || a.res.Page.Body != "pushed body" {
				t.Errorf("served version %d, body %q; want the pushed v5", a.res.Page.Version, a.res.Page.Body)
			}
		}
		if g := o.gets.Load(); g != 1 {
			t.Errorf("%d requests sent %d GETs, want 1", n, g)
		}
		noFlights(t, w)
	})
}
