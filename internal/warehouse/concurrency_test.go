package warehouse

// Race-detector workout for the RWMutex split: read-only surfaces (stats,
// search, queries, listings) running concurrently with fetch-through
// admissions, revalidations and maintenance sweeps.

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"cbfww/internal/core"
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
					_ = w.AccessLog()
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
	})
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
