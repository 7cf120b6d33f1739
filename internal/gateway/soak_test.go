package gateway

// Soak test: the daemon under sustained concurrent load from many clients
// while the origin injects faults and suffers a host blackout mid-run. The
// point is not any single response but that the whole stack — mux, fetch
// pool, cold flights, lock-striped warehouse, resilience wrapper — stays
// consistent and race-clean under fire (run with -race). Synchronization
// is entirely WaitGroup/channel based: phases are separated by joining the
// workers, never by sleeping.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/resilience"
	"cbfww/internal/simweb"
	"cbfww/internal/warehouse"
)

func TestSoakFaultyOriginUnderConcurrentLoad(t *testing.T) {
	const (
		workers   = 8
		reqsPhase = 40
		errorRate = 0.15
		whShards  = 8
	)
	g := testWeb(t)
	faults := simweb.NewFaultyOrigin(g.Web, simweb.FaultConfig{Seed: 11, ErrorRate: errorRate})
	resilient, err := resilience.Wrap(faults, resilience.Config{
		Retry:   resilience.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		Breaker: resilience.BreakerConfig{Threshold: 50, Cooldown: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	whCfg := warehouse.DefaultConfig()
	whCfg.Shards = whShards
	wh, err := warehouse.New(whCfg, core.NewSimClock(0), resilient)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Addr: "127.0.0.1:0", Resilient: resilient}, wh)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 30 * time.Second}

	// phase joins `workers` goroutines each issuing reqsPhase seeded mixed
	// requests. Any HTTP status is legal under fault injection; what is not
	// legal is a transport failure, an unreadable body, or a 200 /fetch
	// whose payload names the wrong URL.
	phase := func(t *testing.T, phaseNo int) {
		t.Helper()
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(phaseNo*1000 + wk)))
				for i := 0; i < reqsPhase; i++ {
					target := g.PageURLs[rng.Intn(len(g.PageURLs))]
					var (
						resp *http.Response
						err  error
						kind = rng.Intn(10)
					)
					switch {
					case kind < 7:
						resp, err = client.Get(base + "/fetch?url=" + url.QueryEscape(target) + fmt.Sprintf("&user=soak-%d", wk))
					case kind < 8:
						resp, err = client.Get(base + "/search?q=the+page&n=5")
					case kind < 9:
						resp, err = client.Get(base + fmt.Sprintf("/recommend?user=soak-%d&n=5", wk))
					default:
						resp, err = client.Get(base + "/stats")
					}
					if err != nil {
						errs <- fmt.Errorf("worker %d: %v", wk, err)
						return
					}
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil {
						errs <- fmt.Errorf("worker %d: read body: %v", wk, rerr)
						return
					}
					if kind < 7 && resp.StatusCode == http.StatusOK {
						var fr FetchResponse
						if err := json.Unmarshal(body, &fr); err != nil {
							errs <- fmt.Errorf("worker %d: bad /fetch payload: %v", wk, err)
							return
						}
						if fr.URL != target {
							errs <- fmt.Errorf("worker %d: asked %s, got %s", wk, target, fr.URL)
							return
						}
					}
				}
			}(wk)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	phase(t, 1)
	// Black out one origin host: its pages now only serve from the
	// warehouse (stale) or fail; everything else must keep flowing.
	host := strings.TrimPrefix(g.PageURLs[0], "http://")
	host = host[:strings.Index(host, "/")]
	faults.Blackout(host, true)
	phase(t, 2)
	faults.Blackout(host, false)
	phase(t, 3)

	// The daemon must still report a coherent, fully-populated view.
	var st StatsResponse
	if code := getJSON(t, client, base+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats returned %d after soak", code)
	}
	if st.Gateway.Shards != whShards {
		t.Errorf("stats shards = %d, want %d", st.Gateway.Shards, whShards)
	}
	if len(st.Shards) != whShards {
		t.Fatalf("stats has %d shard snapshots, want %d", len(st.Shards), whShards)
	}
	sum := 0
	for _, ss := range st.Shards {
		sum += ss.Requests
	}
	if sum != st.Warehouse.Requests {
		t.Errorf("per-shard requests sum %d != warehouse total %d", sum, st.Warehouse.Requests)
	}
	if st.Warehouse.Requests == 0 {
		t.Error("soak produced no warehouse requests")
	}
	if faults.Stats() == (simweb.FaultStats{}) {
		t.Error("fault origin injected nothing — soak not exercising faults")
	}
}
