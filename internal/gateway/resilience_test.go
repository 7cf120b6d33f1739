package gateway

// Origin-resilience acceptance tests: the daemon in front of a faulty
// origin must degrade, not die — stale serves for admitted content,
// fast-failing breakers for dead hosts, and retries that measurably lift
// the admission success rate against a flaky origin.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/resilience"
	"cbfww/internal/simweb"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// resilientGateway assembles web → fault origin → resilience wrapper →
// warehouse → gateway, with strong consistency so every hit revalidates
// against the origin.
func resilientGateway(t *testing.T, fcfg simweb.FaultConfig, rcfg resilience.Config) (*Server, *simweb.FaultyOrigin, *resilience.Origin, *workload.GeneratedWeb) {
	t.Helper()
	g := testWeb(t)
	faults := simweb.NewFaultyOrigin(g.Web, fcfg)
	resilient, err := resilience.Wrap(faults, rcfg)
	if err != nil {
		t.Fatalf("resilience.Wrap: %v", err)
	}
	wcfg := warehouse.DefaultConfig()
	wcfg.Consistency = constraint.Consistency{Mode: constraint.Strong}
	wh, err := warehouse.New(wcfg, core.NewSimClock(0), resilient)
	if err != nil {
		t.Fatalf("warehouse.New: %v", err)
	}
	s, err := New(Config{Resilient: resilient}, wh)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	return s, faults, resilient, g
}

// hostOfURL extracts "siteNN.example" from a generated page URL.
func hostOfURL(t *testing.T, url string) string {
	t.Helper()
	rest := url[len("http://"):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			return rest[:i]
		}
	}
	t.Fatalf("no host in %q", url)
	return ""
}

// TestBlackoutDegradesAndBreaks is the acceptance scenario: one simweb
// host goes dark. Resident pages on it keep serving (200 + stale marker),
// unadmitted pages fail fast with 503 + Retry-After once the breaker
// opens (no origin traffic while open), and /stats shows the degradation.
func TestBlackoutDegradesAndBreaks(t *testing.T) {
	s, faults, _, g := resilientGateway(t,
		simweb.FaultConfig{Seed: 3},
		resilience.Config{
			Retry:   resilience.RetryPolicy{MaxAttempts: 1, Seed: 3},
			Breaker: resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Generated URLs are grouped by site; find one host's pages plus a
	// page on a different host.
	resident := g.PageURLs[0]
	deadHost := hostOfURL(t, resident)
	var unadmitted, otherHost string
	for _, u := range g.PageURLs[1:] {
		if hostOfURL(t, u) == deadHost {
			if unadmitted == "" {
				unadmitted = u
			}
		} else if otherHost == "" {
			otherHost = u
		}
	}
	if unadmitted == "" || otherHost == "" {
		t.Fatalf("fixture lacks needed URLs: %v", g.PageURLs)
	}

	// Admit the resident page while the origin is healthy.
	if code := getJSON(t, client, ts.URL+"/fetch?url="+resident, nil); code != http.StatusOK {
		t.Fatalf("admit status = %d", code)
	}

	// Lights out for the whole host.
	faults.Blackout(deadHost, true)

	// Resident page: 200, marked stale, on every request.
	for i := 0; i < 3; i++ {
		resp, err := client.Get(ts.URL + "/fetch?url=" + resident)
		if err != nil {
			t.Fatalf("degraded fetch: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded fetch status = %d, want 200", resp.StatusCode)
		}
		if resp.Header.Get("X-CBFWW-Stale") != "1" {
			t.Fatalf("degraded fetch missing X-CBFWW-Stale header (request %d)", i)
		}
	}

	// The three revalidation failures above already tripped the breaker
	// (threshold 2). An unadmitted page on the dead host now fails fast:
	// 503 + Retry-After, with zero traffic reaching the origin.
	before := faults.Stats()
	resp, err := client.Get(ts.URL + "/fetch?url=" + unadmitted)
	if err != nil {
		t.Fatalf("unadmitted fetch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unadmitted fetch status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 without a usable Retry-After (%q)", ra)
	}
	if after := faults.Stats(); after.BlackoutRefusals != before.BlackoutRefusals {
		t.Fatalf("open breaker let traffic through: %+v -> %+v", before, after)
	}

	// Other hosts are unaffected.
	if code := getJSON(t, client, ts.URL+"/fetch?url="+otherHost, nil); code != http.StatusOK {
		t.Fatalf("other-host fetch status = %d, want 200", code)
	}

	// /stats tells the story: stale serves and breaker opens both nonzero.
	var stats StatsResponse
	if code := getJSON(t, client, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Resilience.StaleServes == 0 {
		t.Errorf("stats stale_serves = 0, want nonzero")
	}
	if stats.Resilience.BreakerOpens == 0 {
		t.Errorf("stats breaker_opens = 0, want nonzero")
	}
	if stats.Resilience.BreakerFastFails == 0 {
		t.Errorf("stats breaker_fast_fails = 0, want nonzero")
	}
	if stats.Resilience.OpenHosts != 1 {
		t.Errorf("stats open_hosts = %d, want 1", stats.Resilience.OpenHosts)
	}
	if faults.Stats().BlackoutRefusals == 0 {
		t.Errorf("fault origin counted no blackout refusals")
	}

	// Recovery is possible: lift the blackout. The breaker stays open
	// (cool-down is an hour), but the resident page still serves.
	faults.Blackout(deadHost, false)
	resp, err = client.Get(ts.URL + "/fetch?url=" + resident)
	if err != nil {
		t.Fatalf("post-blackout fetch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-blackout fetch status = %d", resp.StatusCode)
	}
}

// admissionRate drives every generated URL through a fresh daemon whose
// origin errors at the given rate, and returns how many admissions
// succeeded.
func admissionRate(t *testing.T, attempts int) int {
	t.Helper()
	s, _, _, g := resilientGateway(t,
		simweb.FaultConfig{Seed: 99, ErrorRate: 0.3},
		resilience.Config{
			Retry: resilience.RetryPolicy{
				MaxAttempts: attempts,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  4 * time.Millisecond,
				Seed:        99,
			},
			// Breaker off: this test isolates the retry effect.
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	ok := 0
	for _, u := range g.PageURLs {
		if code := getJSON(t, client, ts.URL+"/fetch?url="+u, nil); code == http.StatusOK {
			ok++
		}
	}
	return ok
}

// TestRetriesLiftAdmissionRate: against a 30%-error origin, enabling
// retries must admit strictly more pages than going without.
func TestRetriesLiftAdmissionRate(t *testing.T) {
	without := admissionRate(t, 1)
	with := admissionRate(t, 4)
	total := 4 * 12 // testWeb geometry
	t.Logf("admission success: %d/%d without retries, %d/%d with", without, total, with, total)
	if with <= without {
		t.Fatalf("retries did not lift admission rate: %d (with) <= %d (without)", with, without)
	}
	// Sanity: the flaky origin actually bit the no-retry run.
	if without == total {
		t.Fatal("no-retry run saw no faults; error injection broken")
	}
}
