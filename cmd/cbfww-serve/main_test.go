package main

// Smoke test: bring the daemon up on an ephemeral port, hit /healthz and
// one /fetch over a real socket, and shut down cleanly.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cbfww/internal/core"
)

func TestServeSmoke(t *testing.T) {
	d, err := build(options{
		addr:         "127.0.0.1:0",
		sites:        3,
		pages:        8,
		seed:         1,
		workers:      4,
		fetchTimeout: 5 * time.Second,
		// maintainEvery 0: no background sweeps during the smoke test.
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := d.start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + d.srv.Addr()
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var hz struct {
		Status string   `json:"status"`
		Detail []string `json:"detail"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz decode: %v (%q)", err, body)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || len(hz.Detail) != 0 {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	if len(d.urls) == 0 {
		t.Fatal("daemon over built-in web reported no sample URLs")
	}
	resp, err = client.Get(base + "/fetch?url=" + d.urls[0])
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch = %d (%s)", resp.StatusCode, body)
	}
	var fr struct {
		URL    string `json:"url"`
		Title  string `json:"title"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("fetch decode: %v (%q)", err, body)
	}
	if fr.URL != d.urls[0] || fr.Source != "origin" || fr.Title == "" {
		t.Fatalf("fetch payload implausible: %+v", fr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := (&http.Client{Timeout: time.Second}).Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}

// TestServeFaultSmoke brings up the daemon against its own fault-injecting
// origin and checks that retries absorb the faults and /stats reports the
// resilience counters.
func TestServeFaultSmoke(t *testing.T) {
	d, err := build(options{
		addr:             "127.0.0.1:0",
		sites:            3,
		pages:            8,
		seed:             11,
		workers:          4,
		fetchTimeout:     5 * time.Second,
		retry:            4,
		breakerThreshold: 0, // breaker off: every URL should eventually land
		faultRate:        0.3,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := d.start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + d.srv.Addr()
	client := &http.Client{Timeout: 10 * time.Second}

	ok := 0
	for _, u := range d.urls {
		resp, err := client.Get(base + "/fetch?url=" + u)
		if err != nil {
			t.Fatalf("fetch %s: %v", u, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			ok++
		}
	}
	// 30% per-attempt error rate with 4 attempts: per-URL failure odds are
	// under 1%; most of the 24 URLs must land.
	if ok < len(d.urls)/2 {
		t.Fatalf("only %d/%d fetches succeeded against faulty origin with retries", ok, len(d.urls))
	}

	resp, err := client.Get(base + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Resilience struct {
			Retries         uint64 `json:"retries"`
			FaultInjections uint64 `json:"fault_injections"`
		} `json:"resilience"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats decode: %v (%q)", err, body)
	}
	if stats.Resilience.FaultInjections == 0 {
		t.Error("stats fault_injections = 0 with fault rate 0.3")
	}
	if stats.Resilience.Retries == 0 {
		t.Error("stats retries = 0 with faults injected and retry 4")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeMaintenanceLoop(t *testing.T) {
	d, err := build(options{
		addr: "127.0.0.1:0", sites: 2, pages: 4, seed: 2,
		maintainEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	d.sweepSignal = make(chan struct{}, 4)
	if err := d.start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Synchronize on actual sweeps instead of sleeping a guessed interval.
	for i := 0; i < 2; i++ {
		select {
		case <-d.sweepSignal:
		case <-time.After(10 * time.Second):
			t.Fatal("maintenance loop never swept")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Shutdown is idempotent enough to not hang when called with the loop
	// already stopped.
	if d.stopMaintain != nil {
		t.Fatal("maintenance loop not cleared after shutdown")
	}
}

// TestServeMmapTierAndMemPressure brings the daemon up on the four-tier
// stack (-mmap-tier) with an impossible heap budget (-mem-pressure 1):
// the pressure loop must shrink the memory tier to its floor, the /stats
// storage section must show all four tiers, and /admin/resize must
// retarget the warm tier live.
func TestServeMmapTierAndMemPressure(t *testing.T) {
	d, err := build(options{
		addr:          "127.0.0.1:0",
		sites:         2,
		pages:         6,
		seed:          3,
		workers:       4,
		dataDir:       t.TempDir(),
		fetchTimeout:  5 * time.Second,
		admin:         true,
		mmapTier:      1 << 20,
		memPressure:   1, // 1-byte budget: any Go heap is over it
		pressureEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	d.pressureSignal = make(chan struct{}, 4)
	if err := d.start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + d.srv.Addr()
	client := &http.Client{Timeout: 10 * time.Second}

	// Admit something so the stack is live, then wait for a pressure tick.
	resp, err := client.Get(base + "/fetch?url=" + d.urls[0])
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-d.pressureSignal:
		case <-time.After(10 * time.Second):
			t.Fatal("pressure loop never sampled")
		}
	}

	var stats struct {
		Storage []struct {
			Name     string `json:"name"`
			Backend  string `json:"backend"`
			Capacity int64  `json:"capacity"`
		} `json:"storage"`
	}
	resp, err = client.Get(base + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if len(stats.Storage) != 4 {
		t.Fatalf("storage section has %d tiers, want 4 (%s)", len(stats.Storage), body)
	}
	if stats.Storage[1].Name != "mmap" || stats.Storage[1].Backend != "mmap" {
		t.Errorf("tier 1 = %+v, want the mmap warm tier", stats.Storage[1])
	}
	// The loop shrinks the tier by the heap's overage past the budget —
	// with a 1-byte budget that is (almost) the whole live heap — clamped
	// to the floor. Either way the target must be strictly below the
	// configured capacity and never under the floor.
	floor := int64(d.baseMemCap / 16)
	if got := stats.Storage[0].Capacity; got >= int64(d.baseMemCap) || got < floor {
		t.Errorf("pressured memory capacity = %d, want in [%d, %d)", got, floor, int64(d.baseMemCap))
	}

	// Live retarget of the warm tier through the admin surface.
	resp, err = client.Post(base+"/admin/resize", "application/json",
		strings.NewReader(`{"targets": {"mmap": 2097152}}`))
	if err != nil {
		t.Fatalf("admin resize: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin resize = %d (%s)", resp.StatusCode, body)
	}
	var rr struct {
		Storage []struct {
			Name     string `json:"name"`
			Capacity int64  `json:"capacity"`
		} `json:"storage"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("resize decode: %v", err)
	}
	if rr.Storage[1].Name != "mmap" || rr.Storage[1].Capacity != 2097152 {
		t.Errorf("resized mmap tier = %+v", rr.Storage[1])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeRestartSmoke proves the durability story over a real socket:
// a daemon with -data-dir admits a page, shuts down (checkpointing its
// durable state), and a second daemon over the same directory serves the
// same page as a warehouse hit — no origin fetch.
func TestServeRestartSmoke(t *testing.T) {
	opts := options{
		addr:         "127.0.0.1:0",
		sites:        3,
		pages:        8,
		seed:         1,
		workers:      4,
		dataDir:      t.TempDir(),
		fetchTimeout: 5 * time.Second,
	}
	d, err := build(opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := d.start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	url := d.urls[0]

	type fetchView struct {
		Body   string `json:"body"`
		Hit    bool   `json:"hit"`
		Source string `json:"source"`
	}
	fetchOnce := func(d *daemon) fetchView {
		t.Helper()
		resp, err := client.Get("http://" + d.srv.Addr() + "/fetch?url=" + url)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch = %d (%s)", resp.StatusCode, body)
		}
		var fr fetchView
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatalf("fetch decode: %v (%q)", err, body)
		}
		return fr
	}

	first := fetchOnce(d)
	if first.Source != "origin" || first.Body == "" {
		t.Fatalf("cold fetch: %+v", first)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Second life over the same directory: the page must be served from
	// the warehouse tiers, never the origin.
	d2, err := build(opts)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if err := d2.start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	second := fetchOnce(d2)
	if !second.Hit || second.Source == "origin" {
		t.Errorf("restarted fetch: Hit=%v Source=%q, want a warehouse hit", second.Hit, second.Source)
	}
	if second.Body != first.Body {
		t.Errorf("restarted body differs from admitted body")
	}
	if n := d2.wh.Stats().OriginFetches; n != 0 {
		t.Errorf("restarted daemon performed %d origin fetches", n)
	}

	// The /body endpoint streams the same bytes with tier metadata.
	resp, err := client.Get("http://" + d2.srv.Addr() + "/body?url=" + url)
	if err != nil {
		t.Fatalf("body: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != first.Body {
		t.Fatalf("body = %d %q", resp.StatusCode, raw)
	}
	if src := resp.Header.Get("X-CBFWW-Source"); src == "" || src == "origin" {
		t.Errorf("body X-CBFWW-Source = %q, want a tier name", src)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := d2.shutdown(ctx2); err != nil {
		t.Fatalf("shutdown 2: %v", err)
	}
}

// TestBuildMmapTierWithSchema: a schema's tier directives edit the table
// -mmap-tier built — by row name, the inserted "mmap" row included —
// instead of being silently overridden by it (or overriding it).
func TestBuildMmapTierWithSchema(t *testing.T) {
	schemaFile := func(text string) string {
		path := filepath.Join(t.TempDir(), "schema.txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	opts := func(schema string) options {
		return options{
			addr: "127.0.0.1:0", sites: 1, pages: 2, seed: 1, workers: 1,
			dataDir: t.TempDir(), mmapTier: 1 << 20, schemaFile: schemaFile(schema),
		}
	}
	d, err := build(opts("tier memory capacity 1200KB\ntier mmap capacity 3MB\n"))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer d.wh.Close()
	tiers := d.wh.StorageManager().Tiers()
	if len(tiers) != 4 || tiers[1].Name != "mmap" || tiers[1].Backend != "mmap" {
		t.Fatalf("tier table = %+v, want the four-row stack with an mmap row", tiers)
	}
	if tiers[0].Capacity != 1200*core.KB {
		t.Errorf("memory capacity = %v, want the schema's 1200KB", tiers[0].Capacity)
	}
	if tiers[1].Capacity != 3*core.MB {
		t.Errorf("mmap capacity = %v, want the schema's 3MB", tiers[1].Capacity)
	}

	for name, schema := range map[string]string{
		"unknown tier":      "tier nvram capacity 1MB\n",
		"bounded last tier": "tier tertiary capacity 1MB\n",
	} {
		if _, err := build(opts(schema)); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("%s: build err = %v, want ErrInvalid", name, err)
		}
	}
}

// TestMain lets the test binary stand in for the daemon: re-executed with
// serveChildEnv set, it runs main() on the flags after "--".
func TestMain(m *testing.M) {
	if os.Getenv(serveChildEnv) != "" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append(os.Args[:1], os.Args[i+1:]...)
				break
			}
		}
		main()
		return
	}
	os.Exit(m.Run())
}

const serveChildEnv = "CBFWW_SERVE_TEST_CHILD"

// TestSignalRightAfterListening: a SIGTERM that lands the moment the
// daemon has logged "listening on" — when a supervisor may first send
// one — still gets the graceful path: drain, checkpoint, exit 0. The
// handler used to be installed after that log line, so a prompt signal
// killed the process outright.
func TestSignalRightAfterListening(t *testing.T) {
	rounds := 10
	if testing.Short() {
		rounds = 2
	}
	for i := 0; i < rounds; i++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "--",
			"-addr", "127.0.0.1:0", "-data-dir", dir, "-sites", "1", "-pages", "2", "-maintain-every", "0")
		cmd.Env = append(os.Environ(), serveChildEnv+"=1")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stdout strings.Builder
		cmd.Stdout = &stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var logged strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logged.WriteString(sc.Text() + "\n")
			if strings.Contains(sc.Text(), "listening on") {
				cmd.Process.Signal(syscall.SIGTERM)
				break
			}
		}
		for sc.Scan() {
			logged.WriteString(sc.Text() + "\n")
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("round %d: daemon did not exit cleanly: %v\n%s", i, err, logged.String())
		}
		if !strings.Contains(logged.String(), "draining in-flight requests") || !strings.Contains(stdout.String(), "served 0 requests") {
			t.Fatalf("round %d: no graceful shutdown:\nstderr: %sstdout: %s", i, logged.String(), stdout.String())
		}
		if _, err := os.Stat(filepath.Join(dir, "catalog.json")); err != nil {
			t.Fatalf("round %d: exit without a checkpoint: %v", i, err)
		}
	}
}
