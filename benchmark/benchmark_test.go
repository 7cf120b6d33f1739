package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testBin is the daemon binary, built once for the package's tests.
var testBin string

// update rewrites BENCHMARK.json from the harness's catalogue:
// go test ./benchmark -run TestBenchmarkFileMatchesCatalogue -update
var updateFile = flag.Bool("update", false, "rewrite BENCHMARK.json from the metric catalogue")

func TestMain(m *testing.M) {
	// The harness builds ./cmd/cbfww-serve relative to the checkout root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	code := m.Run()
	killAll()
	os.Exit(code)
}

func daemonBinary(t *testing.T) string {
	t.Helper()
	if testBin == "" {
		bin, err := buildDaemon()
		if err != nil {
			t.Fatalf("build daemon: %v", err)
		}
		testBin = bin
	}
	return testBin
}

func testOpts(t *testing.T) liveOpts {
	return liveOpts{
		seed: 7, seconds: defaultSeconds, scale: 0.01, share: 1, clients: 2, repeats: 2,
		bin: daemonBinary(t), logf: t.Logf,
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestBenchmarkFileMatchesCatalogue pins BENCHMARK.json to the harness's
// own metric and workload lists and to the driver's size limits.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	if *updateFile {
		if err := writeBenchmarkFile("BENCHMARK.json"); err != nil {
			t.Fatal(err)
		}
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command = %v, want %v", bf.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(specs) || len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Fatalf("%d workloads in file, %d in harness (limit 2..8)", len(bf.Workloads), len(specs))
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d = %q / %q, harness has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	var gated []metricDef
	for _, def := range endToEnd {
		if def.gated() {
			gated = append(gated, metricDef{Name: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound})
		}
	}
	if len(bf.EndToEnd) > 16 || !reflect.DeepEqual(bf.EndToEnd, gated) {
		t.Errorf("end_to_end differs from the catalogue:\nfile    %+v\nharness %+v", bf.EndToEnd, gated)
	}
	hasSetup := false
	for _, def := range bf.EndToEnd {
		name(def.Name)
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	var layers []metricDef
	for _, def := range perLayer {
		layers = append(layers, metricDef{Name: def.Name, Unit: def.Unit, Better: def.Better})
	}
	if len(bf.PerLayer) > 128 || !reflect.DeepEqual(bf.PerLayer, layers) {
		t.Errorf("per_layer differs from the catalogue (%d in file, %d in harness)", len(bf.PerLayer), len(layers))
	}
	for _, def := range bf.PerLayer {
		name(def.Name)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload, live and traced, at a
// hundredth of its size and checks that each metric of the catalogue comes
// out once, finite, and that the oracle saw no failure.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	for _, s := range specs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			tr, err := runTrace(s, testOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			// The traced run's live pass is a complete live run (one client,
			// a tenth of the ops): it carries the end-to-end metrics too.
			live := tr.Live
			if why := live.violations(s); len(why) > 0 {
				t.Errorf("live pass incorrect: %v", why)
			}
			for _, def := range endToEnd {
				v, ok := live.Metrics[def.Name]
				switch {
				case !definedOn(def, s.name):
					if ok {
						t.Errorf("%s emitted on %s, where it is not defined", def.Name, s.name)
					}
				case !ok || !finite(v):
					t.Errorf("end-to-end %s = %v (present %v)", def.Name, v, ok)
				case def.gated() && v == 0:
					t.Errorf("gated end-to-end %s is 0", def.Name)
				}
			}
			if tr.Failed != 0 {
				t.Errorf("traced run: %d of %d failed", tr.Failed, tr.Attempted)
			}
			for _, def := range perLayer {
				if v, ok := tr.Layers[def.Name]; !ok || !finite(v) {
					t.Errorf("per-layer %s = %v (present %v)", def.Name, v, ok)
				}
			}
			for name := range tr.Layers {
				found := false
				for _, def := range perLayer {
					found = found || def.Name == name
				}
				if !found {
					t.Errorf("per-layer %s emitted but not in the catalogue", name)
				}
			}
			sum := 0.0
			for _, row := range tr.Table {
				sum += row.SelfUs
			}
			if math.Abs(sum-tr.ClientMeanUs) > 0.05*tr.ClientMeanUs {
				t.Errorf("layer table sums to %.1f us, client mean %.1f us", sum, tr.ClientMeanUs)
			}
			line := (&resultFile{Traces: []*traceResult{tr}}).driverLine(true, true)
			if len(line.Metrics) != len(perLayer) || line.Attempted < 1 {
				t.Errorf("driver line: %d metrics, attempted %d", len(line.Metrics), line.Attempted)
			}
		})
	}
}

// TestTwoClientLiveRun is the end-to-end shape the driver runs: two
// connections, repeated set-up, restart check.
func TestTwoClientLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	s, _ := specByName("cold_admit")
	res, err := runLive(s, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if why := res.violations(s); len(why) > 0 {
		t.Errorf("incorrect: %v", why)
	}
	line := (&resultFile{Runs: []*liveResult{res}}).driverLine(true, false)
	for _, def := range endToEnd {
		v, ok := line.Metrics[def.Name]
		if def.gated() != ok {
			t.Errorf("%s: in driver line %v, gated %v", def.Name, ok, def.gated())
		}
		if ok && (v.Unit != def.Unit || !finite(v.Value) || v.Value == 0) {
			t.Errorf("%s = %+v", def.Name, v)
		}
	}
}

// stallServer answers every request with a small JSON body and stalls the
// nth request for d.
func stallServer(t *testing.T, nth int64, d time.Duration) *httptest.Server {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == nth {
			time.Sleep(d)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"rows":[]}`)) // a closed test connection fails the request, which the test sees
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestPacerCountsStallFromDueTime: an injected 50 ms stall must appear in
// the latency of the requests that were due during it, not only in the
// stalled one (coordinated omission).
func TestPacerCountsStallFromDueTime(t *testing.T) {
	const gap, stall = 5 * time.Millisecond, 50 * time.Millisecond
	srv := stallServer(t, 10, stall)
	ops := make([]op, 30)
	for i := range ops {
		ops[i] = op{kind: opQuery, user: -1}
	}
	due := make([]int64, len(ops))
	for i := range due {
		due[i] = int64(i) * int64(gap)
	}
	p, err := runOpen(strings.TrimPrefix(srv.URL, "http://"), 1, newRequester(&corpus{}), ops, due, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, why := p.failures(); f > 0 {
		t.Fatalf("%d failures: %v", f, why)
	}
	lat := func(i int) time.Duration { return time.Duration(p.doneNs[i] - p.dueNs[i]) }
	if lat(9) < stall {
		t.Errorf("stalled request took %v, want >= %v", lat(9), stall)
	}
	// Request 10 was due 5 ms into the stall, request 14 25 ms into it.
	for _, i := range []int{10, 14} {
		if want := stall - time.Duration(i-9)*gap - 2*time.Millisecond; lat(i) < want {
			t.Errorf("request %d due during the stall has latency %v, want >= %v", i, lat(i), want)
		}
	}
	if lat(2) > stall/2 {
		t.Errorf("request before the stall took %v", lat(2))
	}
	// Request 12 was due in the middle of the stall; the pacer hands it
	// out on time all the same.
	if lag := time.Duration(p.dispNs[12] - p.dueNs[12]); lag > stall/2 {
		t.Errorf("pacer handed request 12 out %v late: the pacer must not wait for replies", lag)
	}
}

func TestQuantile(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
	var r recorder
	for _, d := range []time.Duration{3 * time.Microsecond, time.Microsecond, 2 * time.Microsecond} {
		r.add(d)
	}
	if got := r.sorted(); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("recorder.sorted() = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestWindowQuantile: the median over windows ignores a spoiled window,
// and short windows fall back to the pooled quantile.
func TestWindowQuantile(t *testing.T) {
	mk := func(n int, base time.Duration) *window {
		w := &window{}
		for i := 0; i < n; i++ {
			w.lat.add(base + time.Duration(i)*time.Microsecond)
		}
		return w
	}
	calm, spoiled := mk(2000, 0), mk(2000, time.Second)
	if got := windowQuantile([]*window{calm, calm, spoiled}, 0.99); got > 2000 {
		t.Errorf("median over windows = %v us, the spoiled window leaked in", got)
	}
	if got := windowQuantile([]*window{mk(50, 0), mk(50, time.Second)}, 0.99); got < 1e6 {
		t.Errorf("pooled fallback = %v us, want the slow window's tail", got)
	}
}

func TestCanaryFilter(t *testing.T) {
	ws := make([]window, 10)
	for i := range ws {
		ws[i].canary = 80 * time.Microsecond
	}
	ws[2].canary = 62 * time.Microsecond  // a boost window is kept
	ws[5].canary = 105 * time.Microsecond // a slow window is dropped
	kept, spread := keepWindows(ws)
	if len(kept) != 9 {
		t.Fatalf("kept %d windows, want 9", len(kept))
	}
	for _, w := range kept {
		if w == &ws[5] {
			t.Error("the slow window survived")
		}
	}
	if want := 105.0/62 - 1; math.Abs(spread-want) > 1e-9 {
		t.Errorf("canary spread = %v, want %v", spread, want)
	}
	if kept, _ := keepWindows(make([]window, 4)); len(kept) != 4 {
		t.Errorf("without canary readings every window is kept, got %d", len(kept))
	}
	if runCanary() <= 0 {
		t.Error("canary took no time")
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, c := genPage(3, baseResident, 17, 4*kib), genPage(3, baseResident, 17, 4*kib), genPage(4, baseResident, 17, 4*kib)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, same index: pages differ")
	}
	if a.Body == c.Body || a.URL != c.URL {
		t.Error("another seed must give another body under the same URL")
	}
	if len(a.Body) > 4*kib || len(a.Body) < 4*kib-16 || len(a.Anchors) != 3 || len(a.Components) != 1 {
		t.Errorf("page shape: %d body bytes, %d anchors, %d components", len(a.Body), len(a.Anchors), len(a.Components))
	}
	x := genOps(3, 500, 100, "zipf", mixedOpenMix, true)
	y := genOps(3, 500, 100, "zipf", mixedOpenMix, true)
	z := genOps(4, 500, 100, "zipf", mixedOpenMix, true)
	if !reflect.DeepEqual(x, y) {
		t.Error("same seed: op sequences differ")
	}
	if reflect.DeepEqual(x, z) {
		t.Error("another seed gave the same op sequence")
	}
	// First-sight pages are each requested once, in order.
	next := int32(0)
	for _, o := range x {
		if o.kind == opBodyCold {
			if o.page != next {
				t.Fatalf("first-sight page %d requested, want %d", o.page, next)
			}
			next++
		}
	}
	if next == 0 || countKind(x, opBody) < 300 {
		t.Errorf("mix off: %d first-sight, %d resident body ops of 500", next, countKind(x, opBody))
	}
	// Zipf: the hottest page gets far more than a uniform share.
	hot := 0
	for _, o := range x {
		if o.kind == opBody && o.page == 0 {
			hot++
		}
	}
	if hot < 20 {
		t.Errorf("page 0 requested %d times of ~400, Zipf expects ~77", hot)
	}
}

func TestOracleCatchesCorruption(t *testing.T) {
	cor, err := newCorpus(5, 4, 0, 2*kib, 3)
	if err != nil {
		t.Fatal(err)
	}
	url := cor.resident[0]
	body, err := render(cor.web, url)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := cor.check(url, 1, sumOf([]byte(body)), false, now, now); err != nil {
		t.Fatalf("correct body rejected: %v", err)
	}
	bad := []byte(body)
	bad[len(bad)/2] ^= 1
	if err := cor.check(url, 1, sumOf(bad), false, now, now); err != errWrongBytes {
		t.Errorf("corrupted byte: got %v, want %v", err, errWrongBytes)
	}
	if err := cor.check(url, 1, sumOf([]byte(body[1:])), false, now, now); err != errWrongBytes {
		t.Errorf("short body: got %v, want %v", err, errWrongBytes)
	}
	if err := cor.check(url, 9, sumOf([]byte(body)), false, now, now); err != errNoSuchVer {
		t.Errorf("unknown version: got %v, want %v", err, errNoSuchVer)
	}
	if err := cor.check("http://nowhere.example/x", 1, sumOf(nil), false, now, now); err != errUnknownURL {
		t.Errorf("unknown url: got %v, want %v", err, errUnknownURL)
	}

	// Versions: the update schedule's bodies are known up front, a newer
	// version is accepted, and going back afterwards is caught.
	u := cor.updates[0]
	url = cor.resident[u.page]
	if err := cor.applyUpdate(0); err != nil {
		t.Fatal(err)
	}
	v2, err := render(cor.web, url)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v2, u.extra) {
		t.Errorf("updated body lacks the appended words %q", u.extra)
	}
	if err := cor.check(url, 2, sumOf([]byte(v2)), false, now, now.Add(time.Millisecond)); err != nil {
		t.Fatalf("version 2 rejected: %v", err)
	}
	v1 := cor.expect[url][0]
	if err := cor.check(url, 1, v1, false, now.Add(2*time.Millisecond), now.Add(3*time.Millisecond)); err != errVersionWent {
		t.Errorf("version 1 after version 2: got %v, want %v", err, errVersionWent)
	}
	// A request already in flight when version 2 was seen may still carry
	// version 1.
	if err := cor.check(url, 1, v1, false, now, now.Add(3*time.Millisecond)); err != nil {
		t.Errorf("overlapping request with the older version rejected: %v", err)
	}
}

func TestTierLabelsMapToPositions(t *testing.T) {
	four := []string{"memory", "mmap", "disk", "tertiary"}
	// The program's labels on the four-tier stack.
	for label, want := range map[string]int{"memory": 0, "disk": 1, "tertiary": 2, "tier(3)": 3} {
		if got := tierPosition(label, four, false); got != want {
			t.Errorf("classic label %q -> tier%d, want tier%d", label, got, want)
		}
	}
	// If a later change labels serves with real tier names, they map by name.
	for i, label := range four {
		if got := tierPosition(label, four, true); got != i {
			t.Errorf("real name %q -> tier%d, want tier%d", label, got, i)
		}
	}
	if tierPosition("origin", four, false) != -1 {
		t.Error("origin is not a tier")
	}
}

func TestCompareVerdicts(t *testing.T) {
	ops := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	exact := metricDef{Name: "fail_ratio", Better: "lower"}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{ops, []float64{100, 102}, []float64{99, 101}, "ok"},
		{ops, []float64{100, 102}, []float64{80, 82}, "regressed"},
		{ops, []float64{100, 102}, []float64{130, 131}, "ok"},
		{lat, []float64{100, 102}, []float64{120, 121}, "regressed"},
		{lat, []float64{100, 140}, []float64{110, 150}, "unresolved"},
		{lat, []float64{100, 140}, []float64{60, 90}, "ok"}, // noisy, but every b beats every a
		{exact, []float64{0, 0}, []float64{0.01, 0}, "regressed"},
		{exact, []float64{0, 0}, []float64{0, 0}, "ok"},
	} {
		if got := verdict(c.def, summarizeSide(c.a), summarizeSide(c.b)); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestSizingKeepsWorkloadShape(t *testing.T) {
	for _, s := range specs {
		full, tenth := s.size(defaultSeconds, 1, 1), s.size(defaultSeconds, 1, traceShare)
		if full.ops < 1000 || tenth.ops*5 > full.ops || tenth.residents != full.residents {
			t.Errorf("%s: full %+v, traced %+v", s.name, full, tenth)
		}
		if len(s.steps) > 0 && (len(full.stepOps) != len(s.steps) || full.updates == 0) {
			t.Errorf("%s: open-loop sizing %+v", s.name, full)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// writeBenchmarkFile renders the catalogue as BENCHMARK.json.
func writeBenchmarkFile(path string) error {
	bf := benchmarkFile{
		Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds,
	}
	for _, s := range specs {
		bf.Workloads = append(bf.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{s.name, s.why})
	}
	for _, def := range endToEnd {
		if def.gated() {
			bf.EndToEnd = append(bf.EndToEnd, metricDef{Name: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound})
		}
	}
	for _, def := range perLayer {
		bf.PerLayer = append(bf.PerLayer, metricDef{Name: def.Name, Unit: def.Unit, Better: def.Better})
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
