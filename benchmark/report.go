package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Result files, the human-readable tables, the driver's one-line result
// and -compare.

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 8

// fingerprint records where a result was measured.
type fingerprint struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Kernel      string  `json:"kernel"`
	Commit      string  `json:"commit"`
	TimerTickUs float64 `json:"timer_tick_us"` // what a 100 µs time.Sleep really takes
	NanosleepUs float64 `json:"nanosleep_us"`  // what a 100 µs raw nanosleep really takes
	Spinners    bool    `json:"spinners"`      // idle-priority spinners kept the CPUs awake
	Time        string  `json:"time"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(b))
	}
	var sleeps, naps []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		time.Sleep(100 * time.Microsecond)
		sleeps = append(sleeps, float64(time.Since(t))/1e3)
		ts := syscall.NsecToTimespec(100_000)
		t = time.Now()
		_ = syscall.Nanosleep(&ts, nil) // only its duration matters
		naps = append(naps, float64(time.Since(t))/1e3)
	}
	fp.TimerTickUs, fp.NanosleepUs = median(sleeps), median(naps)
	return fp
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Fingerprint fingerprint    `json:"fingerprint"`
	Seconds     int            `json:"seconds"`
	Scale       float64        `json:"scale"`
	Runs        []*liveResult  `json:"runs,omitempty"`
	Traces      []*traceResult `json:"traces,omitempty"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes the traced run's raw span sample beside the result
// file, as trace-<workload>.json.
func writeSpans(dir string, t *traceResult) error {
	data, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Table    []layerRow `json:"table"`
		Spans    []span     `json:"spans"`
	}{t.Workload, t.Seed, t.Table, t.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.Workload+".json"), append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// violations lists the correctness rules a run broke: any failed op; on a
// closed-loop workload more or fewer than one origin fetch per URL (the
// paper's promise); an acknowledged URL not served from the warehouse
// after the restart.
func (r *liveResult) violations(s spec) []string {
	var why []string
	if r.Failed > 0 {
		why = append(why, fmt.Sprintf("%d of %d ops failed %v", r.Failed, r.Attempted, r.Failures))
	}
	if len(s.steps) == 0 && r.Metrics["origin_fetches_per_url"] != 1 {
		why = append(why, fmt.Sprintf("origin_fetches_per_url = %v, want 1", r.Metrics["origin_fetches_per_url"]))
	}
	if r.Metrics["restart_served_ratio"] != 1 {
		why = append(why, fmt.Sprintf("restart_served_ratio = %v, want 1", r.Metrics["restart_served_ratio"]))
	}
	return why
}

// driverResult is the one-line result the driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine renders the file's single run: the gated end-to-end metrics,
// or with traced set the per-layer metrics.
func (f *resultFile) driverLine(correct, traced bool) driverResult {
	d := driverResult{Correct: correct, Metrics: make(map[string]driverValue)}
	if traced {
		tr := f.Traces[0]
		d.Attempted, d.Failed = tr.Attempted, tr.Failed
		d.Correct = correct && tr.Failed == 0
		for _, def := range perLayer {
			d.Metrics[def.Name] = driverValue{Value: tr.Layers[def.Name], Unit: def.Unit}
		}
		return d
	}
	r := f.Runs[0]
	d.Attempted, d.Failed = r.Attempted, r.Failed
	for _, def := range endToEnd {
		if def.gated() {
			d.Metrics[def.Name] = driverValue{Value: r.Metrics[def.Name], Unit: def.Unit}
		}
	}
	return d
}

func definedOn(def metricDef, workload string) bool {
	if def.on == nil {
		return true
	}
	for _, w := range def.on {
		if w == workload {
			return true
		}
	}
	return false
}

// printRun prints one live run's end-to-end metrics by name with units.
func printRun(w io.Writer, r *liveResult) {
	fmt.Fprintf(w, "\n== %s  seed %d  %d residents  %d ops  attempted %d  failed %d\n",
		r.Workload, r.Seed, r.Residents, r.Ops, r.Attempted, r.Failed)
	for _, def := range endToEnd {
		if !definedOn(def, r.Workload) {
			continue
		}
		line := fmt.Sprintf("  %-26s %14.4f %-6s", def.Name, r.Metrics[def.Name], def.Unit)
		if sp, ok := r.Spread[def.Name]; ok {
			line += fmt.Sprintf("  (windows/set-ups min %.4g max %.4g)", sp.Min, sp.Max)
		}
		fmt.Fprintln(w, line)
	}
	for _, s := range r.Steps {
		fmt.Fprintf(w, "  step %5d ops/s: completed %.1f/s  p50 %.0f us  p99 %.0f us  in flight mid %d end %d  ok=%v\n",
			s.Rate, s.CompletedPS, s.P50Us, s.P99Us, s.InflightMid, s.InflightEnd, s.OK)
	}
	if len(r.Unresolved) > 0 {
		fmt.Fprintf(w, "  unresolved (host noise): %v\n", r.Unresolved)
	}
	for label, pos := range r.TierLabels {
		fmt.Fprintf(w, "  X-CBFWW-Source %q is %s\n", label, pos)
	}
}

// side summarizes one metric on one workload over the runs of one file.
type side struct {
	n              int
	median, spread float64
	values         []float64
}

func summarizeSide(vals []float64) side {
	s := side{n: len(vals), values: vals, median: median(vals)}
	if len(vals) < 2 || s.median == 0 {
		return s
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	width := sorted[len(sorted)-1] - sorted[0]
	if len(vals) >= 4 {
		width = quantile(sorted, 0.75) - quantile(sorted, 0.25)
	}
	s.spread = width / math.Abs(s.median)
	return s
}

// verdict judges b against a for one metric. A metric whose run-to-run
// spread exceeds its bound is unresolved, not unchanged, unless every run
// of b reads better than every run of a.
func verdict(def metricDef, a, b side) string {
	worse := func(x, y float64) bool { // is y worse than x
		if def.Better == "lower" {
			return y > x
		}
		return y < x
	}
	if def.Bound == 0 {
		if worse(a.median, b.median) {
			return "regressed"
		}
		return "ok"
	}
	if a.spread > def.Bound || b.spread > def.Bound {
		allBetter := true
		for _, x := range a.values {
			for _, y := range b.values {
				if !worse(y, x) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "ok"
		}
		return "unresolved"
	}
	delta := (b.median - a.median) / math.Abs(a.median)
	if def.Better == "higher" {
		delta = -delta
	}
	if delta > def.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints metric × workload with each side's median and
// spread and a verdict. It reports failure when any metric regressed or a
// gated metric is unresolved; the reported-only metrics are expected to be
// unresolved on a noisy host and do not fail the comparison by that alone.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	collect := func(f *resultFile, workload, metric string) []float64 {
		var v []float64
		for _, r := range f.Runs {
			if x, ok := r.Metrics[metric]; ok && r.Workload == workload {
				v = append(v, x)
			}
		}
		return v
	}
	fmt.Fprintf(w, "a = %s (%s)\nb = %s (%s)\n", pathA, fa.Fingerprint.Commit, pathB, fb.Fingerprint.Commit)
	fmt.Fprintf(w, "%-14s %-26s %14s %8s %14s %8s %7s  %s\n", "workload", "metric", "a median", "spread", "b median", "spread", "bound", "verdict")
	allOK := true
	for _, s := range specs {
		for _, def := range endToEnd {
			a, b := summarizeSide(collect(fa, s.name, def.Name)), summarizeSide(collect(fb, s.name, def.Name))
			if a.n == 0 || b.n == 0 {
				continue
			}
			v := verdict(def, a, b)
			if v == "regressed" || (v != "ok" && def.gated()) {
				allOK = false
			}
			fmt.Fprintf(w, "%-14s %-26s %14.4f %8.3f %14.4f %8.3f %7.2f  %s\n",
				s.name, def.Name, a.median, a.spread, b.median, b.spread, def.Bound, v)
		}
	}
	return allOK, nil
}
