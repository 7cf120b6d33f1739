// Command cbfww-bench regenerates every table and figure of the paper's
// reproduction (see EXPERIMENTS.md for the index) and drives the
// scenario-matrix regression rig:
//
//	cbfww-bench                              # run every experiment
//	cbfww-bench -exp f8,x3                   # run selected experiments
//	cbfww-bench -exp c1 -json                # machine-readable, deterministic
//	cbfww-bench -list                        # list experiment IDs
//	cbfww-bench -seed 7                      # change the workload seed
//	cbfww-bench -matrix scenarios/default.toml          # run a matrix
//	cbfww-bench -matrix spec.toml -check -baseline b.json  # regression gate
//	cbfww-bench -check a.json b.json         # diff two saved A/B runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cbfww/internal/experiments"
	"cbfww/internal/scenario"
)

// experiment binds an ID to its generator.
type experiment struct {
	id    string
	title string
	run   func(seed int64) experiments.Table
}

func catalog(tierStacks []string) []experiment {
	noSeed := func(f func() experiments.Table) func(int64) experiments.Table {
		return func(int64) experiments.Table { return f() }
	}
	return []experiment{
		{"t1", "Table 1: system-class comparison", noSeed(experiments.T1Capabilities)},
		{"t2", "Table 2: usage-history attributes", noSeed(experiments.T2UsageAttributes)},
		{"c1", "§1 claim: >60% one-timers", experiments.C1OneTimers},
		{"f2", "Figure 2: shared-object priority", noSeed(experiments.F2SharedObjectPriority)},
		{"f3", "Figure 3: storage-hierarchy mapping", experiments.F3StorageMapping},
		{"f5", "Figure 5: logical documents", experiments.F5LogicalDocuments},
		{"f6", "Figure 6: logical content assembly", noSeed(experiments.F6LogicalContent)},
		{"f7", "Figure 7: semantic regions", experiments.F7SemanticRegions},
		{"f8", "Figure 8: admission-time priority", experiments.F8AdmissionPriority},
		{"q1", "§4.3: popularity-aware queries", experiments.Q1PopularityQueries},
		{"x1", "§4.2: frequency estimators", experiments.X1FrequencyEstimators},
		{"x2", "§3(3): topic sensor", experiments.X2TopicSensor},
		{"x3", "bounded baselines sweep", experiments.X3BoundedBaselines},
		{"x4", "§4.4: copy control & recovery", experiments.X4CopyControl},
		{"x5", "§3(7): consistency modes", experiments.X5Consistency},
		{"hs", "§4.4: hot-spot lifetimes", experiments.AnalyzerHotSpots},
		{"a1", "ablation: §5.3 title weight ω", experiments.A1OmegaTitleWeight},
		{"a2", "ablation: region similarity threshold", experiments.A2RegionThreshold},
		{"a3", "ablation: admission-estimate decay", experiments.A3AdmissionDecay},
		{"l1", "§4.4: tertiary locality of reference", experiments.L1TertiaryLocality},
		{"tc", "access cost vs tier capacity (-tiers selects stacks)", func(seed int64) experiments.Table {
			return experiments.TierCurves(seed, tierStacks)
		}},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so tests can drive the full
// CLI (and the determinism tests can compare two -json runs byte for
// byte).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbfww-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		seed     = fs.Int64("seed", 1, "workload seed")
		listOnly = fs.Bool("list", false, "list experiment IDs and exit")
		jsonOut  = fs.Bool("json", false, "emit experiment tables as JSON (deterministic: no timing lines)")
		matrix   = fs.String("matrix", "", "scenario spec file (.toml): run the matrix instead of experiments")
		outPath  = fs.String("out", "", "matrix results path (default BENCH_<name>.json)")
		tables   = fs.String("tables", "bench_tables.txt", "append the matrix table to this file (empty disables)")
		baseline = fs.String("baseline", "", "baseline results JSON for -check (default: the -out path)")
		check    = fs.Bool("check", false, "compare the fresh matrix run against -baseline; exit 1 on regression, writing nothing")
		tiers    = fs.String("tiers", "classic,mmap", "comma-separated tier stacks for the tc experiment (classic, mmap)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var tierStacks []string
	knownStacks := map[string]bool{}
	for _, s := range experiments.TierCurveStacks {
		knownStacks[s] = true
	}
	for _, s := range strings.Split(*tiers, ",") {
		s = strings.TrimSpace(strings.ToLower(s))
		if s == "" {
			continue
		}
		if !knownStacks[s] {
			fmt.Fprintf(stderr, "cbfww-bench: unknown tier stack %q (known: %s)\n",
				s, strings.Join(experiments.TierCurveStacks, ", "))
			return 2
		}
		tierStacks = append(tierStacks, s)
	}
	if len(tierStacks) == 0 {
		tierStacks = experiments.TierCurveStacks
	}

	if *matrix != "" {
		return runMatrix(*matrix, *outPath, *tables, *baseline, *check, stdout, stderr)
	}
	if *check && fs.NArg() == 2 {
		// Two-file mode: diff a pair of saved results (A/B runs of the same
		// spec) without re-running anything.
		return diffResults(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *check || *baseline != "" {
		fmt.Fprintln(stderr, "cbfww-bench: -check needs -matrix, or two results files: -check a.json b.json")
		return 2
	}

	all := catalog(tierStacks)
	if *listOnly {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-4s %s\n", e.id, e.title)
		}
		return 0
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
		known := map[string]bool{}
		for _, e := range all {
			known[e.id] = true
		}
		var unknown []string
		for id := range want {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "cbfww-bench: unknown experiment(s): %s (use -list)\n",
				strings.Join(unknown, ", "))
			return 2
		}
	}

	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		table := e.run(*seed)
		if *jsonOut {
			data, err := table.JSON()
			if err != nil {
				fmt.Fprintf(stderr, "cbfww-bench: %s: %v\n", e.id, err)
				return 1
			}
			stdout.Write(data)
			continue
		}
		fmt.Fprintln(stdout, table)
		fmt.Fprintf(stdout, "[%s finished in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// diffResults gates fresh (the B run) against base (the A run), two saved
// matrix-results files, under the default tolerance of 5% on every gated
// metric — the offline half of an A/B comparison: run the matrix once per
// build with -out, then diff the files without re-running either side.
func diffResults(basePath, freshPath string, stdout, stderr io.Writer) int {
	load := func(path string) (*scenario.Results, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return scenario.ParseResults(data)
	}
	base, err := load(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "cbfww-bench: baseline: %v\n", err)
		return 2
	}
	fresh, err := load(freshPath)
	if err != nil {
		fmt.Fprintf(stderr, "cbfww-bench: fresh: %v\n", err)
		return 2
	}
	// No spec in this mode: every gated metric gets the default slack.
	spec := &scenario.Spec{Tolerances: map[string]float64{"default": 0.05}}
	regs := scenario.Check(base, fresh, spec)
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "cbfww-bench: %s: %d cells within tolerance of %s\n",
			freshPath, len(fresh.Cells), basePath)
		return 0
	}
	for _, g := range regs {
		fmt.Fprintf(stdout, "REGRESSION %s\n", g)
	}
	fmt.Fprintf(stderr, "cbfww-bench: %s: %d regression(s) against %s\n",
		freshPath, len(regs), basePath)
	return 1
}

// runMatrix loads, runs, and either emits or checks a scenario matrix.
func runMatrix(specPath, outPath, tablesPath, baselinePath string, check bool, stdout, stderr io.Writer) int {
	spec, err := scenario.Load(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "cbfww-bench: %v\n", err)
		return 2
	}
	if outPath == "" {
		outPath = "BENCH_" + spec.Name + ".json"
	}

	runner := &scenario.Runner{
		Spec: spec,
		Progress: func(i, n int, id string) {
			fmt.Fprintf(stderr, "[%d/%d] %s\n", i, n, id)
		},
	}
	fresh, err := runner.Run()
	if err != nil {
		fmt.Fprintf(stderr, "cbfww-bench: %v\n", err)
		return 1
	}

	if check {
		if baselinePath == "" {
			baselinePath = outPath
		}
		baseData, err := os.ReadFile(baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "cbfww-bench: baseline: %v\n", err)
			return 2
		}
		base, err := scenario.ParseResults(baseData)
		if err != nil {
			fmt.Fprintf(stderr, "cbfww-bench: baseline: %v\n", err)
			return 2
		}
		regs := scenario.Check(base, fresh, spec)
		if len(regs) == 0 {
			fmt.Fprintf(stdout, "cbfww-bench: matrix %s: %d cells within tolerance of %s\n",
				spec.Name, len(fresh.Cells), baselinePath)
			return 0
		}
		for _, g := range regs {
			fmt.Fprintf(stdout, "REGRESSION %s\n", g)
		}
		fmt.Fprintf(stderr, "cbfww-bench: matrix %s: %d regression(s) against %s\n",
			spec.Name, len(regs), baselinePath)
		return 1
	}

	data, err := fresh.JSON()
	if err != nil {
		fmt.Fprintf(stderr, "cbfww-bench: %v\n", err)
		return 1
	}
	if dir := filepath.Dir(outPath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "cbfww-bench: %v\n", err)
			return 1
		}
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "cbfww-bench: %v\n", err)
		return 1
	}
	table := fresh.Table()
	fmt.Fprintln(stdout, table)
	fmt.Fprintf(stdout, "results: %s\n", outPath)
	if tablesPath != "" {
		f, err := os.OpenFile(tablesPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "cbfww-bench: %v\n", err)
			return 1
		}
		if _, err := fmt.Fprintf(f, "%s\n", table); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "cbfww-bench: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "cbfww-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "table appended to %s\n", tablesPath)
	}
	return 0
}
