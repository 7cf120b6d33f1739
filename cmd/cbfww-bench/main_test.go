package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbfww/internal/experiments"
)

// The experiment catalog must have unique, non-empty IDs and working
// generators — cmd-level sanity for the harness users script against.
func TestCatalogIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range catalog(experiments.TierCurveStacks) {
		if e.id == "" || e.title == "" || e.run == nil {
			t.Errorf("incomplete entry %+v", e)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	if len(seen) < 16 {
		t.Errorf("catalog has only %d experiments", len(seen))
	}
}

// tinyMatrix writes a fast 2-cell spec and returns its path.
func tinyMatrix(t *testing.T, dir string) string {
	t.Helper()
	spec := `
name = "cmdtest"
[run]
sites = 3
pages_per_site = 8
sessions = 40
users = 10
length = 6000
maintain_every = 2000
[policy]
policies = ["paper", "lru"]
`
	path := filepath.Join(dir, "cmdtest.toml")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// The matrix subcommand must emit the results JSON, append the table, and
// rerun byte-identically with the same seed — the rig's core contract.
func TestMatrixRunAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	spec := tinyMatrix(t, dir)
	outA := filepath.Join(dir, "a.json")
	outB := filepath.Join(dir, "b.json")
	tables := filepath.Join(dir, "tables.txt")

	code, stdout, stderr := runCLI(t, "-matrix", spec, "-out", outA, "-tables", tables)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Scenario matrix: cmdtest") {
		t.Errorf("stdout missing table: %s", stdout)
	}
	if code, _, stderr := runCLI(t, "-matrix", spec, "-out", outB, "-tables", ""); code != 0 {
		t.Fatalf("second run exit %d, stderr: %s", code, stderr)
	}
	a, err := os.ReadFile(outA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different results JSON")
	}
	tb, err := os.ReadFile(tables)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tb), "Scenario matrix: cmdtest") {
		t.Errorf("tables file missing matrix table: %s", tb)
	}
}

// -check must pass against a faithful baseline and fail — naming the
// regressed cell and metric — against a perturbed one.
func TestMatrixCheck(t *testing.T) {
	dir := t.TempDir()
	spec := tinyMatrix(t, dir)
	base := filepath.Join(dir, "base.json")
	if code, _, stderr := runCLI(t, "-matrix", spec, "-out", base, "-tables", ""); code != 0 {
		t.Fatalf("baseline run exit %d, stderr: %s", code, stderr)
	}

	code, stdout, _ := runCLI(t, "-matrix", spec, "-check", "-baseline", base)
	if code != 0 {
		t.Fatalf("clean check exit %d: %s", code, stdout)
	}

	var doc struct {
		Cells []struct {
			ID      string             `json:"id"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"cells"`
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Cells[0].Metrics["hit_ratio"] = doc.Cells[0].Metrics["hit_ratio"]*2 + 0.5
	perturbed, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	badBase := filepath.Join(dir, "perturbed.json")
	if err := os.WriteFile(badBase, perturbed, 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, _ = runCLI(t, "-matrix", spec, "-check", "-baseline", badBase)
	if code == 0 {
		t.Fatalf("perturbed check passed: %s", stdout)
	}
	if !strings.Contains(stdout, "REGRESSION") ||
		!strings.Contains(stdout, doc.Cells[0].ID) ||
		!strings.Contains(stdout, "hit_ratio") {
		t.Errorf("regression output does not name cell and metric: %s", stdout)
	}
}

// TestCheckDiffTwoFiles drives the offline A/B mode: `-check a.json
// b.json` diffs two saved results files without re-running the matrix,
// passing on identical runs and naming cell + metric on a regression.
func TestCheckDiffTwoFiles(t *testing.T) {
	dir := t.TempDir()
	spec := tinyMatrix(t, dir)
	a := filepath.Join(dir, "a.json")
	if code, _, stderr := runCLI(t, "-matrix", spec, "-out", a, "-tables", ""); code != 0 {
		t.Fatalf("A run exit %d, stderr: %s", code, stderr)
	}

	// A vs itself: nothing can regress.
	code, stdout, stderr := runCLI(t, "-check", a, a)
	if code != 0 {
		t.Fatalf("self diff exit %d: %s / %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "within tolerance") {
		t.Errorf("self diff output: %s", stdout)
	}

	// Degrade one gated metric in the B file past the 5% default slack.
	var doc struct {
		Cells []struct {
			ID      string             `json:"id"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"cells"`
	}
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Cells[0].Metrics["hit_ratio"] *= 0.5
	worse, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.json")
	if err := os.WriteFile(b, worse, 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, _ = runCLI(t, "-check", a, b)
	if code != 1 {
		t.Fatalf("degraded diff exit %d, want 1: %s", code, stdout)
	}
	if !strings.Contains(stdout, "REGRESSION") ||
		!strings.Contains(stdout, doc.Cells[0].ID) ||
		!strings.Contains(stdout, "hit_ratio") {
		t.Errorf("diff output does not name cell and metric: %s", stdout)
	}

	// The other direction — B as baseline, A as fresh — is an improvement,
	// not a regression.
	if code, stdout, _ := runCLI(t, "-check", b, a); code != 0 {
		t.Errorf("improvement flagged as regression (exit %d): %s", code, stdout)
	}
}

// The CLI's -json path prints the experiments asked for, in catalog
// order, as the tables TestTablesGolden pins: c1's and x3's chunks of the
// golden file, byte for byte, so one run shows the output deterministic.
func TestExpJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment pass")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "tables.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Each table is an indented object ending in a "}" line; the golden
	// file holds one per catalog entry, in catalog order.
	chunks := bytes.SplitAfter(golden, []byte("\n}\n"))
	var want []byte
	for i, e := range catalog(experiments.TierCurveStacks) {
		if e.id == "c1" || e.id == "x3" {
			want = append(want, chunks[i]...)
		}
	}
	code, got, stderr := runCLI(t, "-exp", "c1,x3", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if len(want) == 0 || got != string(want) {
		t.Fatalf("-exp c1,x3 -json differs from the golden tables:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// Flag validation: bad combinations and unknown experiments exit 2.
func TestCLIErrors(t *testing.T) {
	if code, _, stderr := runCLI(t, "-check"); code != 2 ||
		!strings.Contains(stderr, "needs -matrix") {
		t.Errorf("-check without -matrix: code %d, stderr %s", code, stderr)
	}
	// Two-file mode needs exactly two positional files.
	if code, _, stderr := runCLI(t, "-check", "only-one.json"); code != 2 ||
		!strings.Contains(stderr, "needs -matrix") {
		t.Errorf("-check with one file: code %d, stderr %s", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-check", "/nonexistent/a.json", "/nonexistent/b.json"); code != 2 ||
		!strings.Contains(stderr, "baseline") {
		t.Errorf("-check with missing files: code %d, stderr %s", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-exp", "nope"); code != 2 ||
		!strings.Contains(stderr, "unknown experiment") {
		t.Errorf("unknown exp: code %d, stderr %s", code, stderr)
	}
	if code, _, _ := runCLI(t, "-matrix", "/nonexistent/spec.toml"); code != 2 {
		t.Errorf("missing spec: code %d", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.toml")
	os.WriteFile(bad, []byte("name = \"x\"\nbogus = 1\n"), 0o644)
	if code, _, stderr := runCLI(t, "-matrix", bad); code != 2 ||
		!strings.Contains(stderr, "unknown key bogus") {
		t.Errorf("bad spec: code %d, stderr %s", code, stderr)
	}
}
