package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cbfww/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden.json")

// TestTablesGolden pins every experiment's -json table at seed 1, so a
// refactor of the lab that moves any number of EXPERIMENTS.md shows here.
// q1's latency column is wall-clock time, so only its query and row-count
// columns are compared. Regenerate with -update when a table moves on
// purpose, and say why.
func TestTablesGolden(t *testing.T) {
	type chunk struct {
		id   string
		data []byte
	}
	var got []chunk
	var all []byte
	for _, e := range catalog(experiments.TierCurveStacks) {
		table := e.run(1)
		if e.id == "q1" {
			for _, row := range table.Rows {
				row[len(row)-1] = "-"
			}
		}
		data, err := table.JSON()
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		got = append(got, chunk{e.id, data})
		all = append(all, data...)
	}

	path := filepath.Join("testdata", "tables.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, all, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	for _, c := range got {
		if !bytes.HasPrefix(want, c.data) {
			end := len(c.data)
			if end > len(want) {
				end = len(want)
			}
			t.Fatalf("%s drifted from golden (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s",
				c.id, c.data, want[:end])
		}
		want = want[len(c.data):]
	}
	if len(want) > 0 {
		t.Fatalf("golden holds %d bytes past the last experiment", len(want))
	}
}
