package warehouse

import (
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/storage"
)

// stack is one row of the test-side backend table. Every suite that
// builds a warehouse runs once per row, so a plain `go test` covers the
// all-in-heap shape, real file-backed tiers, and the mmap arena as the
// middle tier.
type stack struct {
	name   string
	onDisk bool   // tiers file-backed under t.TempDir(); false = all in heap
	middle string // backend of the table's disk tier
}

var stacks = []stack{
	{name: "heap", middle: "disk"},
	{name: "disk", onDisk: true, middle: "disk"},
	{name: "mmap", onDisk: true, middle: "mmap"},
}

// eachStack runs body as one subtest per stack.
func eachStack(t *testing.T, body func(t *testing.T, s stack)) {
	for _, s := range stacks {
		t.Run(s.name, func(t *testing.T) { body(t, s) })
	}
}

// open builds a warehouse from cfg on this stack — a data directory unless
// the test brought its own, the middle tier on the stack's backend — and
// closes it with the test.
func (s stack) open(t *testing.T, cfg Config, clock core.Clock, web core.Origin) *Warehouse {
	t.Helper()
	cfg.Storage.Tiers = append([]storage.TierSpec(nil), cfg.Storage.Tiers...)
	for i := range cfg.Storage.Tiers {
		if cfg.Storage.Tiers[i].Backend == "disk" {
			cfg.Storage.Tiers[i].Backend = s.middle
		}
	}
	if s.onDisk && cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	w, err := New(cfg, clock, web)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}
