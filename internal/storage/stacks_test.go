package storage

import (
	"io"
	"testing"

	"cbfww/internal/core"
)

// stack is one row of the test-side backend table. Suites built on the
// shared fixtures run once per row, so every `go test` covers the heap
// shape, real file-backed tiers, and the mmap arena as the middle tier.
type stack struct {
	name   string
	onDisk bool   // tiers file-backed under t.TempDir(); false = all in heap
	middle string // backend of the classic table's middle tier
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

// config returns the classic table at the given capacity targets, on
// this stack's backends.
func (s stack) config(t *testing.T, mem, disk core.Bytes) Config {
	cfg := Config{Tiers: ClassicTiers(mem, disk)}
	cfg.Tiers[1].Backend = s.middle
	if s.onDisk {
		cfg.DataDir = t.TempDir()
	}
	return cfg
}

// classic is the all-in-heap classic table for tests that are not about
// the backends.
func classic(mem, disk core.Bytes) Config {
	return Config{Tiers: ClassicTiers(mem, disk)}
}

// fetch is FetchStream with the payload read out.
func fetch(m *Manager, id core.ObjectID) (AccessResult, []byte, error) {
	res, br, err := m.FetchStream(id)
	if err != nil || br == nil {
		return res, nil, err
	}
	defer br.Close()
	data, err := io.ReadAll(br)
	return res, data, err
}
