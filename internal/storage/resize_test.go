package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"cbfww/internal/core"
)

// resizeTestManager disables the large-document summary path (threshold
// 1.0: nothing is "big") so placement is a pure water-fill and the
// resize assertions are about capacity, not levels of detail.
func resizeTestManager(t *testing.T, s stack) *Manager {
	t.Helper()
	cfg := s.config(t, 100, 1000)
	cfg.SummaryRatio = 0.1
	cfg.SummaryThreshold = 1.0
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// fourTier is the file-backed heap/mmap/disk/segment stack with the
// large-document summary path off.
func fourTier(t *testing.T, mem, warm, disk core.Bytes) Config {
	cfg := Config{Tiers: ClassicTiers(mem, disk), SummaryRatio: 0.1, SummaryThreshold: 1.0, DataDir: t.TempDir()}
	return cfg.WithMmapTier(warm)
}

// resize retargets the classic table's two finite tiers.
func resize(m *Manager, mem, disk core.Bytes) error {
	return m.ResizeTiers(map[string]core.Bytes{"memory": mem, "disk": disk})
}

// Resize must re-run placement under the new capacities: objects that no
// longer fit in memory spill down the hierarchy instead of vanishing —
// the scenario matrix's capacity-shrink lever.
func TestResizeShrinkSpillsDown(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := resizeTestManager(t, s)
		for id := core.ObjectID(1); id <= 2; id++ {
			if err := admitMeta(m, id, 40, 1, 0.9); err != nil {
				t.Fatal(err)
			}
		}
		if tier, ok := m.Contains(1); !ok || tier != Memory {
			t.Fatalf("object 1 not in memory before resize")
		}

		if err := resize(m, 40, 1000); err != nil {
			t.Fatal(err)
		}
		if tiers := m.Tiers(); tiers[Memory].Capacity != 40 || tiers[Disk].Capacity != 1000 {
			t.Errorf("capacities = %v, %v", tiers[Memory].Capacity, tiers[Disk].Capacity)
		}
		inMem := 0
		for id := core.ObjectID(1); id <= 2; id++ {
			tier, ok := m.Contains(id)
			if !ok {
				t.Fatalf("object %d lost by resize", id)
			}
			if tier == Memory {
				inMem++
			}
		}
		if inMem != 1 {
			t.Errorf("memory residents after shrink = %d, want 1", inMem)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}

		// Growing back re-promotes.
		if err := resize(m, 100, 1000); err != nil {
			t.Fatal(err)
		}
		for id := core.ObjectID(1); id <= 2; id++ {
			if tier, ok := m.Contains(id); !ok || tier != Memory {
				t.Errorf("object %d tier after grow = %v, %v", id, tier, ok)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// MovedBytes must account the bytes written into each tier: admission
// lands copies at every tier, a shrink-driven demotion deletes (moves
// nothing), and a re-promotion writes into memory again. The counters
// never decrease.
func TestMovedBytesAccounting(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := resizeTestManager(t, s)
		for id := core.ObjectID(1); id <= 2; id++ {
			if err := admitMeta(m, id, 40, 1, 0.9); err != nil {
				t.Fatal(err)
			}
		}
		st := m.Stats()
		for tier := Memory; tier <= Tertiary; tier++ {
			if st.MovedBytes[tier] < 80 {
				t.Errorf("moved[%v] = %v after two 40B admissions, want >= 80", tier, st.MovedBytes[tier])
			}
		}

		// Shrink: one object leaves memory — deletion, not movement.
		if err := resize(m, 40, 1000); err != nil {
			t.Fatal(err)
		}
		afterShrink := m.Stats()
		if afterShrink.MovedBytes[Memory] != st.MovedBytes[Memory] {
			t.Errorf("demotion moved memory bytes: %v -> %v", st.MovedBytes[Memory], afterShrink.MovedBytes[Memory])
		}

		// Grow: the demoted object is promoted back — a fresh memory write.
		if err := resize(m, 100, 1000); err != nil {
			t.Fatal(err)
		}
		afterGrow := m.Stats()
		if afterGrow.MovedBytes[Memory] < afterShrink.MovedBytes[Memory]+40 {
			t.Errorf("promotion did not count: %v -> %v", afterShrink.MovedBytes[Memory], afterGrow.MovedBytes[Memory])
		}
		for tier := Memory; tier <= Tertiary; tier++ {
			if afterGrow.MovedBytes[tier] < st.MovedBytes[tier] {
				t.Errorf("moved[%v] decreased: %v -> %v", tier, st.MovedBytes[tier], afterGrow.MovedBytes[tier])
			}
		}
	})
}

// TestResizeDeltaSetOnly pins what a resize moves: the water-fill
// re-decides every object under the new capacities, but only the copies
// whose decision changed move. Shrinking a tier by X demotes ≈X bytes
// (± one blob) of the lowest-priority residents, everything above the
// frontier stays put, and growing back re-promotes exactly those bytes.
func TestResizeDeltaSetOnly(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		cfg := s.config(t, 1000, 100_000)
		cfg.SummaryRatio = 0.1
		cfg.SummaryThreshold = 1.0
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()

		// Ten 100B payload objects, priorities strictly increasing with id:
		// ids 1..10 exactly fill memory, and the demotion frontier is ids 1..k.
		const blob = 100
		for id := core.ObjectID(1); id <= 10; id++ {
			payload := bytes.Repeat([]byte{byte(id)}, blob)
			if err := m.AdmitBytes(id, blob, 1, core.Priority(float64(id)/10), payload); err != nil {
				t.Fatal(err)
			}
		}
		if m.Used(Memory) != 1000 {
			t.Fatalf("memory used = %v, want 1000", m.Used(Memory))
		}
		before := m.Stats()

		// Shrink memory by 450B. The frontier demotes ids 1..5 (500B): the
		// smallest prefix of ascending-priority residents that fits.
		const shrinkX = 450
		if err := m.ResizeTiers(map[string]core.Bytes{"memory": 1000 - shrinkX}); err != nil {
			t.Fatal(err)
		}
		after := m.Stats()
		demoted := after.DemotedBytes[Memory] - before.DemotedBytes[Memory]
		if demoted < shrinkX || demoted >= shrinkX+blob {
			t.Errorf("shrink by %d demoted %v bytes, want [%d, %d)", shrinkX, demoted, shrinkX, shrinkX+blob)
		}
		if after.MovedBytes[Memory] != before.MovedBytes[Memory] {
			t.Errorf("shrink moved bytes into memory: %v -> %v", before.MovedBytes[Memory], after.MovedBytes[Memory])
		}
		if after.Resizes != before.Resizes+1 {
			t.Errorf("Resizes = %d, want %d", after.Resizes, before.Resizes+1)
		}
		// Only the delta set moved: high-priority residents are untouched,
		// the demoted ones still live lower in the hierarchy.
		for id := core.ObjectID(6); id <= 10; id++ {
			if tier, ok := m.Contains(id); !ok || tier != Memory {
				t.Errorf("object %d left memory outside the delta set (tier %v, %v)", id, tier, ok)
			}
		}
		for id := core.ObjectID(1); id <= 5; id++ {
			if tier, ok := m.Contains(id); !ok || tier == Memory {
				t.Errorf("object %d not demoted (tier %v, %v)", id, tier, ok)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}

		// Grow back: exactly the demoted set re-promotes, as fresh writes.
		if err := m.ResizeTiers(map[string]core.Bytes{"memory": 1000}); err != nil {
			t.Fatal(err)
		}
		grown := m.Stats()
		promoted := grown.MovedBytes[Memory] - after.MovedBytes[Memory]
		if promoted != demoted {
			t.Errorf("grow re-promoted %v bytes, want the demoted %v", promoted, demoted)
		}
		for id := core.ObjectID(1); id <= 10; id++ {
			if tier, ok := m.Contains(id); !ok || tier != Memory {
				t.Errorf("object %d tier after grow = %v, %v", id, tier, ok)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestResizeTiersValidation: named targets hit the right tiers and the
// bad ones are rejected — unknown names, the unbounded anchor, negatives.
func TestResizeTiersValidation(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := resizeTestManager(t, s)
		if err := m.ResizeTiers(map[string]core.Bytes{"nvm": 10}); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("unknown tier err = %v", err)
		}
		if err := m.ResizeTiers(map[string]core.Bytes{"tertiary": 10}); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("anchor resize err = %v", err)
		}
		if err := m.ResizeTiers(map[string]core.Bytes{"memory": -5}); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("negative target err = %v", err)
		}
		if err := m.ResizeTiers(map[string]core.Bytes{"memory": 80, "disk": 900}); err != nil {
			t.Fatal(err)
		}
		var mem, disk core.Bytes
		for _, ti := range m.Tiers() {
			switch ti.Name {
			case "memory":
				mem = ti.Capacity
			case "disk":
				disk = ti.Capacity
			}
		}
		if mem != 80 || disk != 900 {
			t.Errorf("capacities after ResizeTiers = %v, %v", mem, disk)
		}
	})
}

// TestResizeMmapTier drives a four-tier stack (heap/mmap/disk/segment)
// through a named shrink of the warm tier: the mmap frontier spills to
// disk, the cascade erases the now-orphaned faster copies, and the
// invariants hold on the deeper table.
func TestResizeMmapTier(t *testing.T) {
	cfg := fourTier(t, 300, 1000, 100_000)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	warm, ok := m.TierByName("mmap")
	if !ok {
		t.Fatal("no mmap tier in table")
	}

	const blob = 100
	for id := core.ObjectID(1); id <= 10; id++ {
		payload := bytes.Repeat([]byte{byte(id)}, blob)
		if err := m.AdmitBytes(id, blob, 1, core.Priority(float64(id)/10), payload); err != nil {
			t.Fatal(err)
		}
	}
	if m.Used(warm) != 1000 {
		t.Fatalf("mmap used = %v, want 1000", m.Used(warm))
	}
	before := m.Stats()
	if err := m.ResizeTiers(map[string]core.Bytes{"mmap": 500}); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if d := after.DemotedBytes[warm] - before.DemotedBytes[warm]; d != 500 {
		t.Errorf("mmap shrink demoted %v bytes, want 500", d)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every object still reads back intact from wherever it landed.
	for id := core.ObjectID(1); id <= 10; id++ {
		_, data, err := fetch(m, id)
		if err != nil {
			t.Fatalf("Fetch %d after mmap shrink: %v", id, err)
		}
		if len(data) != blob || data[0] != byte(id) {
			t.Fatalf("Fetch %d returned wrong bytes (%d)", id, len(data))
		}
	}
}

// TestResizeRacesStreamReaders hammers ResizeTiers against concurrent
// FetchStream readers on a four-tier stack: a blob mid-migration must
// be served from the old tier or the new one, never short-read or
// corrupted. Run with -race this is the satellite's concurrency gate.
func TestResizeRacesStreamReaders(t *testing.T) {
	cfg := fourTier(t, 4_000, 8_000, 1<<30)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const nObjects = 12
	const blob = 1_000
	payloads := make(map[core.ObjectID][]byte, nObjects)
	for id := core.ObjectID(1); id <= nObjects; id++ {
		p := bytes.Repeat([]byte{byte(id)}, blob)
		payloads[id] = p
		if err := m.AdmitBytes(id, blob, 1, core.Priority(float64(id)/nObjects), p); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			id := core.ObjectID(seed%nObjects + 1)
			for {
				select {
				case <-done:
					return
				default:
				}
				_, br, err := m.FetchStream(id)
				if err != nil {
					report(fmt.Errorf("FetchStream %d: %w", id, err))
					return
				}
				data, err := io.ReadAll(br)
				br.Close()
				if err != nil {
					report(fmt.Errorf("read %d: %w", id, err))
					return
				}
				if !bytes.Equal(data, payloads[id]) {
					report(fmt.Errorf("object %d: got %d bytes, first %x", id, len(data), data[:min(8, len(data))]))
					return
				}
				id = id%nObjects + 1
			}
		}(r)
	}

	// Oscillate both finite fast tiers so migrations run in both
	// directions while the readers stream.
	for i := 0; i < 60; i++ {
		targets := map[string]core.Bytes{"memory": 2_000, "mmap": 3_000}
		if i%2 == 0 {
			targets = map[string]core.Bytes{"memory": 4_000, "mmap": 8_000}
		}
		if err := m.ResizeTiers(targets); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
