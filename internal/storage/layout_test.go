package storage

import (
	"errors"
	"testing"

	"cbfww/internal/core"
)

func layoutManager(t *testing.T, n int) *Manager {
	t.Helper()
	m, err := NewManager(classic(10, 10)) // everything lands on tertiary
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Admission, n)
	for i := range batch {
		batch[i] = Admission{ID: core.ObjectID(i + 1), Size: 100, Version: 1}
	}
	if err := m.AdmitAll(batch); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLayoutAssignsPositions(t *testing.T) {
	m := layoutManager(t, 5)
	if err := m.LayoutTertiary([]core.ObjectID{3, 1}); err != nil {
		t.Fatal(err)
	}
	wants := map[core.ObjectID]int{3: 0, 1: 1, 2: 2, 4: 3, 5: 4}
	for id, want := range wants {
		got, ok := m.TertiaryPosition(id)
		if !ok || got != want {
			t.Errorf("pos(%v) = %d, %v; want %d", id, got, ok, want)
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	m := layoutManager(t, 3)
	if err := m.LayoutTertiary([]core.ObjectID{99}); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("unknown id err = %v", err)
	}
	if err := m.LayoutTertiary([]core.ObjectID{1, 1}); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("duplicate err = %v", err)
	}
	if _, ok := m.TertiaryPosition(99); ok {
		t.Error("position for unknown id")
	}
}

func TestRunCostClusteredVsScattered(t *testing.T) {
	m := layoutManager(t, 10)
	group := []core.ObjectID{2, 5, 7, 9}

	// Scattered: natural ID layout; reading the group seeks between every
	// pair (positions 1, 4, 6, 8).
	if err := m.LayoutTertiary(nil); err != nil {
		t.Fatal(err)
	}
	const seek = 1000
	scattered, err := m.RunCost(group, seek)
	if err != nil {
		t.Fatal(err)
	}

	// Clustered: the vacuum-cleaner lays the group out adjacently.
	if err := m.LayoutTertiary(group); err != nil {
		t.Fatal(err)
	}
	clustered, err := m.RunCost(group, seek)
	if err != nil {
		t.Fatal(err)
	}

	wantScattered := core.Duration(4*seek + 4*100)
	wantClustered := core.Duration(1*seek + 4*100)
	if scattered != wantScattered {
		t.Errorf("scattered = %v, want %v", scattered, wantScattered)
	}
	if clustered != wantClustered {
		t.Errorf("clustered = %v, want %v", clustered, wantClustered)
	}
	if clustered >= scattered {
		t.Error("clustering did not reduce run cost")
	}
}

func TestRunCostRequiresTertiaryCopies(t *testing.T) {
	m := layoutManager(t, 2)
	m.DropTier(Tertiary)
	if _, err := m.RunCost([]core.ObjectID{1}, 10); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestRunCostEmpty(t *testing.T) {
	m := layoutManager(t, 2)
	c, err := m.RunCost(nil, 10)
	if err != nil || c != 0 {
		t.Errorf("empty run = %v, %v", c, err)
	}
}

// TestLayoutFollowsTheAnchor: the linear medium is the last row of the
// table whatever its depth — not position 2, which is the disk tier of a
// four-row stack and does not exist on a two-row one.
func TestLayoutFollowsTheAnchor(t *testing.T) {
	tables := map[string][]TierSpec{
		"2 rows": {
			{Name: "memory", Backend: "heap", Capacity: 100, Latency: 0},
			{Name: "archive", Backend: "heap", Capacity: 0, Latency: 50},
		},
		"3 rows": ClassicTiers(100, 200),
		"4 rows": classic(100, 200).WithMmapTier(150).Tiers,
	}
	for name, table := range tables {
		t.Run(name, func(t *testing.T) {
			m, err := NewManager(Config{Tiers: table})
			if err != nil {
				t.Fatal(err)
			}
			anchor := Tier(len(table) - 1)
			if got := m.TierName(anchor); got != table[anchor].Name {
				t.Errorf("TierName(anchor) = %q, want %q", got, table[anchor].Name)
			}
			// Five 100-byte objects: one fits each fast tier at most, so
			// most live in the anchor only.
			const n = 5
			ids := make([]core.ObjectID, n)
			for i := range ids {
				ids[i] = core.ObjectID(i + 1)
				if err := m.Admit(ids[i], 100, 1, core.Priority(n-i)/n); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.LayoutTertiary([]core.ObjectID{5, 4}); err != nil {
				t.Fatal(err)
			}
			for id, want := range map[core.ObjectID]int{5: 0, 4: 1, 1: 2, 2: 3, 3: 4} {
				if pos, ok := m.TertiaryPosition(id); !ok || pos != want {
					t.Errorf("pos(%v) = %d, %v; want %d", id, pos, ok, want)
				}
			}
			cost, err := m.RunCost([]core.ObjectID{5, 4, 1}, 1000)
			if want := 1000 + 3*table[anchor].Latency; err != nil || cost != want {
				t.Errorf("RunCost = %v, %v; want %v", cost, err, want)
			}
		})
	}
}
