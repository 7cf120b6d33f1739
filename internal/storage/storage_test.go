package storage

import (
	"errors"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
)

func newTestManager(t *testing.T, s stack) *Manager {
	t.Helper()
	cfg := s.config(t, 100, 1000)
	cfg.SummaryRatio = 0.1
	cfg.SummaryThreshold = 0.5 // objects > 50 bytes are "large documents"
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestNewManagerValidation(t *testing.T) {
	table := func(edit func([]TierSpec) []TierSpec) Config {
		return Config{Tiers: edit(ClassicTiers(10, 10))}
	}
	bad := []Config{
		{}, // no table
		table(func(ts []TierSpec) []TierSpec { ts[0].Capacity = 0; return ts }),
		table(func(ts []TierSpec) []TierSpec { ts[1].Capacity = 0; return ts }),
		table(func(ts []TierSpec) []TierSpec { ts[2].Capacity = 1; return ts }), // bounded anchor
		table(func(ts []TierSpec) []TierSpec { ts[0].Latency = 50; return ts }), // latency inversion
		table(func(ts []TierSpec) []TierSpec { ts[1].Name = "memory"; return ts }),
		table(func(ts []TierSpec) []TierSpec { ts[1].Backend = "tape"; return ts }),
		table(func(ts []TierSpec) []TierSpec { return ts[:1] }),
		{Tiers: ClassicTiers(10, 10), SummaryRatio: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewManager(cfg); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("config %d: err = %v, want ErrInvalid", i, err)
		}
	}
	if _, err := NewManager(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestAdmitPlacesByPriority(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		// Memory holds 100 bytes: two 40-byte high-priority objects fit, the
		// third (low priority) does not.
		if err := admitMeta(m, 1, 40, 1, 0.9); err != nil {
			t.Fatal(err)
		}
		if err := admitMeta(m, 2, 40, 1, 0.8); err != nil {
			t.Fatal(err)
		}
		if err := admitMeta(m, 3, 40, 1, 0.1); err != nil {
			t.Fatal(err)
		}
		for id, want := range map[core.ObjectID]Tier{1: Memory, 2: Memory, 3: Disk} {
			got, ok := m.Contains(id)
			if !ok || got != want {
				t.Errorf("Contains(%v) = %v, %v; want %v", id, got, ok, want)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Access costs follow tiers.
		r1, err := access(m, 1)
		if err != nil || r1.Tier != Memory || r1.Latency != 0 {
			t.Errorf("Access(1) = %+v, %v", r1, err)
		}
		r3, err := access(m, 3)
		if err != nil || r3.Tier != Disk || r3.Latency != 10 {
			t.Errorf("Access(3) = %+v, %v", r3, err)
		}
		st := m.Stats()
		if st.Accesses != 2 || st.CostTotal != 10 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestAdmitErrors(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		if err := admitMeta(m, 1, 0, 1, 0.5); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("zero size err = %v", err)
		}
		if err := admitMeta(m, 1, 10, 1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := admitMeta(m, 1, 10, 1, 0.5); !errors.Is(err, core.ErrExists) {
			t.Errorf("dup err = %v", err)
		}
		if _, err := access(m, 99); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("missing access err = %v", err)
		}
		if err := m.Remove(99); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("missing remove err = %v", err)
		}
	})
}

func TestMemoryResidentHasDiskCopy(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		if err := admitMeta(m, 1, 50, 1, 1.0); err != nil {
			t.Fatal(err)
		}
		mem := m.ResidentIDs(Memory)
		disk := m.ResidentIDs(Disk)
		if len(mem) != 1 || len(disk) != 1 {
			t.Fatalf("residents: mem=%v disk=%v", mem, disk)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLevelsOfDetailSummary(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		// 60-byte object with SummaryThreshold 0.5*100 = 50: a large document,
		// so memory holds a 6-byte summary while disk holds the body.
		if err := admitMeta(m, 1, 60, 1, 1.0); err != nil {
			t.Fatal(err)
		}
		res, err := access(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != Disk {
			t.Errorf("full body served from %v, want disk", res.Tier)
		}
		if !res.HasPreview || res.PreviewTier != Memory || res.PreviewLatency != 0 {
			t.Errorf("no memory preview: %+v", res)
		}
		if used := m.Used(Memory); used != 6 {
			t.Errorf("memory used = %v, want 6 (summary)", used)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPriorityChangeMigrates(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		admitMeta(m, 1, 40, 1, 0.9)
		admitMeta(m, 2, 40, 1, 0.8)
		admitMeta(m, 3, 40, 1, 0.1)
		if tier, _ := m.Contains(3); tier != Disk {
			t.Fatalf("precondition: 3 at %v", tier)
		}
		// Promote 3 above 2: they swap places.
		m.ApplyPriorities(map[core.ObjectID]core.Priority{3: 0.85})
		if tier, _ := m.Contains(3); tier != Memory {
			t.Errorf("3 at %v after promotion", tier)
		}
		if tier, _ := m.Contains(2); tier != Disk {
			t.Errorf("2 at %v after demotion", tier)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if m.Stats().Migrations == 0 {
			t.Error("no migrations counted")
		}

		// Bulk form.
		m.ApplyPriorities(map[core.ObjectID]core.Priority{2: 0.95, 3: 0.05})
		if tier, _ := m.Contains(2); tier != Memory {
			t.Errorf("bulk: 2 at %v", tier)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUpdateAndBackupVersioning(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		admitMeta(m, 1, 40, 1, 0.9) // memory + disk + tertiary
		if err := m.UpdateBytes(1, 2, nil); err != nil {
			t.Fatal(err)
		}
		// Fast copies current, tertiary stale.
		res, _ := access(m, 1)
		if res.Stale {
			t.Error("memory copy stale after update")
		}
		if err := m.UpdateBytes(1, 1, nil); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("regressing version err = %v", err)
		}
		if err := m.UpdateBytes(99, 5, nil); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("unknown update err = %v", err)
		}
		// Drop fast tiers: only the stale tertiary copy remains.
		m.DropTier(Memory)
		m.DropTier(Disk)
		res2, err := access(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Tier != Tertiary || !res2.Stale {
			t.Errorf("tertiary access = %+v, want stale", res2)
		}
		// Backup refreshes tertiary.
		m.Backup()
		res3, _ := access(m, 1)
		if res3.Stale {
			t.Error("tertiary still stale after backup")
		}
		if m.Stats().Backups != 1 {
			t.Errorf("backups = %d", m.Stats().Backups)
		}
	})
}

func TestUpdateTertiaryOnlyObject(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		// Low priority object larger than disk would allow? Use tiny disk.
		m2, err := NewManager(classic(10, 10))
		if err != nil {
			t.Fatal(err)
		}
		admitMeta(m2, 1, 50, 1, 0.5) // fits nowhere fast: tertiary only
		if tier, _ := m2.Contains(1); tier != Tertiary {
			t.Fatalf("at %v", tier)
		}
		if err := m2.UpdateBytes(1, 2, nil); err != nil {
			t.Fatal(err)
		}
		res, _ := access(m2, 1)
		if res.Stale {
			t.Error("direct tertiary update left stale copy")
		}
		_ = m
	})
}

func TestDropMemoryRecoverFromDisk(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		admitMeta(m, 1, 40, 1, 0.9)
		admitMeta(m, 2, 40, 1, 0.8)
		if err := m.DropTier(Memory); err != nil {
			t.Fatal(err)
		}
		if ids := m.ResidentIDs(Memory); len(ids) != 0 {
			t.Fatalf("memory not empty after drop: %v", ids)
		}
		rep := m.Recover()
		if rep.Lost != 0 || rep.Stale != 0 {
			t.Errorf("report = %+v", rep)
		}
		if rep.Restored == 0 {
			t.Error("nothing restored")
		}
		if ids := m.ResidentIDs(Memory); len(ids) != 2 {
			t.Errorf("memory after recover: %v", ids)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDropDiskRecoverStale(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		admitMeta(m, 1, 40, 1, 0.9)
		m.UpdateBytes(1, 3, nil) // tertiary copy stays at v1
		// Lose both fast tiers: only the stale tertiary backup survives.
		m.DropTier(Memory)
		m.DropTier(Disk)
		rep := m.Recover()
		if rep.Stale != 1 {
			t.Errorf("stale = %d, want 1", rep.Stale)
		}
		if rep.Lost != 0 {
			t.Errorf("lost = %d", rep.Lost)
		}
		res, err := access(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stale {
			t.Error("recovered copy still flagged stale (should be authoritative now)")
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDropAllTiersLosesObject(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		admitMeta(m, 1, 40, 1, 0.9)
		m.DropTier(Memory)
		m.DropTier(Disk)
		m.DropTier(Tertiary)
		rep := m.Recover()
		if rep.Lost != 1 {
			t.Errorf("lost = %d, want 1", rep.Lost)
		}
		if m.Len() != 0 {
			t.Errorf("Len = %d after total loss", m.Len())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDropTierValidation(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		if err := m.DropTier(Tier(9)); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("bad tier err = %v", err)
		}
	})
}

func TestRemoveFreesSpace(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		admitMeta(m, 1, 40, 1, 0.9)
		usedT := m.Used(Tertiary)
		if err := m.Remove(1); err != nil {
			t.Fatal(err)
		}
		if m.Len() != 0 {
			t.Errorf("Len = %d", m.Len())
		}
		if m.Used(Tertiary) != usedT-40 {
			t.Errorf("tertiary used = %v", m.Used(Tertiary))
		}
	})
}

func TestAdmitAllBulk(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m := newTestManager(t, s)
		batch := make([]Admission, 20)
		for i := range batch {
			batch[i] = Admission{
				ID: core.ObjectID(i + 1), Size: 10, Version: 1,
				Priority: core.Priority(i) / 20,
			}
		}
		if err := m.AdmitAll(batch); err != nil {
			t.Fatal(err)
		}
		if m.Len() != 20 {
			t.Fatalf("Len = %d", m.Len())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The ten highest priorities (IDs 11..20) fill memory (100/10).
		mem := m.ResidentIDs(Memory)
		if len(mem) != 10 {
			t.Fatalf("memory residents = %v", mem)
		}
		if mem[0] != 11 {
			t.Errorf("lowest memory resident = %v, want 11", mem[0])
		}
		// Dup detection.
		if err := m.AdmitAll([]Admission{{ID: 5, Size: 1}}); !errors.Is(err, core.ErrExists) {
			t.Errorf("bulk dup err = %v", err)
		}
	})
}

func TestTierString(t *testing.T) {
	if Memory.String() != "memory" || Disk.String() != "disk" ||
		Tertiary.String() != "tertiary" || Tier(7).String() != "tier(7)" {
		t.Error("Tier.String wrong")
	}
}

// Property: any sequence of admits, priority changes, updates, backups and
// tier drops + recover preserves the invariants.
func TestStorageInvariantsProperty(t *testing.T) {
	f := func(kinds, ids, vals []uint8) bool {
		n := len(kinds)
		if len(ids) < n {
			n = len(ids)
		}
		if len(vals) < n {
			n = len(vals)
		}
		type op struct{ kind, id, val uint8 }
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{kinds[i], ids[i], vals[i]}
		}
		cfg := classic(50, 200)
		cfg.SummaryRatio = 0.1
		m, err := NewManager(cfg)
		if err != nil {
			return false
		}
		version := make(map[core.ObjectID]int)
		for _, o := range ops {
			id := core.ObjectID(o.id%10 + 1)
			switch o.kind % 6 {
			case 0:
				if err := admitMeta(m, id, core.Bytes(o.val%30+1), 1, core.Priority(o.val)/255); err == nil {
					version[id] = 1
				}
			case 1:
				m.ApplyPriorities(map[core.ObjectID]core.Priority{id: core.Priority(o.val) / 255})
			case 2:
				if v, ok := version[id]; ok {
					if err := m.UpdateBytes(id, v+1, nil); err == nil {
						version[id] = v + 1
					}
				}
			case 3:
				m.Backup()
			case 4:
				m.DropTier(Tier(o.val % 3))
				rep := m.Recover()
				for id2 := range version {
					if _, ok := m.Priority(id2); !ok {
						delete(version, id2)
					}
				}
				_ = rep
			case 5:
				access(m, id)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkApplyPriorities(b *testing.B) {
	m, err := NewManager(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const n = 2000
	batch := make([]Admission, n)
	for i := range batch {
		batch[i] = Admission{
			ID: core.ObjectID(i + 1), Size: core.Bytes((i%100 + 1)) * core.KB,
			Version: 1, Priority: core.Priority(i%97) / 97,
		}
	}
	if err := m.AdmitAll(batch); err != nil {
		b.Fatal(err)
	}
	prios := make(map[core.ObjectID]core.Priority, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			prios[core.ObjectID(j+1)] = core.Priority((i+j)%101) / 101
		}
		m.ApplyPriorities(prios)
	}
}
