package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"

	"cbfww/internal/core"
)

// versionBytes is the content of version v of id.
func versionBytes(id core.ObjectID, v int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("object %d version %d. ", id, v)), 64)
}

// readVersion reads version v of id through OpenVersion.
func readVersion(m *Manager, id core.ObjectID, v int) ([]byte, error) {
	br, err := m.OpenVersion(id, v)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	return io.ReadAll(br)
}

// anchorVersions lists the full anchor records of id, ascending.
func anchorVersions(m *Manager, id core.ObjectID) []int {
	var vs []int
	for _, k := range m.Backend(m.last()).Keys() {
		if k.ID == id && !k.Summary {
			vs = append(vs, k.Version)
		}
	}
	sort.Ints(vs)
	return vs
}

// TestKeptVersionsOutliveTheAnchorsMove: a kept version's anchor record
// survives Backup and the updates after it, including the one that would
// drop a kept version the lagging anchor never held; Release deletes a
// record the anchor no longer serves, Remove deletes every one, and a
// restart's orphan sweep spares exactly the versions registered as kept.
// Throughout, the anchor's Used counts each record it holds at the
// object's size: the anchor copy and every kept record standing apart.
func TestKeptVersionsOutliveTheAnchorsMove(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		cfg := s.config(t, 64*core.KB, core.MB)
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { m.Close() }()
		const id = core.ObjectID(7)
		size := core.Bytes(len(versionBytes(id, 1)))
		used := func(when string, records int) {
			t.Helper()
			if got, want := m.Used(m.last()), core.Bytes(records)*size; got != want {
				t.Errorf("%s: Used(anchor) = %v, want %d records of %v", when, got, records, size)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", when, err)
			}
		}
		if err := m.AdmitBytes(id, size, 1, 1, versionBytes(id, 1)); err != nil {
			t.Fatal(err)
		}
		m.Keep(id, 1)
		for v := 2; v <= 3; v++ {
			if err := m.UpdateBytes(id, v, versionBytes(id, v)); err != nil {
				t.Fatal(err)
			}
			m.Keep(id, v)
		}
		// v2 lived on the fast tiers only; the v3 update backed it up.
		if got, want := anchorVersions(m, id), []int{1, 2}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("anchor records after v3 = %v, want %v", got, want)
		}
		m.Backup()
		if got, want := anchorVersions(m, id), []int{1, 2, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("anchor records after Backup = %v, want %v", got, want)
		}
		for v := 1; v <= 3; v++ {
			if data, err := readVersion(m, id, v); err != nil || !bytes.Equal(data, versionBytes(id, v)) {
				t.Errorf("version %d: %d bytes, %v", v, len(data), err)
			}
		}
		used("v1→v3 and Backup", 3)
		m.Release(id, 1)
		m.Release(id, 3) // the anchor's copy: its record stays
		if got, want := anchorVersions(m, id), []int{2, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("anchor records after Release = %v, want %v", got, want)
		}
		used("Release", 2)
		if _, err := readVersion(m, id, 1); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("released version read: %v, want ErrNotFound", err)
		}

		if s.onDisk {
			if err := m.SaveManifest(); err != nil {
				t.Fatal(err)
			}
			for _, keep := range [][]int{{2}, nil} {
				m.Close()
				if m, err = NewManager(cfg); err != nil {
					t.Fatal(err)
				}
				for _, v := range keep {
					m.Keep(id, v)
				}
				if _, _, err := m.RecoverFromDisk(); err != nil {
					t.Fatal(err)
				}
				if got, want := anchorVersions(m, id), append(keep, 3); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("anchor records after recovery keeping %v = %v, want %v", keep, got, want)
				}
				used(fmt.Sprintf("recovery keeping %v", keep), len(keep)+1)
			}
		}
		m.Keep(id, 3)

		// A lost anchor takes its kept records with it; recovery lands the
		// current version there again from its fast copy.
		if err := m.DropTier(m.last()); err != nil {
			t.Fatal(err)
		}
		if rep := m.Recover(); rep.Lost != 0 {
			t.Fatalf("recovery after the anchor's loss = %+v", rep)
		}
		used("DropTier(anchor) and Recover", 1)
		// One more version stands v3 apart again, for Remove to take out.
		if err := m.UpdateBytes(id, 4, versionBytes(id, 4)); err != nil {
			t.Fatal(err)
		}
		m.Keep(id, 4)
		m.Backup()
		used("v4 and Backup", 2)
		// An origin that counts afresh: Replace takes the kept v3 back as
		// the anchor copy, and v4 stands apart in its place.
		if err := m.Replace(id, 3, versionBytes(id, 3)); err != nil {
			t.Fatal(err)
		}
		used("Replace back to v3", 2)

		if err := m.Remove(id); err != nil {
			t.Fatal(err)
		}
		if got := anchorVersions(m, id); len(got) != 0 {
			t.Errorf("Remove left anchor records %v", got)
		}
		if len(m.kept) != 0 {
			t.Errorf("Remove left kept versions %v", m.kept)
		}
		used("Remove", 0)
	})
}

// TestKeptVersionsOutliveDemotionAndLoss: a placement that drops the only
// copies of a kept version — a shrink to nothing while the anchor lags —
// backs it up to the anchor first; an object lost to a tier failure
// leaves its kept records readable until they are released.
func TestKeptVersionsOutliveDemotionAndLoss(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m, err := NewManager(s.config(t, 64*core.KB, core.MB))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		const id = core.ObjectID(7)
		size := core.Bytes(len(versionBytes(id, 1)))
		if err := m.AdmitBytes(id, size, 1, 1, versionBytes(id, 1)); err != nil {
			t.Fatal(err)
		}
		m.Keep(id, 1)
		if err := m.UpdateBytes(id, 2, versionBytes(id, 2)); err != nil {
			t.Fatal(err)
		}
		m.Keep(id, 2)
		if got, want := anchorVersions(m, id), []int{1}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("anchor records after v2 = %v, want %v: the anchor should lag", got, want)
		}
		if err := m.ResizeTiers(map[string]core.Bytes{"memory": 0, "disk": 0}); err != nil {
			t.Fatal(err)
		}
		if got, want := anchorVersions(m, id), []int{1, 2}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("anchor records after the shrink = %v, want %v", got, want)
		}
		for v := 1; v <= 2; v++ {
			if data, err := readVersion(m, id, v); err != nil || !bytes.Equal(data, versionBytes(id, v)) {
				t.Errorf("version %d after the shrink: %d bytes, %v", v, len(data), err)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}

		// The anchor copy's bytes go: no full copy of the current version
		// survives, so the object is lost, but its older kept record is not.
		if err := m.Backend(m.last()).Delete(BlobKey{ID: id, Version: 2}); err != nil {
			t.Fatal(err)
		}
		if rep := m.Recover(); rep.Lost != 1 {
			t.Fatalf("recovery = %+v, want the object lost", rep)
		}
		if data, err := readVersion(m, id, 1); err != nil || !bytes.Equal(data, versionBytes(id, 1)) {
			t.Errorf("kept version 1 after the loss: %d bytes, %v", len(data), err)
		}
		if got := m.Used(m.last()); got != size {
			t.Errorf("Used(anchor) after the loss = %v, want the kept v1 record's %v", got, size)
		}
		if err := m.AdmitBytes(id, size, 3, 1, versionBytes(id, 3)); err != nil {
			t.Fatal(err)
		}
		m.Release(id, 1)
		m.Release(id, 2)
		if got, want := anchorVersions(m, id), []int{3}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("anchor records after release = %v, want %v", got, want)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// TestKeptVersionsRaceBackupCompactResize: objects move through versions,
// three kept at a time, while Backup, compaction, ResizeTiers and readers
// of old versions run beside them. A read of a kept version returns its
// bytes or core.ErrNotFound, never other bytes; at the end the invariants
// hold and the anchor holds no record but its copies and the kept
// versions.
func TestKeptVersionsRaceBackupCompactResize(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		m, err := NewManager(s.config(t, 16*core.KB, 64*core.KB))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		const objects, rounds, depth = 8, 30, 3
		size := core.Bytes(len(versionBytes(1, 1)))
		for id := core.ObjectID(1); id <= objects; id++ {
			if err := m.AdmitBytes(id, size, 1, core.Priority(id), versionBytes(id, 1)); err != nil {
				t.Fatal(err)
			}
			m.Keep(id, 1)
		}

		done := make(chan struct{})
		var wg sync.WaitGroup
		loop := func(step func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
						step(i)
					}
				}
			}()
		}
		loop(func(int) { m.Backup() })
		loop(func(int) {
			if err := m.Sync(); err != nil {
				t.Error(err)
			}
			if r, ok := m.Backend(m.last()).(reclaimer); ok {
				if err := r.reclaim(0); err != nil {
					t.Error(err)
				}
			}
		})
		loop(func(i int) {
			mem := 4 * core.KB
			if i%2 == 1 {
				mem = 32 * core.KB
			}
			if err := m.ResizeTiers(map[string]core.Bytes{"memory": mem}); err != nil {
				t.Error(err)
			}
		})
		loop(func(i int) {
			id, v := core.ObjectID(1+i%objects), 1+i%rounds
			data, err := readVersion(m, id, v)
			if err == nil && !bytes.Equal(data, versionBytes(id, v)) {
				t.Errorf("object %d version %d read other bytes", id, v)
			} else if err != nil && !errors.Is(err, core.ErrNotFound) {
				t.Errorf("object %d version %d: %v", id, v, err)
			}
		})
		for v := 2; v <= rounds; v++ {
			for id := core.ObjectID(1); id <= objects; id++ {
				if err := m.UpdateBytes(id, v, versionBytes(id, v)); err != nil {
					t.Fatal(err)
				}
				m.Keep(id, v)
				if v > depth {
					m.Release(id, v-depth)
				}
			}
		}
		close(done)
		wg.Wait()

		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for id := core.ObjectID(1); id <= objects; id++ {
			if data, err := readVersion(m, id, rounds); err != nil || !bytes.Equal(data, versionBytes(id, rounds)) {
				t.Errorf("object %d current version: %d bytes, %v", id, len(data), err)
			}
			anchor := m.objects[id].copies[m.last()]
			for _, v := range anchorVersions(m, id) {
				if v <= rounds-depth && !(anchor.present && anchor.version == v) {
					t.Errorf("object %d: released version %d left on the anchor", id, v)
				}
			}
		}
	})
}
