package peers

import (
	"fmt"
	"testing"
)

// ringKeys generates a URL-shaped key population: the regular, shared-
// prefix strings the ring must spread uniformly despite their structure.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://site%d.example/articles/page-%d.html", i%17, i)
	}
	return keys
}

func ringMembers(n int) []string {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("10.0.0.%d:8642", i+1)
	}
	return members
}

// TestRingDistribution asserts per-member key share stays within ±15% of
// uniform at the default 128 vnodes, for every small-cluster size.
func TestRingDistribution(t *testing.T) {
	const numKeys = 20000
	keys := ringKeys(numKeys)
	for n := 2; n <= 8; n++ {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			members := ringMembers(n)
			r := NewRing(DefaultVNodes, members)
			counts := make(map[string]int, n)
			for _, k := range keys {
				counts[r.Owners(k, 1)[0]]++
			}
			uniform := float64(numKeys) / float64(n)
			for _, m := range members {
				share := float64(counts[m])
				if dev := (share - uniform) / uniform; dev < -0.15 || dev > 0.15 {
					t.Errorf("member %s owns %d keys (%.1f%% off uniform %.0f); want within ±15%%",
						m, counts[m], 100*dev, uniform)
				}
			}
		})
	}
}

// TestRingMovementOnJoin asserts the consistent-hash contract: growing an
// N-member ring to N+1 moves at most ~1/(N+1) of the keys (a small ε of
// slack for vnode granularity), and every moved key lands on the new
// member — keys never shuffle between survivors.
func TestRingMovementOnJoin(t *testing.T) {
	const numKeys = 20000
	keys := ringKeys(numKeys)
	for n := 2; n <= 8; n++ {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			members := ringMembers(n + 1)
			before := NewRing(DefaultVNodes, members[:n])
			after := NewRing(DefaultVNodes, members)
			joined := members[n]
			moved := 0
			for _, k := range keys {
				ob, oa := before.Owners(k, 1)[0], after.Owners(k, 1)[0]
				if ob == oa {
					continue
				}
				moved++
				if oa != joined {
					t.Fatalf("key %q moved %s -> %s, but the only new member is %s", k, ob, oa, joined)
				}
			}
			// Expected share is 1/(N+1); allow 1.5x for vnode granularity.
			limit := int(1.5 * float64(numKeys) / float64(n+1))
			if moved > limit {
				t.Errorf("join moved %d/%d keys, want <= %d (≈1/%d plus slack)", moved, numKeys, limit, n+1)
			}
			if moved == 0 {
				t.Error("join moved no keys: the new member owns nothing")
			}
		})
	}
}

// TestRingMovementOnLeave is the inverse contract: removing one member
// relocates only the keys it owned; every other key keeps its owner.
func TestRingMovementOnLeave(t *testing.T) {
	const numKeys = 20000
	keys := ringKeys(numKeys)
	for n := 3; n <= 8; n++ {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			members := ringMembers(n)
			before := NewRing(DefaultVNodes, members)
			leaver := members[n-1]
			after := NewRing(DefaultVNodes, members[:n-1])
			for _, k := range keys {
				ob, oa := before.Owners(k, 1)[0], after.Owners(k, 1)[0]
				if ob != leaver && ob != oa {
					t.Fatalf("key %q owned by survivor %s moved to %s when %s left", k, ob, oa, leaver)
				}
				if ob == leaver && oa == leaver {
					t.Fatalf("key %q still owned by departed member %s", k, leaver)
				}
			}
		})
	}
}

// TestRingDeterminism: same member set in any order, same ring.
func TestRingDeterminism(t *testing.T) {
	members := ringMembers(5)
	shuffled := []string{members[3], members[0], members[4], members[2], members[1], members[0]}
	a := NewRing(DefaultVNodes, members)
	b := NewRing(DefaultVNodes, shuffled) // reordered + duplicate
	for _, k := range ringKeys(500) {
		if oa, ob := a.Owners(k, 1)[0], b.Owners(k, 1)[0]; oa != ob {
			t.Fatalf("owner(%q) differs by construction order: %s vs %s", k, oa, ob)
		}
	}
}

// TestRingOwnersDistinct: a replica set is n distinct members led by the
// primary owner, capped at the member count, for every requested size.
func TestRingOwnersDistinct(t *testing.T) {
	keys := ringKeys(2000)
	for n := 2; n <= 6; n++ {
		members := ringMembers(n)
		r := NewRing(DefaultVNodes, members)
		for want := 1; want <= n+2; want++ {
			expect := want
			if expect > n {
				expect = n
			}
			for _, k := range keys {
				owners := r.Owners(k, want)
				if len(owners) != expect {
					t.Fatalf("Owners(%q, %d) on %d members returned %d owners, want %d", k, want, n, len(owners), expect)
				}
				if primary := r.Owners(k, 1)[0]; owners[0] != primary {
					t.Fatalf("Owners(%q, %d)[0] = %s, but the primary is %s", k, want, owners[0], primary)
				}
				seen := make(map[string]bool, len(owners))
				for _, o := range owners {
					if seen[o] {
						t.Fatalf("Owners(%q, %d) repeats member %s: %v", k, want, o, owners)
					}
					seen[o] = true
				}
			}
		}
	}
}

// TestRingOwnersStableUnderVNodes: the replica-set *contract* (distinct
// members, primary-first, full size) holds at every vnode granularity, and
// for a fixed ring the walk is deterministic call to call.
func TestRingOwnersStableUnderVNodes(t *testing.T) {
	members := ringMembers(5)
	keys := ringKeys(1000)
	for _, vn := range []int{16, 64, 128, 256} {
		r := NewRing(vn, members)
		for _, k := range keys {
			owners := r.Owners(k, 2)
			if len(owners) != 2 || owners[0] == owners[1] {
				t.Fatalf("vnodes=%d Owners(%q,2) = %v, want 2 distinct", vn, k, owners)
			}
			if again := r.Owners(k, 2); owners[0] != again[0] || owners[1] != again[1] {
				t.Fatalf("vnodes=%d Owners(%q,2) not deterministic: %v vs %v", vn, k, owners, again)
			}
		}
	}
}

// TestRingOwnersMovementOnJoin extends the ring-quality bounds to replica
// sets: one join changes at most one member of any key's replica set (the
// joiner can displace one incumbent, never reshuffle survivors among
// themselves), and every new appearance is the joiner.
func TestRingOwnersMovementOnJoin(t *testing.T) {
	const numKeys = 20000
	keys := ringKeys(numKeys)
	for n := 3; n <= 8; n++ {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			members := ringMembers(n + 1)
			before := NewRing(DefaultVNodes, members[:n])
			after := NewRing(DefaultVNodes, members)
			joined := members[n]
			changedSets := 0
			for _, k := range keys {
				ob := before.Owners(k, 2)
				oa := after.Owners(k, 2)
				lost := diffSet(ob, oa)
				gained := diffSet(oa, ob)
				if len(lost) > 1 || len(gained) > 1 {
					t.Fatalf("key %q replica set changed %v -> %v: more than one member swapped", k, ob, oa)
				}
				for _, g := range gained {
					if g != joined {
						t.Fatalf("key %q replica set %v -> %v gained %s, but the only new member is %s", k, ob, oa, g, joined)
					}
				}
				if len(gained) > 0 {
					changedSets++
				}
			}
			// Each key has 2 replica slots, each with ~1/(N+1) chance of
			// moving to the joiner: bound changed sets by 2/(N+1) plus slack.
			limit := int(1.5 * 2 * float64(numKeys) / float64(n+1))
			if changedSets > limit {
				t.Errorf("join changed %d/%d replica sets, want <= %d", changedSets, numKeys, limit)
			}
		})
	}
}

// TestRingOwnersMovementOnLeave: removing one member changes at most one
// slot of any replica set, and survivors never swap among themselves.
func TestRingOwnersMovementOnLeave(t *testing.T) {
	const numKeys = 20000
	keys := ringKeys(numKeys)
	for n := 4; n <= 8; n++ {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			members := ringMembers(n)
			before := NewRing(DefaultVNodes, members)
			leaver := members[n-1]
			after := NewRing(DefaultVNodes, members[:n-1])
			for _, k := range keys {
				ob := before.Owners(k, 2)
				oa := after.Owners(k, 2)
				lost := diffSet(ob, oa)
				gained := diffSet(oa, ob)
				if len(lost) > 1 || len(gained) > 1 {
					t.Fatalf("key %q replica set changed %v -> %v on one leave", k, ob, oa)
				}
				for _, l := range lost {
					if l != leaver {
						t.Fatalf("key %q lost survivor %s from replica set %v -> %v when %s left", k, l, ob, oa, leaver)
					}
				}
				for _, o := range oa {
					if o == leaver {
						t.Fatalf("key %q replica set %v still contains departed %s", k, oa, leaver)
					}
				}
			}
		})
	}
}

// diffSet returns the members of a not present in b.
func diffSet(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, m := range b {
		inB[m] = true
	}
	var out []string
	for _, m := range a {
		if !inB[m] {
			out = append(out, m)
		}
	}
	return out
}

func TestRingEdges(t *testing.T) {
	var nilRing *Ring
	empty := NewRing(0, nil)
	if got := empty.VNodes(); got != DefaultVNodes {
		t.Errorf("vnodes <= 0 should default to %d, got %d", DefaultVNodes, got)
	}
	if got := nilRing.Owners("http://a.example/", 2); got != nil {
		t.Errorf("nil ring owners = %v, want nil", got)
	}
	if got := empty.Owners("http://a.example/", 2); got != nil {
		t.Errorf("empty ring owners = %v, want nil", got)
	}
	single := NewRing(4, []string{"only:1", "", "only:1"})
	if got := len(single.Members()); got != 1 {
		t.Fatalf("members after dedup/blank-filter = %d, want 1", got)
	}
	if got := single.Owners("http://a.example/", 3); len(got) != 1 || got[0] != "only:1" {
		t.Errorf("single-member Owners = %v, want [only:1]", got)
	}
	if got := single.Owners("http://a.example/", 0); got != nil {
		t.Errorf("Owners(k, 0) = %v, want nil", got)
	}
	for _, k := range ringKeys(50) {
		if got := single.Owners(k, 1)[0]; got != "only:1" {
			t.Fatalf("single-member ring owner = %q, want only:1", got)
		}
	}
}
