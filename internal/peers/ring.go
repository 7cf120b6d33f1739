// Package peers is the warehouse's horizontal tier: a consistent-hash
// ring of cooperating daemons between one process's memory and the origin
// web. The single process stopped being the capacity bound when the
// warehouse was lock-striped; this package removes the next bound — the
// machine — by federating independent daemons over plain HTTP, the
// cache-daemon-federation shape of Voras & Žagar.
//
// Five mechanisms, composable and individually testable:
//
//   - the ring (ring.go): every URL hashes to an R-sized *replica set* of
//     distinct owner nodes (Owners, primary first) via virtual-node
//     consistent hashing, so membership changes move a bounded slice of
//     the key space (≈1/N on a join of N+1 nodes, at most one member of
//     any replica set) and every node computes the same owners with no
//     coordination;
//   - the cluster (cluster.go): static membership, per-peer circuit
//     breakers and retry budgets (the resilience layer extended
//     per-peer), and per-peer activity counters for /stats;
//   - the client (client.go): the HTTP peer protocol — full request
//     proxying with a hop-list loop guard, resident-only probes so a
//     replica's miss checks the cluster before the origin
//     (local → peer → origin), and replication pushes (/peer/put);
//   - the health view (health.go): an active prober that flips peers
//     Down after consecutive failed /healthz probes and Up on recovery,
//     layered on the breakers so routing skips dead peers even when no
//     traffic has recently taught a breaker;
//   - hinted handoff (handoff.go): admitted payloads are replicated
//     asynchronously to the rest of the replica set; pushes to a Down
//     peer park in a bounded per-peer queue and drain on recovery.
//
// A peer that is Down or breaker-open is routed around, never waited on:
// the gateway falls back to the next healthy replica or its local serve
// path (and the warehouse's own stale-serve degradation), so node loss
// degrades locality, not service.
package peers

import (
	"sort"
)

// DefaultVNodes is the virtual-node count per member: 128 points per node
// keeps key distribution within a few percent of uniform for small
// clusters while the ring stays tiny (N×128 points).
const DefaultVNodes = 128

// ringPoint is one virtual node: a position on the hash circle owned by a
// member.
type ringPoint struct {
	hash   uint64
	member int32 // index into Ring.members
}

// Ring is an immutable consistent-hash ring over member addresses.
// Construct with NewRing; look up owners with Owners. Immutability is the
// concurrency story: membership changes build a new ring and swap it.
type Ring struct {
	vnodes  int
	members []string
	points  []ringPoint
}

// NewRing builds a ring with the given virtual-node count (<= 0 uses
// DefaultVNodes) over the member addresses. Members are deduplicated and
// sorted first, so rings built from the same set in any order are
// identical — every node derives the same ownership with no coordination.
func NewRing(vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		vnodes:  vnodes,
		members: uniq,
		points:  make([]ringPoint, 0, vnodes*len(uniq)),
	}
	for mi, m := range uniq {
		h := hash64(m)
		for v := 0; v < vnodes; v++ {
			// Each virtual node rehashes the member hash with its index;
			// mix64 avalanches the combination so points scatter uniformly
			// even though member strings and indices are highly regular.
			r.points = append(r.points, ringPoint{
				hash:   mix64(h ^ mix64(uint64(v)+0x9e3779b97f4a7c15)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on member order so the ring
		// stays deterministic regardless of construction order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owners returns the replica set for key: the first n distinct members
// clockwise from the key's hash, primary first (the member of the first
// ring point clockwise from the hash). n is capped at the member count; an
// empty ring yields nil. The returned slice is freshly allocated.
func (r *Ring) Owners(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := mix64(hash64(key))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	owners := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	// Walk clockwise collecting distinct members; the walk terminates
	// because every member contributes at least one point.
	for i := 0; len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		owners = append(owners, r.members[p.member])
	}
	return owners
}

// Members returns the member set, sorted. The slice is shared: callers
// must not mutate it.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return r.members
}

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int {
	if r == nil {
		return 0
	}
	return r.vnodes
}

// hash64 is FNV-1a over s. FNV alone clusters for regular inputs (URLs
// share long prefixes); callers push the result through mix64.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the 64-bit avalanche finalizer (splitmix64): every input bit
// affects every output bit, which is what keeps vnode points and key
// hashes uniform on the circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
