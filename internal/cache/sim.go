package cache

import (
	"fmt"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
)

// Result summarizes one trace-driven simulation run.
type Result struct {
	Policy string
	// Capacity is the simulated cache size in bytes (0 for INF).
	Capacity core.Bytes
	// Requests and Hits count object-level accesses.
	Requests, Hits int
	// ReqBytes and HitBytes weight by object size (byte hit ratio, the
	// web-adapted measure §1 mentions).
	ReqBytes, HitBytes core.Bytes
}

// HitRatio returns hits over requests.
func (r Result) HitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Requests)
}

// ByteHitRatio returns hit bytes over requested bytes.
func (r Result) ByteHitRatio() float64 {
	if r.ReqBytes == 0 {
		return 0
	}
	return float64(r.HitBytes) / float64(r.ReqBytes)
}

// String renders the result as an experiment table row.
func (r Result) String() string {
	return fmt.Sprintf("%-7s cap=%-8v hit=%5.1f%% bytehit=%5.1f%% (%d/%d)",
		r.Policy, r.Capacity, 100*r.HitRatio(), 100*r.ByteHitRatio(), r.Hits, r.Requests)
}

// Run replays a log against the cache. A record with Modified=true
// invalidates the cached copy first (the origin changed, so a stale hit is
// not a hit), which mirrors a cache with perfect consistency checking.
func Run(c Cache, trace logmine.Log) Result {
	res := Result{Policy: c.Name()}
	if b, ok := c.(interface{ capacityOf() core.Bytes }); ok {
		res.Capacity = b.capacityOf()
	}
	for _, rec := range trace {
		res.Requests++
		res.ReqBytes += rec.Bytes
		key := rec.URL
		if rec.Modified {
			// The origin changed since the cached copy was stored, so a
			// stale hit is not a hit: the fetch counts as a miss, but the
			// access still updates the policy's bookkeeping and residency.
			c.Access(key, rec.Bytes, rec.Time)
			continue
		}
		if c.Access(key, rec.Bytes, rec.Time) {
			res.Hits++
			res.HitBytes += rec.Bytes
		}
	}
	return res
}

func (c *listCache) capacityOf() core.Bytes  { return c.capacity }
func (c *scoreCache) capacityOf() core.Bytes { return c.capacity }

// sweep runs the same trace across several cache constructors and
// capacities, returning results in input order.
func sweep(trace logmine.Log, capacities []core.Bytes, makes ...func(core.Bytes) Cache) []Result {
	var out []Result
	for _, mk := range makes {
		for _, cap := range capacities {
			out = append(out, Run(mk(cap), trace))
		}
	}
	return out
}
