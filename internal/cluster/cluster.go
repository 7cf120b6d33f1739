// Package cluster provides the clustering substrate behind semantic
// regions (§5.3). The paper denotes a semantic region R = (σ, λ) — a
// centroid σ with radius λ — and assumes "a suitable near-optimum
// [streaming] algorithm" exists, citing LSEARCH and BIRCH. This package
// provides:
//
//   - Online: a single-pass leader-style clusterer that assigns each
//     arriving logical document to the nearest existing region when it is
//     similar enough, and opens a new region otherwise. This is the
//     clusterer the Semantic Region Manager runs in production, because
//     admission decisions cannot wait for a batch.
//   - KMedian: a batch k-median in the LSEARCH family — k-means++-style
//     weighted seeding followed by Lloyd refinement and facility-swap local
//     search — used offline to rebuild regions and in E-F7 to compare
//     against the online clusterer.
//
// Distances are Euclidean over unit-normalized TF-IDF vectors, so squared
// distance and cosine similarity are monotonically related
// (d² = 2 − 2·cos); thresholds are expressed as cosine similarity, which
// is easier to reason about for text.
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"cbfww/internal/core"
	"cbfww/internal/text"
)

// Point is one item to cluster: an object and its feature vector. Vectors
// should be unit-normalized.
type Point struct {
	ID  core.ObjectID
	Vec text.Vector
}

// Region is one cluster: the semantic region of the paper, kept as its
// centroid σ (no reader needs its radius λ). It is the snapshot Regions
// returns.
type Region struct {
	// Index is the region's position in the clusterer's region list; it is
	// stable for the life of the clusterer (regions are never removed,
	// only merged into).
	Index int
	// Centroid is σ, the running mean of member vectors (kept normalized).
	Centroid text.Vector
	// Members lists assigned object IDs in arrival order.
	Members []core.ObjectID
}

// region is a Region as the clusterer keeps it. Its centroid is scattered
// by TermID and stepped in place, so scoring a page against it costs the
// page's terms, not the centroid's. It holds 8 B per TermID up to the
// largest the region has seen, plus 4 B per centroid term.
type region struct {
	centroid *text.Scorer
	members  []core.ObjectID
	weight   float64 // the number of vectors absorbed into the centroid
}

// Online is the single-pass clusterer. Safe for concurrent use.
type Online struct {
	mu sync.RWMutex
	// minSim is the cosine similarity above which a point joins the
	// nearest existing region instead of founding a new one.
	minSim float64
	// maxRegions caps the region count; when a new point would exceed it,
	// the point is forced into the nearest region regardless of minSim
	// (memory-bounded operation, as streaming algorithms require).
	maxRegions int
	regions    []*region
	assign     map[core.ObjectID]int
}

// NewOnline returns an online clusterer. minSim must be in (0, 1);
// maxRegions <= 0 means unbounded.
func NewOnline(minSim float64, maxRegions int) (*Online, error) {
	if minSim <= 0 || minSim >= 1 {
		return nil, fmt.Errorf("cluster: %w: minSim %v outside (0,1)", core.ErrInvalid, minSim)
	}
	return &Online{
		minSim:     minSim,
		maxRegions: maxRegions,
		assign:     make(map[core.ObjectID]int),
	}, nil
}

// Assign places p into a region and returns the region index: the nearest
// region when it is similar enough or the region cap is reached, a new one
// otherwise. An ID is a member of one region, once. Re-assigning an ID
// whose region is still the one chosen changes nothing; an ID that moves
// leaves its old region's members (its contribution to the old centroid
// stays: streaming algorithms cannot un-absorb) and joins the new one.
func (o *Online) Assign(p Point) int {
	o.mu.Lock()
	defer o.mu.Unlock()

	best, bestSim := o.nearestLocked(p.Vec)
	forced := o.maxRegions > 0 && len(o.regions) >= o.maxRegions
	joins := best >= 0 && (bestSim >= o.minSim || forced)
	old, known := o.assign[p.ID]
	if known {
		if joins && old == best {
			return best
		}
		r := o.regions[old]
		k := slices.Index(r.members, p.ID)
		r.members = slices.Delete(r.members, k, k+1)
	}
	if joins {
		r := o.regions[best]
		r.weight++
		// new_mean = mean + (x - mean)/n, stepped in place and re-normalized.
		r.centroid.Step(p.Vec, 1/r.weight)
		r.members = append(r.members, p.ID)
		o.assign[p.ID] = best
		return best
	}
	// Found a new region; it owns its scatter for good.
	o.regions = append(o.regions, &region{
		centroid: p.Vec.Scorer(),
		members:  []core.ObjectID{p.ID},
		weight:   1,
	})
	o.assign[p.ID] = len(o.regions) - 1
	return len(o.regions) - 1
}

// nearestLocked scores v against every centroid, in v's terms; the first
// of equally similar regions wins. It returns -1, -1 without regions.
func (o *Online) nearestLocked(v text.Vector) (idx int, sim float64) {
	idx, sim = -1, -1
	for i, r := range o.regions {
		if s := r.centroid.Cosine(v); s > sim {
			idx, sim = i, s
		}
	}
	return idx, sim
}

// Nearest returns the index of the region whose centroid is most cosine-
// similar to v, with that similarity; ok is false when no regions exist.
// It does not modify the clusterer, so queries can probe regions freely.
func (o *Online) Nearest(v text.Vector) (idx int, sim float64, ok bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	idx, sim = o.nearestLocked(v)
	return idx, sim, idx >= 0
}

// Regions returns a snapshot of the regions: each centroid copied out of
// its scatter, each member list copied, so callers cannot corrupt the
// clusterer.
func (o *Online) Regions() []Region {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]Region, len(o.regions))
	for i, r := range o.regions {
		out[i] = Region{
			Index:    i,
			Centroid: r.centroid.Vector(),
			Members:  slices.Clone(r.members),
		}
	}
	return out
}

// Len returns the current region count.
func (o *Online) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.regions)
}

// SizeOf returns the member count of region idx (0 for unknown indices).
// It is the cheap accessor the Priority Manager uses to convert region
// heat into per-member heat.
func (o *Online) SizeOf(idx int) int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if idx < 0 || idx >= len(o.regions) {
		return 0
	}
	return len(o.regions[idx].members)
}

// SSQ computes the sum of squared centroid distances of the given points
// under an assignment function — the clustering quality measure the paper
// adopts ("the quality of clustering is measured by the sum of square
// distance of data points from their centroid").
func SSQ(points []Point, centroidOf func(Point) text.Vector) float64 {
	var s float64
	for _, p := range points {
		c := centroidOf(p)
		d := p.Vec.Distance(c)
		s += d * d
	}
	return s
}

// Purity measures agreement with ground-truth labels: the fraction of
// points whose cluster's majority label matches their own. Clusters and
// labels are supplied as parallel maps from object ID.
func Purity(clusterOf map[core.ObjectID]int, labelOf map[core.ObjectID]int) float64 {
	if len(clusterOf) == 0 {
		return 0
	}
	// cluster -> label -> count
	counts := make(map[int]map[int]int)
	for id, c := range clusterOf {
		l, ok := labelOf[id]
		if !ok {
			continue
		}
		if counts[c] == nil {
			counts[c] = make(map[int]int)
		}
		counts[c][l]++
	}
	correct, total := 0, 0
	for _, labels := range counts {
		best, sum := 0, 0
		for _, n := range labels {
			sum += n
			if n > best {
				best = n
			}
		}
		correct += best
		total += sum
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// KMedianResult is the outcome of a batch clustering run.
type KMedianResult struct {
	Centroids []text.Vector
	// Assign maps each input point (by slice position) to a centroid index.
	Assign []int
	// Cost is the final SSQ.
	Cost float64
}

// KMedian clusters points into k groups with weighted seeding, Lloyd
// refinement and facility-swap local search (the LSEARCH family's local
// improvement step). rng drives seeding and swap proposals; swaps is the
// number of local-search proposals (0 disables the phase).
func KMedian(points []Point, k int, rng *rand.Rand, lloydIters, swaps int) (KMedianResult, error) {
	if k < 1 {
		return KMedianResult{}, fmt.Errorf("cluster: %w: k = %d", core.ErrInvalid, k)
	}
	if len(points) == 0 {
		return KMedianResult{}, fmt.Errorf("cluster: %w: no points", core.ErrInvalid)
	}
	if k > len(points) {
		k = len(points)
	}
	cents := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	for it := 0; it < lloydIters; it++ {
		changed := assignAll(points, cents, assign)
		recompute(points, assign, cents)
		if !changed {
			break
		}
	}
	cost := costOf(points, cents, assign)

	// Facility-swap local search: propose replacing a random centroid with
	// a random point; keep the swap when total cost improves.
	for s := 0; s < swaps; s++ {
		ci := rng.Intn(len(cents))
		pi := rng.Intn(len(points))
		old := cents[ci]
		cents[ci] = points[pi].Vec.Clone()
		trial := make([]int, len(points))
		assignAll(points, cents, trial)
		recompute(points, trial, cents)
		if c := costOf(points, cents, trial); c < cost {
			cost = c
			copy(assign, trial)
		} else {
			cents[ci] = old
			assignAll(points, cents, assign)
		}
	}
	return KMedianResult{Centroids: cents, Assign: assign, Cost: cost}, nil
}

// seedPlusPlus picks k initial centroids with distance-weighted sampling.
func seedPlusPlus(points []Point, k int, rng *rand.Rand) []text.Vector {
	cents := make([]text.Vector, 0, k)
	cents = append(cents, points[rng.Intn(len(points))].Vec.Clone())
	d2 := make([]float64, len(points))
	for len(cents) < k {
		var sum float64
		for i, p := range points {
			best := p.Vec.Distance(cents[0])
			for _, c := range cents[1:] {
				if d := p.Vec.Distance(c); d < best {
					best = d
				}
			}
			d2[i] = best * best
			sum += d2[i]
		}
		if sum == 0 {
			// All points coincide with existing centroids; duplicate one.
			cents = append(cents, cents[0].Clone())
			continue
		}
		u := rng.Float64() * sum
		acc := 0.0
		pick := len(points) - 1
		for i, w := range d2 {
			acc += w
			if acc >= u {
				pick = i
				break
			}
		}
		cents = append(cents, points[pick].Vec.Clone())
	}
	return cents
}

func assignAll(points []Point, cents []text.Vector, assign []int) (changed bool) {
	for i, p := range points {
		best, bestD := 0, p.Vec.Distance(cents[0])
		for c := 1; c < len(cents); c++ {
			if d := p.Vec.Distance(cents[c]); d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

func recompute(points []Point, assign []int, cents []text.Vector) {
	sums := make([]text.Builder, len(cents))
	counts := make([]int, len(cents))
	for i := range sums {
		sums[i] = text.NewBuilder()
	}
	for i, p := range points {
		sums[assign[i]].AddScaled(p.Vec, 1)
		counts[assign[i]]++
	}
	for c := range cents {
		if counts[c] > 0 {
			cents[c] = sums[c].Vector().Scale(1 / float64(counts[c])).Normalize()
		}
	}
}

func costOf(points []Point, cents []text.Vector, assign []int) float64 {
	var s float64
	for i, p := range points {
		d := p.Vec.Distance(cents[assign[i]])
		s += d * d
	}
	return s
}

// topTerms renders a region's n strongest terms through a dictionary: the
// human-readable face of a semantic region.
func topTerms(r Region, dict *text.Dictionary, n int) []string {
	ids := r.Centroid.Top(n)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = dict.Term(id)
	}
	return out
}
