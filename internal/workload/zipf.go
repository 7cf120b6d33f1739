// Package workload generates the synthetic equivalents of everything the
// paper measured on private data: a topic-structured web corpus (standing
// in for the live web), and Kyoto-inet-like access traces with Zipf
// popularity, a heavy one-time-access tail, short-lived hot-spot events and
// content updates. All generators are deterministic given a seed.
package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// Unlike math/rand's Zipf it supports any s > 0 (including s <= 1) and
// samples by inverse-CDF lookup, which keeps it exact and fast for the
// corpus sizes used here (up to a few million ranks).
type Zipf struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipf builds a sampler over n ranks with skew s. It panics when n < 1
// or s < 0 (s = 0 degenerates to uniform, which is allowed and useful).
func NewZipf(rng *rand.Rand, n int, s float64) *Zipf {
	if n < 1 {
		panic("workload: Zipf needs n >= 1")
	}
	if s < 0 {
		panic("workload: Zipf needs s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{rng: rng, cdf: cdf}
}

// Sample draws one rank in [0, N).
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Permutation returns a deterministic pseudo-random permutation of 0..n-1
// drawn from rng, used to scatter popularity ranks over page IDs so that
// popular pages are not clustered by construction.
func Permutation(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}
