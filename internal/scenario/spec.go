// Package scenario is the declarative benchmark matrix of the regression
// rig: a validated spec describes a workload × topology × policy
// cross-product, a runner expands it into deterministic seeded runs over
// the internal/workload generators (warehouse replays for the paper's
// admission policies, trace simulations for the bounded baselines), and
// the results are emitted both as machine-readable JSON (BENCH_<name>.json)
// and as a human table. A check pass compares a fresh run against a
// checked-in baseline under per-metric tolerances, so CI fails loudly —
// naming the cell and metric — when a change regresses a number the
// repo's tables cite.
package scenario

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"cbfww/internal/core"
)

// Spec is one scenario matrix: the axes plus the shared run shape.
type Spec struct {
	// Name keys the output files (BENCH_<name>.json) and table titles.
	Name string
	// Run is the world shape shared by every cell.
	Run RunConfig
	// Workload, Topology and Policies are the matrix axes.
	Workload WorkloadAxes
	Topology TopologyAxes
	Policies []string
	// Tolerances maps a gated metric name (or "default") to the relative
	// regression slack the check pass allows, in (0, 1].
	Tolerances map[string]float64
}

// RunConfig shapes the generated world every cell replays.
type RunConfig struct {
	// Seed drives all randomness: same seed, same spec, same bytes out.
	Seed int64
	// Sites × PagesPerSite size the synthetic web.
	Sites        int
	PagesPerSite int
	// Sessions and Length bound the trace.
	Sessions int
	Length   core.Duration
	// Users is the client population.
	Users int
	// MaintainEvery is the warehouse maintenance cadence in ticks.
	MaintainEvery core.Duration
	// OriginLatency is the miss cost, in ticks, charged by the bounded
	// cache simulations (the warehouse pays its simulated per-site origin
	// latencies instead).
	OriginLatency core.Duration
}

// WorkloadAxes are the workload dimensions; every listed value multiplies
// the matrix.
type WorkloadAxes struct {
	// Zipf is the popularity skew s.
	Zipf []float64
	// OneTimerMass in [0, 1] biases walks toward one-off tail pages: the
	// runner maps it to the session follow-link probability (deep walks
	// touch many pages exactly once — the §1 one-timer mass).
	OneTimerMass []float64
	// Churn is expected page updates per tick.
	Churn []float64
	// Burst entries are "none" or "<count>x<intensity>" (e.g. "2x0.8"):
	// count evenly spaced hot-spot surges at the given traffic fraction.
	Burst []string
}

// TopologyAxes are the deployment dimensions.
type TopologyAxes struct {
	// Shards is the warehouse lock-stripe count.
	Shards []int
	// Mem and Disk are tier capacity targets.
	Mem  []core.Bytes
	Disk []core.Bytes
	// Backend is "heap" (all-in-memory simulation backends), "disk"
	// (real segment-log disk and tertiary backends in a temp dir) or "mmap"
	// (the middle tier on the mmap store, disk-shaped names so
	// cells stay comparable across backends).
	Backend []string
	// Capacity entries are "static" or "<mode>@<frac>x<factor>" with mode
	// shrink, grow or oscillate: at frac of the trace, retarget every
	// finite tier to factor × its size. Oscillate re-fires at each
	// multiple of frac, alternating factor and 1 — the
	// capacity-changes-mid-workload scenario class.
	Capacity []string
}

// BurstSpec is a parsed Burst axis value.
type BurstSpec struct {
	Count     int
	Intensity float64
}

// CapacitySpec is a parsed Capacity axis value.
type CapacitySpec struct {
	// Mode is "static", "shrink", "grow" or "oscillate".
	Mode string
	// At is the trace fraction at which the first retarget fires; Factor
	// scales every finite tier's capacity. Oscillate fires again at each
	// multiple of At, alternating Factor and 1.
	At, Factor float64
}

// Static reports whether the schedule never retargets capacities.
func (c CapacitySpec) Static() bool { return c.Mode == "" || c.Mode == "static" }

// Cell is one fully instantiated point of the cross-product.
type Cell struct {
	Zipf, OneTimerMass, Churn float64
	Burst                     BurstSpec
	BurstLabel                string

	Shards        int
	Mem, Disk     core.Bytes
	Backend       string
	Capacity      CapacitySpec
	CapacityLabel string

	Policy string
}

// ID names the cell in results JSON, tables and check output.
func (c Cell) ID() string {
	return fmt.Sprintf("zipf=%s,mass=%s,churn=%s,burst=%s | shards=%d,mem=%v,disk=%v,backend=%s,cap=%s | %s",
		ftoa(c.Zipf), ftoa(c.OneTimerMass), ftoa(c.Churn), c.BurstLabel,
		c.Shards, c.Mem, c.Disk, c.Backend, c.CapacityLabel, c.Policy)
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// The policy axis vocabulary. Warehouse policies run the full admission
// machinery; cache policies replay the trace through internal/cache.
var warehousePolicies = map[string]bool{
	"paper":      true, // evidence-based admission priority (the paper)
	"newest-top": true, // every newcomer enters at top priority (LRU tradition)
	"pessimist":  true, // every newcomer enters at the bottom
}

var cachePolicies = map[string]bool{
	"lru": true, "mru": true, "fifo": true, "lfu": true, "mfu": true,
	"gdsf": true, "lru2": true, "size": true, "infinite": true,
}

// KnownPolicies lists the accepted policy axis values, sorted.
func KnownPolicies() []string {
	var out []string
	for p := range warehousePolicies {
		out = append(out, p)
	}
	for p := range cachePolicies {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// GatedMetrics maps each check-gated metric to its regression direction:
// true = higher is better (a drop regresses), false = lower is better.
var GatedMetrics = map[string]bool{
	"hit_ratio":      true,
	"mem_hit_ratio":  true,
	"origin_fetches": false,
	"stale_serves":   false,
	"latency_mean":   false,
	"latency_p50":    false,
	"latency_p90":    false,
	"latency_p99":    false,
}

// maxCells bounds the cross-product so a typo'd axis cannot melt CI.
const maxCells = 512

var nameRe = regexp.MustCompile(`^[a-zA-Z0-9_-]+$`)

// DefaultSpec returns the axis-free skeleton: callers (and the decoders)
// fill axes in; absent axes default to a single neutral value.
func DefaultSpec() Spec {
	return Spec{
		Run: RunConfig{
			Seed:          1,
			Sites:         10,
			PagesPerSite:  40,
			Sessions:      1200,
			Length:        200_000,
			Users:         200,
			MaintainEvery: 3600,
			OriginLatency: 150,
		},
		Workload: WorkloadAxes{
			Zipf:         []float64{0.9},
			OneTimerMass: []float64{0.5},
			Churn:        []float64{0},
			Burst:        []string{"none"},
		},
		Topology: TopologyAxes{
			Shards:   []int{1},
			Mem:      []core.Bytes{2 * core.MB},
			Disk:     []core.Bytes{64 * core.MB},
			Backend:  []string{"heap"},
			Capacity: []string{"static"},
		},
		Policies:   []string{"paper", "lru", "infinite"},
		Tolerances: map[string]float64{"default": 0.05},
	}
}

// Validate checks the spec's internal consistency. It is called by the
// decoders after mapping, and by callers who build specs in code.
func (s *Spec) Validate() error {
	if s.Name == "" || !nameRe.MatchString(s.Name) {
		return fmt.Errorf("scenario: %w: name %q must be non-empty [a-zA-Z0-9_-]", core.ErrInvalid, s.Name)
	}
	r := s.Run
	if r.Sites < 1 || r.PagesPerSite < 1 || r.Sessions < 1 || r.Users < 1 {
		return fmt.Errorf("scenario: %w: run sites/pages_per_site/sessions/users must be >= 1", core.ErrInvalid)
	}
	if r.Length <= 0 || r.MaintainEvery <= 0 || r.OriginLatency < 0 {
		return fmt.Errorf("scenario: %w: run length/maintain_every must be positive, origin_latency >= 0", core.ErrInvalid)
	}
	axes := []struct {
		name string
		n    int
	}{
		{"workload.zipf", len(s.Workload.Zipf)},
		{"workload.one_timer_mass", len(s.Workload.OneTimerMass)},
		{"workload.churn", len(s.Workload.Churn)},
		{"workload.burst", len(s.Workload.Burst)},
		{"topology.shards", len(s.Topology.Shards)},
		{"topology.mem", len(s.Topology.Mem)},
		{"topology.disk", len(s.Topology.Disk)},
		{"topology.backend", len(s.Topology.Backend)},
		{"topology.capacity", len(s.Topology.Capacity)},
		{"policy.policies", len(s.Policies)},
	}
	cells := 1
	for _, a := range axes {
		if a.n == 0 {
			return fmt.Errorf("scenario: %w: empty axis %s", core.ErrInvalid, a.name)
		}
		cells *= a.n
	}
	if cells > maxCells {
		return fmt.Errorf("scenario: %w: matrix has %d cells (max %d)", core.ErrInvalid, cells, maxCells)
	}
	for _, z := range s.Workload.Zipf {
		if z <= 0 || z > 5 {
			return fmt.Errorf("scenario: %w: workload.zipf %v out of (0, 5]", core.ErrInvalid, z)
		}
	}
	for _, m := range s.Workload.OneTimerMass {
		if m < 0 || m > 1 {
			return fmt.Errorf("scenario: %w: workload.one_timer_mass %v out of [0, 1]", core.ErrInvalid, m)
		}
	}
	for _, c := range s.Workload.Churn {
		if c < 0 || c > 1 {
			return fmt.Errorf("scenario: %w: workload.churn %v out of [0, 1]", core.ErrInvalid, c)
		}
	}
	for _, b := range s.Workload.Burst {
		if _, err := ParseBurst(b); err != nil {
			return err
		}
	}
	for _, n := range s.Topology.Shards {
		if n < 1 || n > 256 {
			return fmt.Errorf("scenario: %w: topology.shards %d out of [1, 256]", core.ErrInvalid, n)
		}
	}
	for _, b := range s.Topology.Mem {
		if b <= 0 {
			return fmt.Errorf("scenario: %w: topology.mem %v must be positive", core.ErrInvalid, b)
		}
	}
	for _, b := range s.Topology.Disk {
		if b <= 0 {
			return fmt.Errorf("scenario: %w: topology.disk %v must be positive", core.ErrInvalid, b)
		}
	}
	for _, b := range s.Topology.Backend {
		if b != "heap" && b != "disk" && b != "mmap" {
			return fmt.Errorf("scenario: %w: topology.backend %q (want heap, disk or mmap)", core.ErrInvalid, b)
		}
	}
	for _, c := range s.Topology.Capacity {
		if _, err := ParseCapacity(c); err != nil {
			return err
		}
	}
	for _, p := range s.Policies {
		if !warehousePolicies[p] && !cachePolicies[p] {
			return fmt.Errorf("scenario: %w: unknown policy %q (known: %s)",
				core.ErrInvalid, p, strings.Join(KnownPolicies(), ", "))
		}
	}
	for metric, tol := range s.Tolerances {
		if _, gated := GatedMetrics[metric]; metric != "default" && !gated {
			return fmt.Errorf("scenario: %w: tolerance for unknown metric %q", core.ErrInvalid, metric)
		}
		if tol <= 0 || tol > 1 {
			return fmt.Errorf("scenario: %w: tolerance %s=%v out of (0, 1]", core.ErrInvalid, metric, tol)
		}
	}
	return nil
}

// ParseBurst parses a Burst axis entry: "none" or "<count>x<intensity>".
func ParseBurst(s string) (BurstSpec, error) {
	if s == "none" {
		return BurstSpec{}, nil
	}
	var b BurstSpec
	if _, err := fmt.Sscanf(s, "%dx%f", &b.Count, &b.Intensity); err != nil ||
		b.Count < 1 || b.Count > 32 || b.Intensity <= 0 || b.Intensity > 1 {
		return BurstSpec{}, fmt.Errorf("scenario: %w: burst %q (want \"none\" or \"<count>x<intensity>\", e.g. \"2x0.8\")",
			core.ErrInvalid, s)
	}
	return b, nil
}

// ParseCapacity parses a Capacity axis entry: "static" or
// "<mode>@<frac>x<factor>" with mode shrink (factor < 1), grow
// (factor > 1) or oscillate (either direction, alternating with 1).
func ParseCapacity(s string) (CapacitySpec, error) {
	if s == "static" {
		return CapacitySpec{Mode: "static"}, nil
	}
	bad := func() (CapacitySpec, error) {
		return CapacitySpec{}, fmt.Errorf("scenario: %w: capacity %q (want \"static\" or \"<shrink|grow|oscillate>@<frac>x<factor>\", e.g. \"shrink@0.5x0.25\"; shrink needs factor < 1, grow > 1, both in (0, 4])",
			core.ErrInvalid, s)
	}
	mode, sched, ok := strings.Cut(s, "@")
	if !ok {
		return bad()
	}
	var c CapacitySpec
	if _, err := fmt.Sscanf(sched, "%fx%f", &c.At, &c.Factor); err != nil ||
		c.At <= 0 || c.At >= 1 || c.Factor <= 0 || c.Factor > 4 {
		return bad()
	}
	switch mode {
	case "shrink":
		if c.Factor >= 1 {
			return bad()
		}
	case "grow":
		if c.Factor <= 1 {
			return bad()
		}
	case "oscillate":
		if c.Factor == 1 {
			return bad()
		}
	default:
		return bad()
	}
	c.Mode = mode
	return c, nil
}

// Cells expands the validated spec into its cross-product, in a fixed
// axis-major order (workload outermost, policy innermost) so cell lists
// — and everything derived from them — are deterministic.
func (s *Spec) Cells() []Cell {
	var out []Cell
	for _, zipf := range s.Workload.Zipf {
		for _, mass := range s.Workload.OneTimerMass {
			for _, churn := range s.Workload.Churn {
				for _, burst := range s.Workload.Burst {
					bs, _ := ParseBurst(burst)
					for _, shards := range s.Topology.Shards {
						for _, mem := range s.Topology.Mem {
							for _, disk := range s.Topology.Disk {
								for _, backend := range s.Topology.Backend {
									for _, capSched := range s.Topology.Capacity {
										cs, _ := ParseCapacity(capSched)
										for _, pol := range s.Policies {
											out = append(out, Cell{
												Zipf: zipf, OneTimerMass: mass, Churn: churn,
												Burst: bs, BurstLabel: burst,
												Shards: shards, Mem: mem, Disk: disk,
												Backend: backend, Capacity: cs, CapacityLabel: capSched,
												Policy: pol,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Tolerance returns the check slack for metric, falling back to the
// "default" entry, then to 0.05.
func (s *Spec) Tolerance(metric string) float64 {
	if t, ok := s.Tolerances[metric]; ok {
		return t
	}
	if t, ok := s.Tolerances["default"]; ok {
		return t
	}
	return 0.05
}
