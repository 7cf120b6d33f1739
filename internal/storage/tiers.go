// Package storage implements the Storage Manager of §4.4 and Figure 3: the
// mapping of the object hierarchy onto a storage hierarchy of main memory,
// disk and tertiary storage.
//
// The warehouse is capacity bound-free in aggregate — the tertiary level
// never refuses data — but the fast levels are finite, so placement is the
// whole game: objects are ranked by priority and water-filled top-down
// (highest priorities into memory until its capacity target, next into
// disk, the rest to tertiary).
//
// The manager also implements the paper's copy-control rules:
//
//   - data in main memory have exact copies on disk;
//   - data on disk have backup copies in tertiary storage "which may not
//     be exact copies due to the periodical back-up process";
//   - downgrading a priority just invalidates the fast copy; upgrading
//     copies data upward.
//
// and the "levels of details" rule of §4.1: an object too large for the
// tier its priority deserves keeps a small summary (B′) at that tier while
// the full body stays one level down.
//
// Each tier is backed by a BlobStore that holds the actual payload bytes:
// an in-heap map or an append-only segment log — read through a mapping
// under the mmap tier, bounded by the tier's capacity under the disk tier,
// unbounded under the anchor (see backend.go, segment.go, mmapstore.go,
// diskstore.go). Placement moves real bytes between the backends; the
// metadata in copyState is an index over them, not a simulation.
package storage

import (
	"fmt"

	"cbfww/internal/core"
)

// Tier is one level of the storage hierarchy: an index into the
// manager's tier table. Tier 0 is always the fastest level (the one the
// hierarchy-of-indices layer watches); the last tier is always the
// unbounded anchor every object has a copy in.
type Tier int

// The three levels of Figure 3 — the indices of the classic tier table
// (ClassicTiers). Smaller is faster. Only Memory holds on every table; a
// table may have more or fewer levels (e.g. an mmap-backed warm tier
// between memory and disk), so code that must work against any stack asks
// the manager (NumTiers, TierName) instead of using Disk and Tertiary.
const (
	Memory Tier = iota
	Disk
	Tertiary
)

// maxTiers bounds a tier table so placement scratch state can live on
// the stack.
const maxTiers = 8

// TierSpec declares one level of the hierarchy: the row of the
// declarative tier table the manager iterates instead of hardcoding the
// three Figure-3 levels.
type TierSpec struct {
	// Name identifies the tier in ResizeTiers targets, /stats sections
	// and scenario metrics (e.g. "memory", "mmap", "disk", "tertiary").
	Name string
	// Backend picks the blob store when Config.DataDir is set: "heap",
	// "mmap" (a segment log read through mappings, the NVM-shaped tier), "disk" (a segment log
	// the tier's capacity bounds) or "segment" (append-only log). With no DataDir every tier
	// is heap-backed regardless.
	Backend string
	// Capacity is the placement target. 0 means unbounded, required on
	// (exactly) the last tier.
	Capacity core.Bytes
	// Latency is the per-access cost in ticks; must be non-decreasing
	// down the table.
	Latency core.Duration
}

var knownBackends = map[string]bool{"heap": true, "mmap": true, "disk": true, "segment": true}

// String names the tier.
func (t Tier) String() string {
	switch t {
	case Memory:
		return "memory"
	case Disk:
		return "disk"
	case Tertiary:
		return "tertiary"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Config declares the hierarchy and its policies.
type Config struct {
	// Tiers is the tier table, ordered fastest to slowest: 2 to 8 rows,
	// names unique, latencies non-decreasing, every row finite except the
	// last, which must be unbounded (Capacity 0). Capacities are *targets*
	// for the finite tiers: placement fills them in priority order.
	Tiers []TierSpec
	// SummaryRatio is the size of a levels-of-detail summary relative to
	// the full object (e.g. 0.05). Zero disables summaries.
	SummaryRatio float64
	// SummaryThreshold: objects larger than this fraction of the memory
	// capacity are "large documents" (§4.3 problem (3)) and are stored in
	// memory as summaries only. Zero defaults to 0.25.
	SummaryThreshold float64

	// DataDir roots the persistent backends: each tier stores its blobs
	// under DataDir/<tier name>, and SaveManifest writes DataDir/MANIFEST.
	// Empty means all-in-heap mode: every tier is an in-memory store and
	// nothing survives the process.
	DataDir string
	// Summarize produces the levels-of-detail abstract of a payload,
	// targeting roughly the given size. Nil falls back to prefix
	// truncation; the warehouse installs a content-aware hook.
	Summarize func(payload []byte, target core.Bytes) []byte
	// SegmentSize is the segment-file rotation threshold. Zero defaults
	// to 4 MB.
	SegmentSize core.Bytes
}

// ClassicTiers returns the Figure-3 table — heap "memory", bounded-log
// "disk", segment-log "tertiary" — with the given capacity targets and the
// 2003-era latency ratios the paper argues from: memory is thousands of
// times faster than a web fetch, disk tens of times.
func ClassicTiers(mem, disk core.Bytes) []TierSpec {
	return []TierSpec{
		{Name: "memory", Backend: "heap", Capacity: mem, Latency: 0},
		{Name: "disk", Backend: "disk", Capacity: disk, Latency: 10},
		{Name: "tertiary", Backend: "segment", Capacity: 0, Latency: 100},
	}
}

// DefaultConfig is the classic table at 64 MB / 2 GB with 5% summaries.
func DefaultConfig() Config {
	return Config{Tiers: ClassicTiers(64*core.MB, 2*core.GB), SummaryRatio: 0.05}
}

// WithMmapTier returns cfg with an mmap-backed "mmap" row inserted below
// the fastest tier, sized warm, at an access cost a quarter of the way to
// the next row's. The serve daemon's -mmap-tier flag and the bench
// harness's -tiers flag build their stacks here.
func (cfg Config) WithMmapTier(warm core.Bytes) Config {
	t := cfg.Tiers
	if len(t) < 2 {
		return cfg // not a table yet; NewManager reports it
	}
	row := TierSpec{Name: "mmap", Backend: "mmap", Capacity: warm, Latency: t[0].Latency + (t[1].Latency-t[0].Latency)/4}
	cfg.Tiers = append([]TierSpec{t[0], row}, t[1:]...)
	return cfg
}

// tierTable validates the configured table and returns a private copy.
func (cfg Config) tierTable() ([]TierSpec, error) {
	if len(cfg.Tiers) < 2 || len(cfg.Tiers) > maxTiers {
		return nil, fmt.Errorf("storage: %w: tier table must have 2..%d entries, got %d", core.ErrInvalid, maxTiers, len(cfg.Tiers))
	}
	table := append([]TierSpec(nil), cfg.Tiers...)
	seen := make(map[string]bool, len(table))
	for i, ts := range table {
		if ts.Name == "" || seen[ts.Name] {
			return nil, fmt.Errorf("storage: %w: tier %d name %q empty or duplicate", core.ErrInvalid, i, ts.Name)
		}
		seen[ts.Name] = true
		if !knownBackends[ts.Backend] {
			return nil, fmt.Errorf("storage: %w: tier %q backend %q (want heap, mmap, disk or segment)", core.ErrInvalid, ts.Name, ts.Backend)
		}
		if i == len(table)-1 {
			if ts.Capacity != 0 {
				return nil, fmt.Errorf("storage: %w: last tier %q must be unbounded (capacity 0)", core.ErrInvalid, ts.Name)
			}
		} else if ts.Capacity <= 0 {
			return nil, fmt.Errorf("storage: %w: tier %q capacity must be positive", core.ErrInvalid, ts.Name)
		}
		if i > 0 && table[i-1].Latency > ts.Latency {
			return nil, fmt.Errorf("storage: %w: latencies must grow down the hierarchy", core.ErrInvalid)
		}
	}
	return table, nil
}

// copyState describes one tier's copy of an object.
type copyState struct {
	present bool
	// version of the content this copy holds.
	version int
	// summaryOnly marks a levels-of-detail abstract rather than the body.
	summaryOnly bool
}

// key returns the blob key naming this copy's bytes in its tier's backend.
func (c copyState) key(id core.ObjectID) BlobKey {
	return BlobKey{ID: id, Version: c.version, Summary: c.summaryOnly}
}

// object is the manager's record of one stored object.
type object struct {
	id       core.ObjectID
	size     core.Bytes
	version  int // current (latest known) content version
	priority core.Priority
	copies   []copyState // one entry per tier-table row
	// hasPayload marks objects admitted with real bytes (AdmitBytes):
	// placement moves their content between the tier backends. Objects
	// admitted metadata-only (Admit) are tracked and placed identically
	// but own no blobs — the experiments and benchmark harnesses use them
	// to study placement without paying for payload I/O.
	hasPayload bool
	// tertiaryPos is the object's position on the linear anchor medium
	// (§4.4 locality of reference); meaningful only while an anchor copy
	// exists.
	tertiaryPos int

	// The object's node in the manager's rank order (order.go): tree
	// links, balancing key, and the per-tier footprint sums of the subtree
	// rooted here. Placement reads them; serving never does.
	left, right, up *object
	heapKey         uint64
	sub             tierBytes
}

// key returns the object's place in the water-fill order.
func (o *object) key() rankKey { return rankKey{priority: o.priority, id: o.id} }

// summarySize returns the levels-of-detail footprint of the object.
func (o *object) summarySize(ratio float64) core.Bytes {
	s := core.Bytes(float64(o.size) * ratio)
	if s < 1 {
		s = 1
	}
	return s
}

// footprint returns the bytes the object occupies at tier t.
func (o *object) footprint(t Tier, ratio float64) core.Bytes {
	c := o.copies[t]
	if !c.present {
		return 0
	}
	if c.summaryOnly {
		return o.summarySize(ratio)
	}
	return o.size
}

// AccessResult reports how an access was served.
type AccessResult struct {
	// Tier that served the full object.
	Tier Tier
	// Latency of serving the full object.
	Latency core.Duration
	// PreviewTier/PreviewLatency are set when a faster tier held a
	// summary: the user sees an abstract at PreviewLatency while the body
	// arrives at Latency (§4.3's "fast preview even [when] the original
	// document is currently not available").
	PreviewTier    Tier
	PreviewLatency core.Duration
	HasPreview     bool
	// Stale marks a copy older than the object's current version.
	Stale bool
	// Version is the content version of the copy that served the access
	// (older than the object's current version exactly when Stale).
	Version int
}

// Stats counts manager activity.
type Stats struct {
	Accesses   int
	Migrations int
	Backups    int
	// Resizes counts capacity retargets (ResizeTiers calls).
	Resizes int
	// PlacementVisits counts the objects placement passes decided on. Per
	// admission it is the newcomer plus whatever the pass had to re-decide
	// below it — the number that must not grow with the population.
	PlacementVisits int
	// CostTotal accumulates access latency, the E-F3 metric.
	CostTotal core.Duration
	// MovedBytes accumulates, per tier, the bytes written into that tier
	// by admissions, placement copies, updates and backups (downgrades
	// delete bytes and move nothing). Indexed by tier-table position
	// (Memory/Disk/Tertiary on the default stack) — the scenario
	// matrix's bytes-moved-per-tier metric.
	MovedBytes []core.Bytes
	// DemotedBytes accumulates, per tier, the bytes invalidated at that
	// tier by downgrades. A downgrade deletes the fast copy — free in
	// I/O terms, invisible to MovedBytes — so this is the counter that
	// makes a capacity shrink observable: shrinking a tier by X demotes
	// ≈X bytes (± one blob) here.
	DemotedBytes []core.Bytes
}

// TierInfo is one row of the manager's live tier table: the /stats
// storage section and the admin-resize response body.
type TierInfo struct {
	Name     string        `json:"name"`
	Backend  string        `json:"backend"`
	Capacity core.Bytes    `json:"capacity"`
	Used     core.Bytes    `json:"used"`
	Moved    core.Bytes    `json:"moved_bytes"`
	Demoted  core.Bytes    `json:"demoted_bytes"`
	Latency  core.Duration `json:"latency"`
	Objects  int           `json:"objects"`
}
