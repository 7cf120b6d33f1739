// Package warehouse is the core of the reproduction: the Capacity
// Bound-free Web Warehouse itself. It wires every manager from Figure 1
// around one fetch-through path:
//
//	user request ── resident? ──► Storage Manager (tiered access)
//	      │ miss                      ▲ placement by priority
//	      ▼                           │
//	Web Requester ─► Constraint Mgr ─► Priority Mgr (admission-time priority
//	      │                           from semantic regions + hot topics)
//	      ▼                           │
//	   indexes, version store, usage tracker, semantic regions, topic model
//
// plus the non-transparent surfaces the paper promises: popularity-aware
// queries (§4.3), recommendations and social navigation (§3(5)),
// version history (§3(6)) and path mining over its caller's access log.
package warehouse

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"cbfww/internal/cluster"
	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/object"
	"cbfww/internal/priority"
	"cbfww/internal/recommend"
	"cbfww/internal/schema"
	"cbfww/internal/storage"
	"cbfww/internal/text"
	"cbfww/internal/topic"
	"cbfww/internal/usage"
	"cbfww/internal/version"
)

// Config assembles the warehouse's tunables.
type Config struct {
	// Storage sizes the tier hierarchy.
	Storage storage.Config
	// Admission rules gate what enters the warehouse; nil admits all.
	Admission *constraint.Admission
	// Consistency picks strong or weak freshness.
	Consistency constraint.Consistency
	// Priority tunes admission-time priority.
	Priority priority.Config
	// RegionMinSim is the cosine threshold for semantic-region membership;
	// RegionMax caps the region count (0 = unbounded).
	RegionMinSim float64
	RegionMax    int
	// Omega is the title-over-body weight of §5.3 (ω > 1).
	Omega float64
	// Miner bounds logical-document discovery.
	Miner logmine.MinerConfig
	// VersionDepth bounds stored versions per URL (0 = unlimited). The
	// anchor tier keeps the body of every version the history lists.
	VersionDepth int
	// DataDir, when non-empty, roots the warehouse's durable state: the
	// storage tiers' file backends live under <DataDir>/store, and
	// Checkpoint writes the page catalog and version index beside them so
	// Rehydrate can resurrect admitted pages after a restart. Empty keeps
	// every tier in the heap — the simulation shape.
	DataDir string
	// AdmissionDecay is applied to each page's admission-time priority
	// estimate at every Maintain: the estimate is evidence about an
	// object nobody has re-referenced yet, and it must fade on a disuse
	// timescale so measured usage takes over (§4.3 problem (4)).
	AdmissionDecay float64
	// Shards is the lock-stripe count for the hot page state (see
	// shard.go). 0 picks GOMAXPROCS — one stripe per schedulable core is
	// the point of diminishing returns for lock striping. 1 degenerates
	// to the old single-lock warehouse (useful as a reference model in
	// tests).
	Shards int
}

// ApplySchema merges a parsed storage-schema definition (§4.4's schema
// definition language, internal/schema) into the configuration: storage
// geometry (tier directives edit c.Storage's table by row name), admission
// rules and consistency discipline. A schema the table cannot honour is
// core.ErrInvalid and changes nothing.
func (c *Config) ApplySchema(s schema.Schema) error {
	return s.Apply(&c.Storage, &c.Admission, &c.Consistency)
}

// The tunables of the usage tracker, the path miner, the recommender and
// the topic model, at the values the experiments run with.
const (
	// usageLambda is the usage tracker's λ-aging weight and
	// usageAgingEpoch its epoch length in ticks.
	usageLambda     = 0.3
	usageAgingEpoch = 3600
	// sessionTimeout separates navigation sessions for path mining.
	sessionTimeout = 1800
	// profileBlend tunes recommendation profiles.
	profileBlend = 0.2
	// sensorDecay tunes topic-burst baselines.
	sensorDecay = 0.9
	// topicGain scales how strongly news bursts boost the topic model.
	topicGain = 1.0
	// topicDecay is applied to the topic model at every Maintain.
	topicDecay = 0.98
)

// DefaultConfig returns the configuration the experiments run with.
func DefaultConfig() Config {
	return Config{
		Storage:        storage.DefaultConfig(),
		Admission:      constraint.NewAdmission(),
		Consistency:    constraint.DefaultConsistency(),
		Priority:       priority.DefaultConfig(),
		RegionMinSim:   0.15,
		RegionMax:      256,
		Omega:          3,
		Miner:          logmine.DefaultMinerConfig(),
		VersionDepth:   16,
		AdmissionDecay: 0.8,
	}
}

// PeerSource is the cluster tier's lookup hook: a source of pages some
// other warehouse node already admitted, consulted on cold misses before
// the origin. Implementations must be resident-only on the remote side —
// a probe must never trigger another origin fetch — so the miss order
// stays local → peer → origin with exactly one origin fetch per object
// cluster-wide. peers.Cluster implements it.
type PeerSource interface {
	FetchResident(ctx context.Context, url string) (core.FetchResult, bool)
}

// peerSourceBox wraps the interface so it can live in an atomic.Pointer
// (the daemon wires the cluster in after its listener binds, possibly
// with requests already flowing).
type peerSourceBox struct{ ps PeerSource }

// SetPeerSource installs (or replaces) the cluster-peer lookup consulted
// on cold misses. Safe to call concurrently with requests.
func (w *Warehouse) SetPeerSource(ps PeerSource) {
	w.peerSrc.Store(&peerSourceBox{ps: ps})
}

// peerSource returns the installed peer source, nil when absent.
func (w *Warehouse) peerSource() PeerSource {
	if b := w.peerSrc.Load(); b != nil {
		return b.ps
	}
	return nil
}

// Replicator is the cluster tier's write hook: called (non-blocking, from
// under the shard lock) whenever this warehouse admits or refreshes a
// page's content from the origin or a peer probe, so the cluster can push
// the payload to the rest of the URL's replica set. Implementations must
// queue and return — peers.Cluster.ReplicateAdmitted does. Replica pushes
// received via AdmitReplica never re-fire the hook (no replication
// storms).
type Replicator func(url string, page core.Page)

// replicatorBox wraps the func for atomic installation (same pattern as
// peerSourceBox: the daemon wires the cluster in after construction).
type replicatorBox struct{ rep Replicator }

// SetReplicator installs (or replaces) the replication hook. Safe to call
// concurrently with requests.
func (w *Warehouse) SetReplicator(rep Replicator) {
	w.replicatorFn.Store(&replicatorBox{rep: rep})
}

// replicator returns the installed hook, nil when absent.
func (w *Warehouse) replicator() Replicator {
	if b := w.replicatorFn.Load(); b != nil {
		return b.rep
	}
	return nil
}

// Stats counts warehouse activity.
type Stats struct {
	Requests      int
	Hits          int // served from the warehouse (any tier)
	MemoryHits    int
	OriginFetches int
	// PeerFetches counts cold misses satisfied by another cluster node's
	// admitted copy instead of the origin (the peer tier between memory
	// and origin).
	PeerFetches   int
	Revalidations int
	Refetches     int // origin GETs of a resident page on a user request
	Prefetches    int
	// Coalesced counts requests that found their cold URL's first fetch
	// already out and waited for it instead of fetching. One that is
	// served also counts as the request it would have been a moment
	// later: a hit on the kept copy, or a miss on a refused page.
	Coalesced int
	// ReplicaAdmits counts payloads absorbed from replica-set peers'
	// /peer/put pushes (fresh admissions and in-place updates both).
	ReplicaAdmits int
	Rejected      int // admission-constraint rejections
	// StaleServes counts degraded serves: the origin failed but a resident
	// copy answered, marked stale (the §5.2 copy-control promise).
	StaleServes int
	// IndexMemoryProbes / IndexDiskProbes count tiered index accesses
	// (§4.1's index hierarchy).
	IndexMemoryProbes int
	IndexDiskProbes   int
	// LatencyTotal accumulates user-visible latency (tier or origin).
	LatencyTotal core.Duration
}

// HitRatio returns warehouse hits over requests.
func (s Stats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// MeanLatency returns average user-visible latency per request.
func (s Stats) MeanLatency() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.LatencyTotal) / float64(s.Requests)
}

// pageState is warehouse-local bookkeeping per admitted physical page.
type pageState struct {
	physID    core.ObjectID
	container core.ObjectID
	version   int
	vec       text.Vector
	region    int
	lastCheck core.Time
	// updateGap is an EMA of observed ticks between content changes.
	updateGap         float64
	lastMod           core.Time
	admissionPriority core.Priority
	// anchors maps link target URL -> anchor text, recorded at admission
	// so logical-document titles can be assembled without re-consulting
	// the origin (§5.2).
	anchors map[string]string
	// inHotIndex tracks membership of the memory-resident detailed index
	// (§4.1's index hierarchy).
	inHotIndex bool
}

// Warehouse is the assembled CBFWW system.
type Warehouse struct {
	cfg   Config
	clock core.Clock
	web   core.Origin

	corpus  *text.Corpus
	index   *text.InvertedIndex
	objects *object.Hierarchy
	builder *object.Builder
	tracker *usage.Tracker
	regions *cluster.Online
	topics  *topic.Manager
	sensor  *topic.Sensor
	prios   *priority.Manager
	store   *storage.Manager
	history *version.Store
	social  *recommend.Manager

	// shards stripe the hot per-URL state (page map, counters, hot-index
	// segments); see shard.go. Fixed at construction, so reads of the
	// slice itself need no lock.
	shards []*shard

	// metaMu guards the cold, low-traffic maps below: mined-path
	// bookkeeping, feed registration and stored views. It is never held
	// together with a shard lock on any writer path, and only ever in
	// metaMu->shard order on readers, so it cannot deadlock with the
	// stripes.
	metaMu           sync.RWMutex
	feeds            []*topic.NewsFeed
	lastPrefetchPoll core.Time
	// logicalSupport remembers mined path support per logical page ID.
	logicalSupport map[core.ObjectID]int
	// regionObjOf maps cluster region index -> region object ID.
	regionObjOf map[int]core.ObjectID
	// views holds per-user stored queries: user -> name -> query text
	// (§3(5)'s per-user views of relevant contents).
	views map[string]map[string]string

	// Tiered-index probe counters are warehouse-global (a search sweeps
	// every shard), kept as atomics so SearchTiered stays lock-free
	// outside the shard sweeps.
	indexMemProbes  atomic.Int64
	indexDiskProbes atomic.Int64

	// pageOfContainer routes storage residency events (container object ID)
	// back to the owning page URL, and thus to the shard whose hot segment
	// must change. Entries are registered before the container is admitted
	// to storage so no event can precede its route.
	pageOfContainer sync.Map // core.ObjectID -> string (URL)
	// hotGen is the storage memory-residency generation the hot segments
	// currently reflect; when it matches the Storage Manager's counter the
	// segments are provably current and tiered reads skip maintenance
	// entirely. hotMaintMu serializes the drain itself.
	hotGen     atomic.Uint64
	hotMaintMu sync.Mutex

	// peerSrc, when set, is the cluster tier consulted on cold misses
	// before the origin (local → peer → origin). Installed after
	// construction via SetPeerSource, hence the atomic box.
	peerSrc atomic.Pointer[peerSourceBox]

	// replicatorFn, when set, receives every locally admitted or
	// refreshed payload so the cluster can replicate it. Installed after
	// construction via SetReplicator, hence the atomic box.
	replicatorFn atomic.Pointer[replicatorBox]

	// pool, when set, bounds the cold misses fetching at once and the
	// time of each origin trip (pool.go). Installed after construction via
	// SetFetchWorkers.
	pool atomic.Pointer[fetchPool]
}

// New assembles a warehouse over the given (simulated) web.
func New(cfg Config, clock core.Clock, web core.Origin) (*Warehouse, error) {
	if clock == nil || web == nil {
		return nil, fmt.Errorf("warehouse: %w: nil clock or web", core.ErrInvalid)
	}
	if cfg.DataDir != "" && cfg.Storage.DataDir == "" {
		cfg.Storage.DataDir = filepath.Join(cfg.DataDir, "store")
	}
	if cfg.Storage.Summarize == nil {
		// Levels-of-detail summaries truncate the page body but stay
		// decodable, so summary blobs remain servable previews.
		cfg.Storage.Summarize = summarizePagePayload
	}
	store, err := storage.NewManager(cfg.Storage)
	if err != nil {
		return nil, err
	}
	regions, err := cluster.NewOnline(cfg.RegionMinSim, cfg.RegionMax)
	if err != nil {
		return nil, err
	}
	corpus := text.NewCorpus()
	topics := topic.NewManager(corpus.Dict())
	prios, err := priority.NewManager(cfg.Priority, clock, regions, topics)
	if err != nil {
		return nil, err
	}
	if cfg.Admission == nil {
		cfg.Admission = constraint.NewAdmission()
	}
	if cfg.AdmissionDecay <= 0 || cfg.AdmissionDecay > 1 {
		cfg.AdmissionDecay = 0.8
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	w := &Warehouse{
		cfg:              cfg,
		clock:            clock,
		web:              web,
		corpus:           corpus,
		index:            text.NewInvertedIndex(corpus.Dict()),
		objects:          object.NewHierarchy(),
		tracker:          usage.NewTracker(clock, usageLambda),
		regions:          regions,
		topics:           topics,
		sensor:           topic.NewSensor(clock, sensorDecay),
		prios:            prios,
		store:            store,
		social:           recommend.NewManager(profileBlend),
		shards:           make([]*shard, cfg.Shards),
		lastPrefetchPoll: core.TimeNever,
		logicalSupport:   make(map[core.ObjectID]int),
		regionObjOf:      make(map[int]core.ObjectID),
	}
	for i := range w.shards {
		w.shards[i] = &shard{
			pages:    make(map[string]*pageState),
			flights:  make(map[string]*flight),
			hotIndex: text.NewInvertedIndex(corpus.Dict()),
		}
	}
	w.tracker.SetAgingEpoch(usageAgingEpoch)
	w.history = version.NewStoreOn(cfg.VersionDepth, historyBodies{w})
	w.builder = object.NewBuilder(w.objects)
	return w, nil
}

// WatchFeed registers a news feed with the Topic Sensor.
func (w *Warehouse) WatchFeed(f *topic.NewsFeed) {
	w.sensor.AddFeed(f)
	w.metaMu.Lock()
	defer w.metaMu.Unlock()
	w.feeds = append(w.feeds, f)
}

// Stats sums the activity counters over all shards. Each shard is read
// under its own lock, so the total is per-shard consistent: counters from
// a request in flight on another shard may or may not be included, exactly
// as with any monitoring snapshot.
func (w *Warehouse) Stats() Stats {
	var total Stats
	for _, sh := range w.shards {
		sh.mu.RLock()
		s := sh.stats
		sh.mu.RUnlock()
		total.Requests += s.Requests
		total.Hits += s.Hits
		total.MemoryHits += s.MemoryHits
		total.OriginFetches += s.OriginFetches
		total.PeerFetches += s.PeerFetches
		total.Revalidations += s.Revalidations
		total.Refetches += s.Refetches
		total.Prefetches += s.Prefetches
		total.Coalesced += s.Coalesced
		total.ReplicaAdmits += s.ReplicaAdmits
		total.Rejected += s.Rejected
		total.StaleServes += s.StaleServes
		total.LatencyTotal += s.LatencyTotal
	}
	total.IndexMemoryProbes = int(w.indexMemProbes.Load())
	total.IndexDiskProbes = int(w.indexDiskProbes.Load())
	return total
}

// Close releases file-backed resources (storage tier backends). It does
// not checkpoint: call Checkpoint first for a shutdown that survives a
// restart.
func (w *Warehouse) Close() error {
	return w.store.Close()
}

// Topics exposes the Topic Manager (REPL: HOT, RELATED).
func (w *Warehouse) Topics() *topic.Manager { return w.topics }

// StorageManager exposes the storage tiers (failure-injection experiments).
func (w *Warehouse) StorageManager() *storage.Manager { return w.store }

// Versions exposes the version store.
func (w *Warehouse) Versions() *version.Store { return w.history }

// Corpus exposes the shared corpus (examples vectorize queries with it).
func (w *Warehouse) Corpus() *text.Corpus { return w.corpus }

// Hierarchy exposes the object hierarchy for experiments that inspect
// structure directly.
func (w *Warehouse) Hierarchy() *object.Hierarchy { return w.objects }
