package peers

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cbfww/internal/resilience"
)

// Peer protocol headers. From carries the comma-separated hop list of
// nodes a cluster-internal request has passed through (the loop guard: a
// node finding itself in the list serves locally, so multi-hop replica
// chains flow but true cycles stop); Node names the node whose warehouse
// actually served a response; Owner names the primary owner the ring
// assigns the URL to — together they make routing observable from any
// response.
const (
	HeaderFrom  = "X-CBFWW-From"
	HeaderNode  = "X-CBFWW-Node"
	HeaderOwner = "X-CBFWW-Owner"
)

// Config tunes the cluster tier.
type Config struct {
	// VNodes is the virtual-node count per member (<= 0 uses
	// DefaultVNodes).
	VNodes int
	// Timeout bounds one peer HTTP exchange (proxy attempt or probe).
	// <= 0 defaults to 2s — peers are LAN-close; a peer slower than the
	// origin budget is not worth waiting on.
	Timeout time.Duration
	// Retry is the per-peer retry budget for proxy calls. Zero values
	// default to 2 attempts with 25ms base backoff: one fast retry, then
	// route around.
	Retry resilience.RetryPolicy
	// Breaker is the per-peer circuit breaker; a zero Threshold defaults
	// to 3 consecutive failures (cool-down defaults inside resilience).
	Breaker resilience.BreakerConfig
	// Now overrides the breaker clock (tests); nil means time.Now.
	Now func() time.Time
	// Transport overrides the peer HTTP transport (tests); nil uses
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Replicas is the ownership replica-set size R: every URL is owned by
	// the first R distinct ring successors, primary first. <= 0 defaults
	// to DefaultReplicas; it is capped at the member count at lookup time.
	Replicas int
	// ProbeInterval paces the active health prober (jittered per round);
	// <= 0 defaults to 1s. The prober only runs after Start.
	ProbeInterval time.Duration
	// ProbeThreshold is how many consecutive failed health probes mark a
	// peer Down; <= 0 defaults to 3.
	ProbeThreshold int
	// HandoffLimit bounds each Down peer's hinted-handoff queue; when full
	// the oldest hint is dropped (and counted). <= 0 defaults to 128.
	HandoffLimit int
	// ReplicationQueue bounds the async replication queue shared by all
	// peers; a full queue drops the newest job (and counts it) rather than
	// block the admitting request. <= 0 defaults to 256.
	ReplicationQueue int
}

// DefaultReplicas is the default ownership replica-set size: primary plus
// one follower, the smallest R at which losing a node loses no bytes.
const DefaultReplicas = 2

// peerCounters is one peer's activity ledger, all atomics so the request
// path never takes the cluster lock to count.
type peerCounters struct {
	proxied       atomic.Uint64 // full requests we forwarded to this peer
	proxyFailures atomic.Uint64 // proxy attempts that died in transit or 5xx'd
	redirects     atomic.Uint64 // 307s we issued pointing at this peer
	forwarded     atomic.Uint64 // requests we served that this peer sent us
	peerHits      atomic.Uint64 // resident-only probes this peer answered
	peerMisses    atomic.Uint64 // resident-only probes this peer 404'd
	probeFailures atomic.Uint64 // probes that died in transit or 5xx'd
	routedAround  atomic.Uint64 // requests served locally because this peer was down or breaker-open

	// Health view (the active prober's verdict; zero value = Up).
	down           atomic.Bool   // consecutive health-probe failures crossed the threshold
	consecFails    atomic.Int32  // current health-probe failure streak
	healthProbes   atomic.Uint64 // health probes sent
	healthFailures atomic.Uint64 // health probes that failed
	wentDown       atomic.Uint64 // Up -> Down transitions
	wentUp         atomic.Uint64 // Down -> Up transitions

	// Replication + hinted handoff.
	replicated      atomic.Uint64 // admitted payloads pushed to this peer
	replicateFails  atomic.Uint64 // pushes that died in transit or were refused
	replicaReceived atomic.Uint64 // payloads this peer pushed to us
	handoffParked   atomic.Uint64 // hints parked while this peer was down
	handoffDropped  atomic.Uint64 // hints evicted from a full queue (oldest first)
	handoffDrained  atomic.Uint64 // hints delivered after the peer recovered
}

// clusterState is the swapped-atomically membership view.
type clusterState struct {
	self  string
	ring  *Ring
	peers []string // ring members minus self, sorted
}

// Cluster is one node's view of the peer ring: membership, ownership
// lookup, the peer HTTP client, per-peer breakers and counters. Safe for
// concurrent use; a zero-configured cluster (before Configure) behaves as
// a disabled single node.
type Cluster struct {
	cfg      Config
	client   *http.Client
	breakers *resilience.Breakers

	state atomic.Pointer[clusterState]

	mu       sync.Mutex
	counters map[string]*peerCounters // by peer address, survives reconfiguration

	// Replication machinery (handoff.go) and the health prober
	// (health.go). repq is created in NewCluster; the prober goroutine and
	// the replication worker only run between Start and Stop.
	handoff            *handoffQueue
	repq               chan repJob
	replicationDropped atomic.Uint64

	lifeMu sync.Mutex // guards stop/wg across Start/Stop
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewCluster builds an unconfigured cluster tier. It is inert — every
// Owners lookup says "self", FetchResident always misses — until Configure
// names the membership.
func NewCluster(cfg Config) *Cluster {
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retry.MaxAttempts < 1 {
		cfg.Retry.MaxAttempts = 2
	}
	if cfg.Retry.BaseBackoff <= 0 {
		cfg.Retry.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.Breaker.Threshold == 0 {
		cfg.Breaker.Threshold = 3
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeThreshold <= 0 {
		cfg.ProbeThreshold = 3
	}
	if cfg.HandoffLimit <= 0 {
		cfg.HandoffLimit = 128
	}
	if cfg.ReplicationQueue <= 0 {
		cfg.ReplicationQueue = 256
	}
	c := &Cluster{
		cfg:      cfg,
		client:   &http.Client{Timeout: cfg.Timeout, Transport: cfg.Transport},
		breakers: resilience.NewBreakers(cfg.Breaker, cfg.Now),
		counters: make(map[string]*peerCounters),
		handoff:  newHandoffQueue(cfg.HandoffLimit),
		repq:     make(chan repJob, cfg.ReplicationQueue),
	}
	return c
}

// Configure installs (or replaces) the membership: self's advertised
// address plus every member address, self included or not — it is added
// if missing. Existing per-peer counters survive reconfiguration, so a
// node that leaves and rejoins keeps its history.
func (c *Cluster) Configure(self string, members []string) {
	all := make([]string, 0, len(members)+1)
	all = append(all, members...)
	all = append(all, self)
	ring := NewRing(c.cfg.VNodes, all)
	peersOnly := make([]string, 0, len(ring.Members()))
	for _, m := range ring.Members() {
		if m != self {
			peersOnly = append(peersOnly, m)
		}
	}
	c.mu.Lock()
	for _, p := range peersOnly {
		if c.counters[p] == nil {
			c.counters[p] = &peerCounters{}
		}
	}
	c.mu.Unlock()
	c.state.Store(&clusterState{self: self, ring: ring, peers: peersOnly})
}

// Enabled reports whether Configure has run: an enabled cluster always
// has a self identity, even with no peers (the single-node cluster).
func (c *Cluster) Enabled() bool {
	return c != nil && c.state.Load() != nil
}

// Self returns this node's advertised address ("" before Configure).
func (c *Cluster) Self() string {
	if c == nil {
		return ""
	}
	if st := c.state.Load(); st != nil {
		return st.self
	}
	return ""
}

// Owners returns url's replica set — the first R distinct ring members,
// primary first — and whether this node is one of them. Before Configure
// the set is nil and self counts as a replica (the standalone node owns
// everything).
func (c *Cluster) Owners(url string) (owners []string, selfIn bool) {
	if c == nil {
		return nil, true
	}
	st := c.state.Load()
	if st == nil {
		return nil, true
	}
	owners = st.ring.Owners(url, c.cfg.Replicas)
	for _, o := range owners {
		if o == st.self {
			return owners, true
		}
	}
	return owners, len(owners) == 0
}

// counter returns (creating if needed) the ledger for addr.
func (c *Cluster) counter(addr string) *peerCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	pc := c.counters[addr]
	if pc == nil {
		pc = &peerCounters{}
		c.counters[addr] = pc
	}
	return pc
}

// CountForwarded records that this node served a request on from's
// behalf (the peer identified itself via HeaderFrom).
func (c *Cluster) CountForwarded(from string) {
	if c == nil || from == "" {
		return
	}
	c.counter(from).forwarded.Add(1)
}

// CountRedirect records a 307 issued toward owner.
func (c *Cluster) CountRedirect(owner string) {
	if c == nil {
		return
	}
	c.counter(owner).redirects.Add(1)
}

// CountRoutedAround records that addr was skipped by routing because it
// was Down or breaker-open.
func (c *Cluster) CountRoutedAround(addr string) {
	if c == nil || addr == "" {
		return
	}
	c.counter(addr).routedAround.Add(1)
}

// CountReplicaReceived records a /peer/put payload pushed to us by from.
func (c *Cluster) CountReplicaReceived(from string) {
	if c == nil || from == "" {
		return
	}
	c.counter(from).replicaReceived.Add(1)
}

// PeerStat is one peer's ledger plus its breaker state — the /stats
// "cluster" section row.
type PeerStat struct {
	Addr          string `json:"addr"`
	Breaker       string `json:"breaker"`
	Health        string `json:"health"` // "up" or "down" (the active prober's verdict)
	Proxied       uint64 `json:"proxied"`
	ProxyFailures uint64 `json:"proxy_failures"`
	Redirects     uint64 `json:"redirects"`
	Forwarded     uint64 `json:"forwarded"`
	PeerHits      uint64 `json:"peer_hits"`
	PeerMisses    uint64 `json:"peer_misses"`
	ProbeFailures uint64 `json:"probe_failures"`
	RoutedAround  uint64 `json:"routed_around"`

	HealthProbes   uint64 `json:"health_probes"`
	HealthFailures uint64 `json:"health_failures"`
	WentDown       uint64 `json:"went_down"`
	WentUp         uint64 `json:"went_up"`

	Replicated      uint64 `json:"replicated"`
	ReplicateFails  uint64 `json:"replicate_failures"`
	ReplicaReceived uint64 `json:"replica_received"`
	HandoffParked   uint64 `json:"handoff_parked"`
	HandoffDropped  uint64 `json:"handoff_dropped"`
	HandoffDrained  uint64 `json:"handoff_drained"`
	HandoffQueued   int    `json:"handoff_queued"`
}

// ClusterStats is the /stats "cluster" section. The section always
// renders — Peers is empty but non-nil on a single node — so dashboards
// never need a shape branch.
type ClusterStats struct {
	Enabled            bool       `json:"enabled"`
	Self               string     `json:"self"`
	Members            int        `json:"members"`
	VNodes             int        `json:"vnodes"`
	Replicas           int        `json:"replicas"`
	ReplicationDropped uint64     `json:"replication_dropped"`
	Peers              []PeerStat `json:"peers"`
}

// Stats snapshots the cluster tier. Safe on a nil cluster (the section
// still renders, disabled and empty).
func (c *Cluster) Stats() ClusterStats {
	out := ClusterStats{Peers: []PeerStat{}}
	if c == nil {
		return out
	}
	st := c.state.Load()
	if st == nil {
		out.VNodes = c.cfg.VNodes
		return out
	}
	out.Enabled = true
	out.Self = st.self
	out.Members = len(st.ring.Members())
	out.VNodes = st.ring.VNodes()
	out.Replicas = c.cfg.Replicas
	out.ReplicationDropped = c.replicationDropped.Load()
	for _, p := range st.peers {
		pc := c.counter(p)
		health := "up"
		if pc.down.Load() {
			health = "down"
		}
		out.Peers = append(out.Peers, PeerStat{
			Addr:            p,
			Breaker:         c.breakers.State(p),
			Health:          health,
			Proxied:         pc.proxied.Load(),
			ProxyFailures:   pc.proxyFailures.Load(),
			Redirects:       pc.redirects.Load(),
			Forwarded:       pc.forwarded.Load(),
			PeerHits:        pc.peerHits.Load(),
			PeerMisses:      pc.peerMisses.Load(),
			ProbeFailures:   pc.probeFailures.Load(),
			RoutedAround:    pc.routedAround.Load(),
			HealthProbes:    pc.healthProbes.Load(),
			HealthFailures:  pc.healthFailures.Load(),
			WentDown:        pc.wentDown.Load(),
			WentUp:          pc.wentUp.Load(),
			Replicated:      pc.replicated.Load(),
			ReplicateFails:  pc.replicateFails.Load(),
			ReplicaReceived: pc.replicaReceived.Load(),
			HandoffParked:   pc.handoffParked.Load(),
			HandoffDropped:  pc.handoffDropped.Load(),
			HandoffDrained:  pc.handoffDrained.Load(),
			HandoffQueued:   c.handoff.len(p),
		})
	}
	return out
}

// BreakerState exposes a peer's breaker state (tests and diagnostics).
func (c *Cluster) BreakerState(addr string) string {
	if c == nil {
		return "closed"
	}
	return c.breakers.State(addr)
}
