// Command cbfww-serve runs the warehouse as a network daemon: the gateway
// subsystem serving fetch-through, popularity-aware queries, search and
// recommendations over HTTP.
//
// It fetches through real HTTP sockets, resolving every logical host to
// the address given by the required -origin flag. Any web server that
// answers for the requested hosts will do; for a synthetic web with no
// network, serve one with cbfww-loadgen -serve:
//
//	cbfww-loadgen -serve 127.0.0.1:9000 &
//	cbfww-serve -addr 127.0.0.1:8642 -origin 127.0.0.1:9000
//
// With -data-dir the storage tiers are file-backed and durable: shutdown
// checkpoints the placement manifest, version history and page catalog,
// and the next start rehydrates them, serving previously admitted pages
// without contacting the origin:
//
//	cbfww-serve -data-dir /var/tmp/cbfww
//
// With -join the daemon becomes one node of a static peer ring: URLs hash
// to a replica set of -replicas nodes (default 2), non-replicas proxy
// (or, with -redirect, 307) to the first healthy replica, admitted
// payloads replicate asynchronously to the other replicas, and a
// replica's cold miss checks its peers before the origin, so an object
// admitted anywhere in the cluster hits the origin once. A health prober
// (-probe-interval, -probe-threshold) marks unresponsive peers Down:
// traffic routes around them, replication pushes park in a hinted-handoff
// queue and drain when the peer returns. List every member (self included
// or not — it is added automatically):
//
//	cbfww-serve -addr 127.0.0.1:8642 -origin 127.0.0.1:9000 \
//	    -join 127.0.0.1:8642,127.0.0.1:8643,127.0.0.1:8644
//
// Endpoints: GET /fetch?url=, GET /body?url=, POST /query, GET /search,
// GET /recommend, GET /peer/fetch?url= and POST /peer/put
// (cluster-internal), GET /stats, GET /healthz (JSON; "degraded" with
// detail when a peer is Down or a breaker open, always HTTP 200).
// SIGINT/SIGTERM shut down gracefully, draining in-flight requests and
// flushing durable state.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/crawl"
	"cbfww/internal/gateway"
	"cbfww/internal/peers"
	"cbfww/internal/resilience"
	"cbfww/internal/schema"
	"cbfww/internal/warehouse"
)

// options collects the daemon's flags (separated from flag parsing so the
// smoke test can build a daemon directly).
type options struct {
	addr          string
	schemaFile    string
	dataDir       string
	origin        string
	workers       int
	shards        int
	fetchTimeout  time.Duration
	maintainEvery time.Duration

	// Origin resilience: retry attempts per origin call and per-host
	// breaker threshold/cool-down.
	retry            int
	breakerThreshold int
	breakerCooldown  time.Duration

	// pprof mounts net/http/pprof under /debug/pprof/ on the gateway.
	pprof bool
	// admin mounts POST /admin/resize on the gateway (operator surface,
	// gated like -pprof).
	admin bool

	// mmapTier, when positive, inserts an mmap-backed warm tier of this
	// capacity between memory and disk (the four-tier stack).
	mmapTier int64
	// memPressure, when positive, is the live-heap budget in bytes: a
	// sampling loop shrinks the heap tier's capacity target when the Go
	// heap outgrows it and restores the configured target as pressure
	// subsides. pressureEvery is the sampling cadence.
	memPressure   int64
	pressureEvery time.Duration

	// Cluster membership: join lists every ring member (comma-separated
	// host:port; self is added if absent), advertise overrides the
	// self-address peers see (defaults to the bound listen address),
	// redirect switches ownership routing from proxying to 307s, vnodes
	// tunes the ring's virtual-node count. replicas is the replica-set
	// size per URL; probeInterval/probeThreshold drive the health prober
	// that marks unresponsive peers Down.
	join           string
	advertise      string
	redirect       bool
	vnodes         int
	replicas       int
	probeInterval  time.Duration
	probeThreshold int
}

// splitJoin parses the -join list into member addresses.
func splitJoin(join string) []string {
	var members []string
	for _, m := range strings.Split(join, ",") {
		if m = strings.TrimSpace(m); m != "" {
			members = append(members, m)
		}
	}
	return members
}

// daemon bundles the running pieces: the gateway server, the warehouse
// behind it, and the optional maintenance loop.
type daemon struct {
	srv     *gateway.Server
	wh      *warehouse.Warehouse
	cluster *peers.Cluster
	// join/advertise defer membership wiring to start(): with an
	// ephemeral listen port the self address exists only after bind.
	join      []string
	advertise string

	maintainEvery time.Duration
	stopMaintain  chan struct{}
	maintainDone  chan struct{}

	// Memory-pressure loop state: the heap budget, the heap tier's
	// configured (unpressured) capacity target, and the sampling cadence.
	memPressure   int64
	baseMemCap    core.Bytes
	pressureEvery time.Duration
	stopPressure  chan struct{}
	pressureDone  chan struct{}
	// pressureSignal, when non-nil, receives a token after every sampling
	// pass (dropped when full) — test synchronization, like sweepSignal.
	pressureSignal chan struct{}
	// sweepSignal, when non-nil, receives a token after every completed
	// maintenance sweep (dropped when full). Tests synchronize on it
	// instead of sleeping and hoping the ticker fired.
	sweepSignal chan struct{}
}

// build assembles warehouse + gateway per the options.
func build(opts options) (*daemon, error) {
	if opts.origin == "" {
		return nil, fmt.Errorf("cbfww-serve: -origin is required")
	}
	cfg := warehouse.DefaultConfig()
	cfg.Miner.MinSupport = 2
	cfg.Shards = opts.shards
	// -data-dir makes the tiers real: disk and tertiary bytes live under
	// it, and the daemon checkpoints on shutdown / rehydrates on start.
	// Empty keeps every tier in the heap (the simulation shape).
	cfg.DataDir = opts.dataDir
	if opts.mmapTier > 0 {
		// Four-tier stack: heap / mmap / disk / segment log. The warm
		// tier needs a data directory to map its segment files under.
		if opts.dataDir == "" {
			return nil, fmt.Errorf("cbfww-serve: -mmap-tier requires -data-dir")
		}
		cfg.Storage = cfg.Storage.WithMmapTier(core.Bytes(opts.mmapTier))
	}
	if opts.schemaFile != "" {
		text, err := os.ReadFile(opts.schemaFile)
		if err != nil {
			return nil, err
		}
		s, err := schema.Parse(string(text))
		if err != nil {
			return nil, err
		}
		if err := cfg.ApplySchema(s); err != nil {
			return nil, err
		}
	}

	// A serving daemon lives on wall-clock time: usage windows, aging and
	// consistency polling all tick in real seconds.
	clock := core.NewWallClock()

	req, err := crawl.NewRequester(crawl.DefaultConfig(), crawl.FixedResolver(opts.origin))
	if err != nil {
		return nil, err
	}
	var origin core.ContextOrigin = req

	var resilient *resilience.Origin
	if opts.retry > 1 || opts.breakerThreshold > 0 {
		resilient, err = resilience.Wrap(origin, resilience.Config{
			Retry: resilience.RetryPolicy{
				MaxAttempts: opts.retry,
				BaseBackoff: 50 * time.Millisecond,
				MaxBackoff:  2 * time.Second,
			},
			Breaker: resilience.BreakerConfig{
				Threshold: opts.breakerThreshold,
				Cooldown:  opts.breakerCooldown,
			},
		})
		if err != nil {
			return nil, err
		}
		origin = resilient
	}

	wh, err := warehouse.New(cfg, clock, origin)
	if err != nil {
		return nil, err
	}
	if restored, err := wh.Rehydrate(); err != nil {
		return nil, err
	} else if restored > 0 {
		log.Printf("rehydrated %d pages from %s", restored, opts.dataDir)
	}
	cluster := peers.NewCluster(peers.Config{
		VNodes:         opts.vnodes,
		Replicas:       opts.replicas,
		ProbeInterval:  opts.probeInterval,
		ProbeThreshold: opts.probeThreshold,
		Breaker: resilience.BreakerConfig{
			Threshold: opts.breakerThreshold,
			Cooldown:  opts.breakerCooldown,
		},
	})
	wh.SetPeerSource(cluster)
	wh.SetReplicator(cluster.ReplicateAdmitted)
	srv, err := gateway.New(gateway.Config{
		Addr:         opts.addr,
		FetchWorkers: opts.workers,
		FetchTimeout: opts.fetchTimeout,
		Resilient:    resilient,
		EnablePprof:  opts.pprof,
		EnableAdmin:  opts.admin,
		Cluster:      cluster,
		Redirect:     opts.redirect,
	}, wh)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: srv, wh: wh, cluster: cluster,
		join: splitJoin(opts.join), advertise: opts.advertise,
		maintainEvery: opts.maintainEvery, memPressure: opts.memPressure,
		pressureEvery: opts.pressureEvery,
	}
	if d.memPressure > 0 {
		if d.pressureEvery <= 0 {
			d.pressureEvery = 5 * time.Second
		}
		// The configured target is what the tier returns to when the heap
		// shrinks back under budget.
		d.baseMemCap = wh.StorageManager().Tiers()[0].Capacity
	}
	return d, nil
}

// liveHeapBytes samples the Go runtime's live-heap size: bytes occupied
// by reachable or not-yet-swept objects, the number an operator's memory
// budget actually constrains.
func liveHeapBytes() int64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// pressureLoop retargets the heap tier from live heap statistics: when
// the Go heap exceeds the -mem-pressure budget, the tier shrinks by the
// overage (the resize demotes only the lowest-priority residents past the
// new water line, though it decides every object once); when the heap
// falls back under budget the tier is restored toward its configured
// target. The tier never drops below 1/16 of that target —
// a pressured warehouse still serves its hottest pages from memory.
func (d *daemon) pressureLoop() {
	defer close(d.pressureDone)
	mgr := d.wh.StorageManager()
	tier0 := mgr.TierName(0)
	floor := d.baseMemCap / 16
	if floor < 1 {
		floor = 1
	}
	current := d.baseMemCap
	t := time.NewTicker(d.pressureEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			target := d.baseMemCap
			if over := liveHeapBytes() - d.memPressure; over > 0 {
				target -= core.Bytes(over)
				if target < floor {
					target = floor
				}
			}
			if target != current {
				if err := mgr.ResizeTiers(map[string]core.Bytes{tier0: target}); err != nil {
					log.Printf("mem-pressure resize: %v", err)
				} else {
					log.Printf("mem-pressure: %s tier target %d -> %d bytes", tier0, current, target)
					current = target
				}
			}
			if d.pressureSignal != nil {
				select {
				case d.pressureSignal <- struct{}{}:
				default:
				}
			}
		case <-d.stopPressure:
			return
		}
	}
}

// start binds the listener and, when configured, the maintenance loop.
func (d *daemon) start() error {
	if err := d.srv.Start(); err != nil {
		return err
	}
	if len(d.join) > 0 {
		// Membership waits for the bind: with an ephemeral port the self
		// address only exists now. A -join list without self still works —
		// Configure adds the advertised address to the ring.
		self := d.advertise
		if self == "" {
			self = d.srv.Addr()
		}
		d.cluster.Configure(self, d.join)
		// The prober and replication worker only matter with peers to
		// probe and push to.
		d.cluster.Start()
	}
	if d.memPressure > 0 {
		d.stopPressure = make(chan struct{})
		d.pressureDone = make(chan struct{})
		go d.pressureLoop()
	}
	if d.maintainEvery > 0 {
		d.stopMaintain = make(chan struct{})
		d.maintainDone = make(chan struct{})
		go func() {
			defer close(d.maintainDone)
			t := time.NewTicker(d.maintainEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if _, err := d.wh.Maintain(); err != nil {
						log.Printf("maintain: %v", err)
					}
					if d.sweepSignal != nil {
						select {
						case d.sweepSignal <- struct{}{}:
						default:
						}
					}
				case <-d.stopMaintain:
					return
				}
			}
		}()
	}
	return nil
}

// shutdown drains in-flight requests, stops the maintenance loop, then
// flushes the warehouse's durable state: a final backup pass plus the
// storage manifest, version history and page catalog (Checkpoint), and a
// sync/close of the file-backed tiers. A daemon without -data-dir has
// nothing durable; Checkpoint and Close are then no-ops.
func (d *daemon) shutdown(ctx context.Context) error {
	if d.stopMaintain != nil {
		close(d.stopMaintain)
		<-d.maintainDone
		d.stopMaintain = nil
	}
	if d.stopPressure != nil {
		close(d.stopPressure)
		<-d.pressureDone
		d.stopPressure = nil
	}
	// Stop probing and replicating before the drain: peers are likely
	// shutting down too, and a dying node has no business marking them
	// Down or pushing payloads at them.
	d.cluster.Stop()
	if err := d.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := d.wh.Checkpoint(); err != nil {
		return err
	}
	return d.wh.Close()
}

func main() {
	opts := options{}
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:8642", "listen address")
	flag.StringVar(&opts.schemaFile, "schema", "", "storage schema definition file (see internal/schema)")
	flag.StringVar(&opts.dataDir, "data-dir", "", "root for durable state (file-backed disk/tertiary tiers, checkpoints); empty = all tiers in heap")
	flag.StringVar(&opts.origin, "origin", "", "origin host:port every page host resolves to (required)")
	flag.IntVar(&opts.workers, "workers", 32, "max concurrent origin fetches")
	flag.IntVar(&opts.shards, "shards", 0, "warehouse lock stripes (0 = GOMAXPROCS)")
	flag.DurationVar(&opts.fetchTimeout, "fetch-timeout", 10*time.Second, "per-request origin fetch budget")
	flag.DurationVar(&opts.maintainEvery, "maintain-every", time.Minute, "maintenance sweep interval (0 disables)")
	flag.IntVar(&opts.retry, "retry", 3, "origin attempts per fetch (1 disables retries)")
	flag.IntVar(&opts.breakerThreshold, "breaker-threshold", 5, "consecutive host failures that open the circuit breaker (0 disables)")
	flag.DurationVar(&opts.breakerCooldown, "breaker-cooldown", 30*time.Second, "open-breaker cool-down before a half-open probe")
	flag.BoolVar(&opts.pprof, "pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (do not expose publicly)")
	flag.BoolVar(&opts.admin, "admin", false, "serve POST /admin/resize for live tier-capacity retargets (do not expose publicly)")
	flag.Int64Var(&opts.mmapTier, "mmap-tier", 0, "insert an mmap-backed warm tier of this many bytes between memory and disk (requires -data-dir; 0 = off)")
	flag.Int64Var(&opts.memPressure, "mem-pressure", 0, "live-heap budget in bytes: shrink the memory tier when the Go heap exceeds it (0 = off)")
	flag.DurationVar(&opts.pressureEvery, "pressure-every", 5*time.Second, "heap sampling cadence for -mem-pressure")
	flag.StringVar(&opts.join, "join", "", "comma-separated cluster members (host:port,...); empty = standalone")
	flag.StringVar(&opts.advertise, "advertise", "", "self address peers should use (default: the bound listen address)")
	flag.BoolVar(&opts.redirect, "redirect", false, "307-redirect to the owner node instead of proxying")
	flag.IntVar(&opts.vnodes, "vnodes", 0, "virtual nodes per ring member (0 = default 128)")
	flag.IntVar(&opts.replicas, "replicas", 0, "replica-set size per URL (0 = default 2)")
	flag.DurationVar(&opts.probeInterval, "probe-interval", 0, "health-probe cadence between peers (0 = default 1s)")
	flag.IntVar(&opts.probeThreshold, "probe-threshold", 0, "consecutive failed probes before a peer is marked Down (0 = default 3)")
	grace := flag.Duration("grace", 15*time.Second, "graceful-shutdown drain budget")
	flag.Parse()
	if opts.origin == "" {
		fmt.Fprintln(os.Stderr, "cbfww-serve: -origin is required")
		flag.Usage()
		os.Exit(2)
	}

	d, err := build(opts)
	if err != nil {
		log.Fatalf("cbfww-serve: %v", err)
	}
	// The handler goes in before the listener: once "listening on" is
	// logged a supervisor may signal at any moment, and a signal that
	// arrives first must still drain and checkpoint.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := d.start(); err != nil {
		log.Fatalf("cbfww-serve: %v", err)
	}
	log.Printf("cbfww-serve listening on http://%s", d.srv.Addr())

	s := <-sig
	log.Printf("received %v; draining in-flight requests", s)

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := d.shutdown(ctx); err != nil {
		log.Fatalf("cbfww-serve: shutdown: %v", err)
	}
	st := d.wh.Stats()
	fmt.Printf("served %d requests (%.0f%% hits), %d origin fetches\n",
		st.Requests, 100*st.HitRatio(), st.OriginFetches)
}
