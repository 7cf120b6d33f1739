package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/crawl"
	"cbfww/internal/gateway"
	"cbfww/internal/object"
	"cbfww/internal/peers"
	"cbfww/internal/resilience"
	"cbfww/internal/schema"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
	"cbfww/internal/warehouse"
)

// The traced run. It replays a tenth of a workload's op sequence, from one
// client so counts repeat, against a stack the harness assembles in this
// process from the same public constructors and configuration as
// cmd/cbfww-serve, and records spans around calls into public functions:
//
//	level 1  over loopback HTTP: client ⊃ gateway (a timing middleware
//	         around Server.Handler()) ⊃ origin (a timing wrapper around the
//	         crawl.Requester);
//	level 2  the same ops straight into the warehouse calls the gateway
//	         makes (GetBodyCtx + BodyStream.WriteTo, GetCtx, Query, ...);
//	level 3  the same objects straight into storage.Manager and then into
//	         the serving tier's BlobStore.
//
// A layer's self time is its mean minus the mean of the level below over
// the same ops (means, because they add). Spans inside the program are a
// later change; end-to-end metrics are never taken from this run.

// traceShare is the fraction of the measured op count the traced run replays.
const traceShare = 10

// span is one timed call. Spans of one op share its id; parent names the
// enclosing span of the same op ("" for a root).
type span struct {
	Level   int    `json:"level"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      int    `json:"op"`
	Phase   string `json:"phase"` // "setup", "run" or "probe"
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// tracer keeps spans in memory until the run ends. The replay is
// sequential, so "the current op" is one number; the mutex is for the
// server and origin goroutines that record on the client's behalf.
type tracer struct {
	t0    time.Time
	level atomic.Int32
	op    atomic.Int64
	phase atomic.Value // string
	// handled gets a token per gateway span recorded. A reply can be
	// complete before its handler has returned; the level-1 client waits
	// here, parked, so the handler's tail is not stretched by the client's
	// next piece of work competing for the CPU.
	handled chan struct{}
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), handled: make(chan struct{}, 1)} // one request is in flight at a time
	t.phase.Store("setup")
	return t
}

// timed runs fn inside a span. The span belongs to the level, op and
// phase current when it starts: a handler may still be finishing after
// its client has moved on.
func (t *tracer) timed(name, parent string, fn func()) {
	s := span{
		Level: int(t.level.Load()), Name: name, Parent: parent, Op: int(t.op.Load()),
		Phase: t.phase.Load().(string), StartNs: int64(time.Since(t.t0)),
	}
	fn()
	s.EndNs = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations (µs) of the spans matching the filter,
// in recording order.
func (t *tracer) durations(level int, name, phase string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Level == level && s.Name == name && (phase == "" || s.Phase == phase) {
			out = append(out, s.us())
		}
	}
	return out
}

// timedOrigin wraps the Web Requester so every origin exchange is a span.
type timedOrigin struct {
	inner  *crawl.Requester
	tr     *tracer
	parent func() string
}

func (o *timedOrigin) Fetch(url string) (simweb.FetchResult, error) {
	return o.FetchCtx(context.Background(), url)
}

func (o *timedOrigin) Head(url string) (int, core.Time, error) {
	return o.HeadCtx(context.Background(), url)
}

func (o *timedOrigin) FetchCtx(ctx context.Context, url string) (fr simweb.FetchResult, err error) {
	o.tr.timed("origin", o.parent(), func() { fr, err = o.inner.FetchCtx(ctx, url) })
	return fr, err
}

func (o *timedOrigin) HeadCtx(ctx context.Context, url string) (v int, lm core.Time, err error) {
	o.tr.timed("origin", o.parent(), func() { v, lm, err = o.inner.HeadCtx(ctx, url) })
	return v, lm, err
}

// stack is the in-process twin of a cbfww-serve daemon.
type stack struct {
	wh      *warehouse.Warehouse
	gw      *gateway.Server
	cluster *peers.Cluster
	whCfg   warehouse.Config
	srv     *http.Server
	addr    string
	done    chan struct{}
}

// warehouseConfig mirrors cmd/cbfww-serve's build(): defaults, the miner
// support the daemon sets, the data directory, the optional mmap tier and
// schema file.
func (s spec) warehouseConfig(dir string) (warehouse.Config, error) {
	cfg := warehouse.DefaultConfig()
	cfg.Miner.MinSupport = 2
	cfg.DataDir = filepath.Join(dir, "data")
	if s.mmapTier > 0 {
		cfg.Storage = cfg.Storage.WithMmapTier(core.Bytes(s.mmapTier))
	}
	if s.schema != "" {
		sc, err := schema.Parse(s.schema)
		if err != nil {
			return cfg, err
		}
		cfg.ApplySchema(sc)
	}
	return cfg, nil
}

// buildStack assembles warehouse + gateway over the harness origin, with
// the daemon's default resilience wrapper and standalone cluster wiring,
// and serves the gateway's handler behind a timing middleware.
func buildStack(s spec, originAddr, dir string, tr *tracer, serve bool) (*stack, error) {
	cfg, err := s.warehouseConfig(dir)
	if err != nil {
		return nil, err
	}
	req, err := crawl.NewRequester(crawl.DefaultConfig(), crawl.FixedResolver(originAddr))
	if err != nil {
		return nil, err
	}
	parent := "warehouse"
	if serve {
		parent = "gateway"
	}
	resilient, err := resilience.Wrap(&timedOrigin{inner: req, tr: tr, parent: func() string { return parent }}, resilience.Config{
		Retry:   resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second},
		Breaker: resilience.BreakerConfig{Threshold: 5, Cooldown: 30 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	wh, err := warehouse.New(cfg, core.NewWallClock(), resilient)
	if err != nil {
		return nil, err
	}
	st := &stack{wh: wh, whCfg: cfg}
	st.cluster = peers.NewCluster(peers.Config{Breaker: resilience.BreakerConfig{Threshold: 5, Cooldown: 30 * time.Second}})
	wh.SetPeerSource(st.cluster)
	wh.SetReplicator(st.cluster.ReplicateAdmitted)
	st.gw, err = gateway.New(gateway.Config{
		Addr: "127.0.0.1:0", FetchWorkers: 32, FetchTimeout: 10 * time.Second,
		Resilient: resilient, EnableAdmin: len(s.resize) > 0, Cluster: st.cluster,
	}, wh)
	if err != nil {
		return nil, err
	}
	if len(s.resize) > 0 {
		targets := make(map[string]core.Bytes, len(s.resize))
		for name, b := range s.resize {
			targets[name] = core.Bytes(b)
		}
		if err := wh.StorageManager().ResizeTiers(targets); err != nil {
			return nil, err
		}
	}
	if !serve {
		return st, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inner := st.gw.Handler()
	st.addr, st.done = ln.Addr().String(), make(chan struct{})
	st.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr.timed("gateway", "client", func() { inner.ServeHTTP(w, r) })
		tr.handled <- struct{}{}
	})}
	go func() {
		defer close(st.done)
		_ = st.srv.Serve(ln) // always ErrServerClosed after close()
	}()
	return st, nil
}

func (st *stack) close() error {
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := st.srv.Shutdown(ctx); err != nil {
			_ = st.srv.Close()
		}
		<-st.done
	}
	st.cluster.Stop()
	return st.wh.Close()
}

// layerRow is one row of the self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	MeanUs float64 `json:"mean_us"` // the layer's own span mean, over all replayed ops
	SelfUs float64 `json:"self_us"` // mean minus the level below
	Share  float64 `json:"share"`   // self ÷ client mean
}

// traceResult is what one traced run produced.
type traceResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Ops       int    `json:"ops"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Layers holds every per-layer metric by name.
	Layers map[string]float64 `json:"layers"`
	// Table is the self-time breakdown; its rows sum to the client mean.
	Table        []layerRow `json:"table"`
	ClientMeanUs float64    `json:"client_mean_us"`
	// Flags lists negative self times beyond 5 % of the client mean.
	Flags []string `json:"flags,omitempty"`
	// Live is the untraced one-client pass against the real daemon.
	Live *liveResult `json:"live"`
	// Spans is a bounded sample of the raw spans (the first ops of each
	// level), written to its own file; the aggregates above use all of
	// them.
	Spans []span `json:"-"`
}

// replay is one level's pass over setup + ops + probes.
type replay struct {
	level   int32 // 1 or 2: the level this replay's serves are recorded at
	st      *stack
	tr      *tracer
	cor     *corpus
	org     *origin
	q       *requester
	ops     []op
	z       sizing
	s       spec
	failed  int
	hitSpan map[int]bool // op ids whose level-2 serve was a hit
}

func userOf(o op) string {
	if o.user < 0 {
		return ""
	}
	return fmt.Sprintf("u%d", o.user)
}

// beforeOp applies the workload's time-driven events at deterministic op
// indices: origin updates and maintenance sweeps are spread evenly over
// the replay, so the traced counts repeat exactly.
func (rp *replay) beforeOp(i int) {
	rp.tr.level.Store(rp.level)
	n := len(rp.ops)
	if u := len(rp.cor.updates); u > 0 {
		for k := i * u / n; k < (i+1)*u/n; k++ {
			_ = rp.cor.applyUpdate(k) // the page exists: it was generated with the schedule
		}
	}
	if rp.s.maintainEvery > 0 {
		sweeps := max(1, int(time.Duration(len(rp.s.steps))*rp.z.stepDur/rp.s.maintainEvery))
		if i*sweeps/n != (i+1)*sweeps/n {
			rp.tr.timed("warehouse.maintain", "", func() { _, _ = rp.st.wh.Maintain() }) // its only error path is unused
		}
	}
}

// preloadOps are the set-up requests of a workload.
func preloadOps(residents int) []op {
	pre := make([]op, residents)
	for i := range pre {
		pre[i] = op{kind: opBody, page: int32(i), user: -1}
	}
	return pre
}

// walkTogether replays set-up (op ids below zero) and then the ops on both
// levels, op by op: level 1's stack serves op i over HTTP, then level 2's
// stack takes the same op as a direct call. Interleaving puts both levels
// through the same minutes of host weather, so their means can be
// subtracted; run one after the other they drifted 15 % apart.
func walkTogether(rp1, rp2 *replay, do1, do2 func(id int, o op)) {
	for i, o := range preloadOps(rp1.z.residents) {
		do1(-1-i, o)
		do2(-1-i, o)
	}
	rp1.tr.phase.Store("run")
	for i, o := range rp1.ops {
		rp1.beforeOp(i)
		do1(i, o)
		rp2.beforeOp(i)
		do2(i, o)
	}
}

// level1 returns the function that serves one op over loopback HTTP from
// the in-process stack, and the function that closes its connection.
func (rp *replay) level1() (do func(id int, o op), closeConn func(), err error) {
	c, err := dialWire(rp.st.addr)
	if err != nil {
		return nil, nil, err
	}
	scratch := make([]byte, 0, 512)
	return func(id int, o op) {
		rp.tr.level.Store(rp.level)
		rp.tr.op.Store(int64(id))
		req, pageURL := rp.q.render(scratch[:0], o)
		var r reply
		var err error
		var sent, done time.Time
		rp.tr.timed("client", "", func() {
			sent = time.Now()
			r, err = c.do(req, o.kind == opHead, !o.kind.streamsBody())
			done = time.Now()
		})
		if rp.q.judge(o, pageURL, r, err, sent, done).fail != failNone {
			rp.failed++
		}
		if err == nil {
			<-rp.tr.handled
		}
	}, c.close, nil
}

// warehouseCall performs op o the way the gateway's handler does, minus
// HTTP. It reports whether the serve was a hit.
func (rp *replay) warehouseCall(o op) (hit bool, err error) {
	st := rp.st
	ctx := context.Background()
	switch o.kind {
	case opBody, opBodyCold, opHead:
		url := rp.cor.resident
		if o.kind == opBodyCold {
			url = rp.cor.cold
		}
		res, bs, gerr := st.wh.GetBodyCtx(ctx, userOf(o), url[o.page])
		if gerr != nil {
			return false, gerr
		}
		defer bs.Close()
		if o.kind != opHead {
			if _, werr := bs.WriteTo(io.Discard); werr != nil {
				return false, werr
			}
		}
		sums := rp.cor.expect[url[o.page]]
		if v := res.Page.Version; v < 1 || v > len(sums) || bs.Len() != sums[v-1].n {
			return false, errWrongBytes
		}
		return res.Hit, nil
	case opFetch:
		res, gerr := st.wh.GetCtx(ctx, userOf(o), rp.cor.resident[o.page])
		return res.Hit, gerr
	case opSearch:
		st.wh.SearchTiered(vocab[o.term], 10)
	case opQuery:
		_, err = st.wh.Query(queryText)
	case opRecommend:
		st.wh.RecommendPages(userOf(o), 10)
	}
	return false, err
}

// level2 serves one op straight from the warehouse.
func (rp *replay) level2(id int, o op) {
	rp.tr.level.Store(rp.level)
	rp.tr.op.Store(int64(id))
	var hit bool
	var err error
	rp.tr.timed("warehouse."+o.kind.String(), "", func() { hit, err = rp.warehouseCall(o) })
	if err != nil {
		rp.failed++
	}
	rp.hitSpan[id] = hit
}

// probeCount is how many calls each fixed probe makes.
const probeCount = 20

// level2Probes calls, on the replayed warehouse, the public functions a
// workload may not exercise, so every per-layer metric exists on every
// workload and describes that workload's corpus.
func (rp *replay) level2Probes() {
	st := rp.st
	rp.tr.level.Store(2)
	rp.tr.phase.Store("probe")
	n := len(rp.cor.resident) + len(rp.cor.cold)
	urlOf := func(i int) string {
		if i < len(rp.cor.resident) {
			return rp.cor.resident[i]
		}
		return rp.cor.cold[i-len(rp.cor.resident)]
	}
	ctx := context.Background()
	for k := 0; k < probeCount; k++ {
		rp.tr.op.Store(int64(len(rp.ops) + k))
		url := urlOf(k * n / probeCount)
		rp.tr.timed("probe.get_body_hit", "", func() {
			if _, bs, err := st.wh.GetBodyCtx(ctx, "", url); err == nil {
				_, _ = bs.WriteTo(io.Discard) // io.Discard cannot fail
				bs.Close()
			}
		})
		rp.tr.timed("probe.get_hit", "", func() { _, _ = st.wh.GetCtx(ctx, "", url) })
		rp.tr.timed("probe.query", "", func() { _, _ = st.wh.Query(queryText) })
		rp.tr.timed("probe.search", "", func() { st.wh.SearchTiered(vocab[k], 10) })
		rp.tr.timed("probe.recommend", "", func() { st.wh.RecommendPages(fmt.Sprintf("u%d", k%numUsers), 10) })
	}
	for k := 0; k < 3; k++ {
		rp.tr.timed("warehouse.maintain", "", func() { _, _ = st.wh.Maintain() })
	}
}

// level3 sends the replayed serves straight into storage.Manager and then
// into the serving tier's BlobStore, on the warehouse level 2 left behind.
func (rp *replay) level3() {
	st := rp.st
	rp.tr.level.Store(3)
	rp.tr.phase.Store("run")
	mgr := st.wh.StorageManager()
	for i, o := range rp.ops {
		var url string
		switch o.kind {
		case opBody, opFetch, opHead:
			url = rp.cor.resident[o.page]
		case opBodyCold:
			url = rp.cor.cold[o.page]
		default:
			continue
		}
		obj, ok := st.wh.Hierarchy().ByKey(object.KindRaw, url)
		if !ok {
			rp.failed++
			continue
		}
		rp.tr.op.Store(int64(i))
		var res storage.AccessResult
		var err error
		rp.tr.timed("storage.fetch_stream", "", func() {
			var br storage.BlobReader
			if res, br, err = mgr.FetchStream(obj.ID); err == nil && br != nil {
				_, err = br.WriteTo(io.Discard)
				br.Close()
			}
		})
		if err != nil {
			rp.failed++
			continue
		}
		rp.tr.timed("backend.open_copy", "storage.fetch_stream", func() {
			br, oerr := mgr.Backend(res.Tier).Open(storage.BlobKey{ID: obj.ID, Version: res.Version})
			if oerr != nil {
				err = oerr
				return
			}
			_, err = br.WriteTo(io.Discard)
			br.Close()
		})
		if err != nil {
			rp.failed++
		}
	}
}

// runTrace performs the traced run of workload s.
func runTrace(s spec, o liveOpts) (*traceResult, error) {
	// The untraced reference: the same tenth of the ops, one client, one
	// set-up, against the real daemon.
	lo := o
	lo.share, lo.clients, lo.repeats = traceShare, 1, 1
	live, err := runLive(s, lo)
	if err != nil {
		return nil, err
	}
	z := s.size(o.seconds, o.scale, traceShare)
	ops := genOps(o.seed, z.ops, z.residents, s.popularity, s.mix, s.users)
	res := &traceResult{
		Workload: s.name, Seed: o.seed, Ops: len(ops), Live: live,
		Attempted: live.Attempted, Failed: live.Failed, Layers: make(map[string]float64),
	}
	for k, v := range live.Layers {
		res.Layers[k] = v
	}
	runDir, err := os.MkdirTemp(workDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Each level gets a fresh origin and a fresh stack: first-sight
	// requests and origin updates can be replayed only once per warehouse.
	tr := newTracer()
	newReplay := func(level int32, dir string) (*replay, error) {
		cor, err := newCorpus(o.seed, z.residents, countKind(ops, opBodyCold), s.bodySize, z.updates)
		if err != nil {
			return nil, err
		}
		org, err := startOrigin(cor.web)
		if err != nil {
			return nil, err
		}
		st, err := buildStack(s, org.addr, dir, tr, level == 1)
		if err != nil {
			org.close()
			return nil, err
		}
		return &replay{
			level: level, st: st, tr: tr, cor: cor, org: org, q: newRequester(cor),
			ops: ops, z: z, s: s, hitSpan: make(map[int]bool),
		}, nil
	}
	rp1, err := newReplay(1, filepath.Join(runDir, "l1"))
	if err != nil {
		return nil, err
	}
	defer rp1.org.close()
	dir2 := filepath.Join(runDir, "l2")
	rp2, err := newReplay(2, dir2)
	if err != nil {
		rp1.st.close()
		return nil, err
	}
	defer rp2.org.close()
	st2 := rp2.st
	do1, closeConn, err := rp1.level1()
	if err == nil {
		walkTogether(rp1, rp2, do1, rp2.level2)
		closeConn()
	}
	if cerr := rp1.st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		st2.close()
		return nil, fmt.Errorf("%s: traced level 1: %w", s.name, err)
	}
	rp2.level3()
	rp2.level2Probes()
	moved, err := storageProbes(tr, rp2, st2, filepath.Join(runDir, "l3"))
	if err != nil {
		return nil, fmt.Errorf("%s: storage probes: %w", s.name, err)
	}
	res.Layers["storage.resize_moved_bytes"] = moved
	// Checkpoint, then a second warehouse on the same directory rehydrates.
	tr.level.Store(2)
	tr.timed("warehouse.checkpoint", "", func() { err = st2.wh.Checkpoint() })
	if cerr := st2.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: traced level 2: %w", s.name, err)
	}
	tr.phase.Store("probe")
	st2b, err := buildStack(s, rp2.org.addr, dir2, tr, false)
	if err != nil {
		return nil, err
	}
	restored := 0
	tr.timed("warehouse.rehydrate", "", func() { restored, err = st2b.wh.Rehydrate() })
	if cerr := st2b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: traced rehydrate: %w", s.name, err)
	}
	if want := len(rp2.cor.resident) + len(rp2.cor.cold); restored != want {
		rp2.failed++
		o.logf("%s: rehydrate restored %d of %d pages", s.name, restored, want)
	}
	fixed, err := fixedProbes(filepath.Join(runDir, "probe"))
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", s.name, err)
	}
	for k, v := range fixed {
		res.Layers[k] = v
	}
	perAdmission, err := contentProbe(rp2)
	if err != nil {
		return nil, fmt.Errorf("%s: content probe: %w", s.name, err)
	}

	n := len(ops) + z.residents
	res.Attempted += 3 * n
	res.Failed += rp1.failed + rp2.failed
	aggregate(res, tr, rp2, perAdmission)
	// The live pass ran the same ops, so its mean over all of them is the
	// per-kind means weighted by this replay's counts.
	liveTotal := 0.0
	for kind := opKind(0); kind < numOpKinds; kind++ {
		liveTotal += live.ClientMeanUs[kind.String()] * float64(countKind(ops, kind))
	}
	res.Layers["trace.overhead_ratio"] = ratio(res.ClientMeanUs, liveTotal/float64(len(ops)))
	res.Spans = sampleSpans(tr.spans)
	return res, nil
}

// sampleSpans keeps the spans of the first 200 run-phase ops of each level.
func sampleSpans(all []span) []span {
	var out []span
	for _, s := range all {
		if s.Phase == "run" && s.Op >= 0 && s.Op < 200 {
			out = append(out, s)
		}
	}
	return out
}

// runMean adds up the run-phase spans of one level that match and divides
// by the number of replayed ops: a mean per op, zero for ops without such
// a span, which is what makes the levels' means subtractable.
func (t *tracer) runMean(level int, nOps float64, match func(span) bool) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Level == level && s.Phase == "run" && match(s) {
			sum += s.us()
		}
	}
	return sum / nOps
}

// sixths returns the means of the first and the last sixth of v.
func sixths(v []float64) (first, last float64) {
	k := len(v) / 6
	if k < 1 {
		return mean(v), mean(v)
	}
	return mean(v[:k]), mean(v[len(v)-k:])
}

// aggregate turns the spans into the per-layer metrics and the self-time
// table. contentUs is the content model's mean cost per admission on this
// workload's bodies.
func aggregate(res *traceResult, tr *tracer, rp2 *replay, contentUs float64) {
	L := res.Layers
	nOps := float64(res.Ops)
	isName := func(name string) func(span) bool { return func(s span) bool { return s.Name == name } }
	isWarehouse := func(s span) bool {
		return strings.HasPrefix(s.Name, "warehouse.") && s.Name != "warehouse.maintain"
	}

	client := tr.runMean(1, nOps, isName("client"))
	gw := tr.runMean(1, nOps, isName("gateway"))
	wh := tr.runMean(2, nOps, isWarehouse)
	org := tr.runMean(2, nOps, isName("origin"))
	stor := tr.runMean(3, nOps, isName("storage.fetch_stream"))
	back := tr.runMean(3, nOps, isName("backend.open_copy"))
	// First-sight ops also spend storage and content-model time; both are
	// measured on the same bodies by the storage and fixed probes.
	colds := float64(countKind(rp2.ops, opBodyCold))
	admit := mean(tr.durations(3, "storage.admit_bytes", "probe"))
	stor += admit * colds / nOps
	content := contentUs * colds / nOps

	res.ClientMeanUs = client
	rows := []layerRow{
		{Layer: "socket", MeanUs: client, SelfUs: client - gw},
		{Layer: "gateway", MeanUs: gw, SelfUs: gw - wh},
		{Layer: "warehouse", MeanUs: wh, SelfUs: wh - org - stor - content},
		{Layer: "storage", MeanUs: stor, SelfUs: stor - back},
		{Layer: "backend", MeanUs: back, SelfUs: back},
		{Layer: "origin", MeanUs: org, SelfUs: org},
		{Layer: "content model", MeanUs: content, SelfUs: content},
	}
	negatives := 0
	for i := range rows {
		rows[i].Share = rows[i].SelfUs / client
		if rows[i].SelfUs < -0.05*client {
			negatives++
			res.Flags = append(res.Flags, fmt.Sprintf("negative self time: %s %.1f us", rows[i].Layer, rows[i].SelfUs))
		}
	}
	res.Table = rows
	L["trace.client_us_mean"] = client
	L["trace.negative_self_layers"] = float64(negatives)
	L["socket.self_us_mean"] = rows[0].SelfUs
	L["gateway.self_us_mean"] = rows[1].SelfUs
	L["warehouse.self_us_mean"] = rows[2].SelfUs
	L["storage.self_us_mean"] = rows[3].SelfUs
	L["backend.self_us_mean"] = rows[4].SelfUs
	L["origin.us_mean_per_op"] = rows[5].SelfUs
	L["content.us_mean_per_op"] = rows[6].SelfUs

	// Warehouse calls: serves that hit, admissions in order, probes.
	var bodyHit, getHit, admits []float64
	for _, s := range tr.spans {
		if s.Level != 2 || !isWarehouse(s) {
			continue
		}
		hit := rp2.hitSpan[s.Op]
		switch {
		case s.Name == "warehouse.body" && hit && s.Phase == "run":
			bodyHit = append(bodyHit, s.us())
		case s.Name == "warehouse.fetch" && hit:
			getHit = append(getHit, s.us())
		case (s.Name == "warehouse.body" || s.Name == "warehouse.body_cold") && !hit:
			admits = append(admits, s.us())
		}
	}
	bodyHit = append(bodyHit, tr.durations(2, "probe.get_body_hit", "")...)
	getHit = append(getHit, tr.durations(2, "probe.get_hit", "")...)
	L["warehouse.get_body_hit.us_mean"], L["warehouse.get_body_hit.us_p50"] = mean(bodyHit), median(bodyHit)
	L["warehouse.get_hit.us_mean"] = mean(getHit)
	L["warehouse.admit.us_mean"] = mean(admits)
	L["warehouse.admit_first6th.us_mean"], L["warehouse.admit_last6th.us_mean"] = sixths(admits)
	L["warehouse.query_mfu10.us_p50"] = median(append(tr.durations(2, "probe.query", ""), tr.durations(2, "warehouse.query", "")...))
	L["warehouse.search.us_p50"] = median(append(tr.durations(2, "probe.search", ""), tr.durations(2, "warehouse.search", "")...))
	L["warehouse.recommend.us_p50"] = median(append(tr.durations(2, "probe.recommend", ""), tr.durations(2, "warehouse.recommend", "")...))
	L["warehouse.maintain.us_mean"] = mean(tr.durations(2, "warehouse.maintain", ""))
	L["warehouse.checkpoint_s"] = mean(tr.durations(2, "warehouse.checkpoint", "")) / 1e6
	L["warehouse.rehydrate_s"] = mean(tr.durations(2, "warehouse.rehydrate", "")) / 1e6

	// Storage manager.
	L["storage.fetch_stream.us_mean"] = mean(tr.durations(3, "storage.fetch_stream", "run"))
	L["storage.admit_bytes_first6th.us_mean"], L["storage.admit_bytes_last6th.us_mean"] = sixths(tr.durations(3, "storage.admit_bytes", "probe"))
	L["storage.update_bytes.us_mean"] = mean(tr.durations(3, "storage.update_bytes", "probe"))
	L["storage.backup.us_mean"] = mean(tr.durations(3, "storage.backup", "probe"))
	L["storage.resize_tiers.us_mean"] = mean(tr.durations(3, "storage.resize_tiers", "probe"))
}

// printTrace prints the layer table and the per-layer metrics.
func printTrace(w io.Writer, t *traceResult) {
	fmt.Fprintf(w, "\n== %s traced  seed %d  %d ops replayed  attempted %d  failed %d\n", t.Workload, t.Seed, t.Ops, t.Attempted, t.Failed)
	fmt.Fprintf(w, "  %-14s %12s %12s %8s\n", "layer", "mean us", "self us", "share")
	sum := 0.0
	for _, r := range t.Table {
		fmt.Fprintf(w, "  %-14s %12.2f %12.2f %7.1f%%\n", r.Layer, r.MeanUs, r.SelfUs, 100*r.Share)
		sum += r.SelfUs
	}
	fmt.Fprintf(w, "  %-14s %12s %12.2f   client mean %.2f us\n", "sum", "", sum, t.ClientMeanUs)
	for _, f := range t.Flags {
		fmt.Fprintf(w, "  FLAG %s\n", f)
	}
	for _, def := range perLayer {
		fmt.Fprintf(w, "  %-44s %16.4f %-6s -> %s\n", def.Name, t.Layers[def.Name], def.Unit, def.moves)
	}
}
