package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// A live run: one workload against a real cbfww-serve subprocess over
// loopback TCP. It produces the end-to-end metrics and, as a by-product,
// the per-layer numbers that can be had from outside the daemon (the
// client's clock split by response header, one GET /stats, /proc, the
// harness origin's counters).

// liveOpts sizes a live run.
type liveOpts struct {
	seed    int64
	seconds int
	scale   float64
	share   int // divides the measured op count (1; 10 for the traced run's live pass)
	clients int
	repeats int // how many times set-up, and later restart, is performed and timed
	bin     string
	logf    func(format string, args ...any)
}

// liveResult is what one live run measured.
type liveResult struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Residents int                 `json:"residents"`
	Ops       int                 `json:"ops"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  map[string]int      `json:"failures,omitempty"`
	Metrics   map[string]float64  `json:"metrics"`
	Spread    map[string]spreadOf `json:"spread,omitempty"`
	// Unresolved lists wall-clock metrics whose canary filter kept fewer
	// than half the windows: host noise, not the program, set them.
	Unresolved []string `json:"unresolved,omitempty"`
	// Layers are the untraced per-layer numbers of this run.
	Layers map[string]float64 `json:"layers"`
	// Steps are the open-loop steps (mixed_open only).
	Steps []stepResult `json:"steps,omitempty"`
	// ClientMeanUs is the client-side mean latency per op kind, which the
	// traced run compares its own means against.
	ClientMeanUs map[string]float64 `json:"client_mean_us"`
	// TierLabels maps X-CBFWW-Source labels to tier positions.
	TierLabels map[string]string `json:"tier_labels,omitempty"`
}

// stepResult is one open-loop step.
type stepResult struct {
	Rate        int     `json:"rate"`
	Ops         int     `json:"ops"`
	Failed      int     `json:"failed"`
	CompletedPS float64 `json:"completed_per_s"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	InflightMid int     `json:"inflight_mid"`
	InflightEnd int     `json:"inflight_end"`
	OK          bool    `json:"ok"`
}

// statsReply mirrors the parts of the daemon's GET /stats the harness reads.
type statsReply struct {
	Gateway struct {
		CoalescedFetches uint64 `json:"coalesced_fetches"`
	} `json:"gateway"`
	Endpoints map[string]struct {
		Requests uint64 `json:"requests"`
		Errors   uint64 `json:"errors"`
		Latency  struct {
			MeanMs float64 `json:"mean_ms"`
			P50Ms  float64 `json:"p50_ms"`
			P99Ms  float64 `json:"p99_ms"`
		} `json:"latency"`
	} `json:"endpoints"`
	Warehouse struct {
		Requests, Hits, MemoryHits, OriginFetches, Revalidations, Refetches, StaleServes int
	} `json:"warehouse"`
	Shards []struct {
		LockWaitMicros int64 `json:"lock_wait_micros"`
		LockAcquires   int64 `json:"lock_acquires"`
	} `json:"shards"`
	Storage []struct {
		Name    string `json:"name"`
		Backend string `json:"backend"`
		Used    int64  `json:"used"`
		Moved   int64  `json:"moved_bytes"`
		Demoted int64  `json:"demoted_bytes"`
	} `json:"storage"`
}

func getStats(addr string) (statsReply, error) {
	var st statsReply
	r, err := oneShot(addr, "GET", "/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(r.body, &st)
}

// shortSetup: while all set-ups so far fit in this, more are made.
const shortSetup = time.Second

// setupResult is one timed set-up.
type setupResult struct {
	d       *daemon
	dir     string
	seconds float64
}

// daemonArgs assembles the daemon's command line for s.
func (s spec) daemonArgs(originAddr, dir string) ([]string, error) {
	args := []string{
		"-origin", originAddr,
		"-data-dir", filepath.Join(dir, "data"),
		"-maintain-every", s.maintainEvery.String(),
	}
	if s.mmapTier > 0 {
		args = append(args, "-mmap-tier", strconv.FormatInt(s.mmapTier, 10))
	}
	if len(s.resize) > 0 {
		args = append(args, "-admin")
	}
	if s.schema != "" {
		path := filepath.Join(dir, "schema.txt")
		if err := os.WriteFile(path, []byte(s.schema), 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-schema", path)
	}
	return args, nil
}

// setUp starts a daemon on a fresh directory and brings it to the state
// the measured phase starts from: listening, healthy, tiers resized,
// resident pages preloaded and verified. The time it returns is what a
// user waits from exec to a warm daemon.
func setUp(s spec, o liveOpts, org *origin, q *requester, residents int, runDir string) (setupResult, error) {
	res := setupResult{}
	dir, err := os.MkdirTemp(runDir, s.name+"-")
	if err != nil {
		return res, err
	}
	res.dir = dir
	args, err := s.daemonArgs(org.addr, dir)
	if err != nil {
		return res, err
	}
	start := time.Now()
	d, err := startDaemon(o.bin, args...)
	if err != nil {
		return res, err
	}
	res.d = d
	if err := d.healthy(); err != nil {
		return res, err
	}
	if len(s.resize) > 0 {
		body, _ := json.Marshal(map[string]any{"targets": s.resize}) // a map of ints cannot fail to marshal
		if _, err := oneShot(d.addr, "POST", "/admin/resize", body); err != nil {
			return res, err
		}
	}
	if residents > 0 {
		pre := preloadOps(residents)
		// One connection: admission order, and with it object ids and
		// placement, is the same in every run.
		p, err := runClosed(d.addr, 1, q, pre, false)
		if err != nil {
			return res, err
		}
		if f, why := p.failures(); f > 0 {
			return res, fmt.Errorf("preload: %d of %d failed: %v", f, residents, why)
		}
	}
	res.seconds = time.Since(start).Seconds()
	return res, nil
}

// decay is the admission rate over the last sixth of a run of admissions
// divided by the rate over the first sixth: 1.0 means an admission costs
// the same whatever the corpus size.
func decay(doneNs []int64) float64 {
	t := append([]int64(nil), doneNs...)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	k := len(t) / 6
	if k < 2 {
		return 0
	}
	first := float64(t[k-1]) // the first admission is sent at time 0
	last := float64(t[len(t)-1] - t[len(t)-1-k])
	if first <= 0 || last <= 0 {
		return 0
	}
	return first / last
}

// runLive executes workload s once.
func runLive(s spec, o liveOpts) (*liveResult, error) {
	z := s.size(o.seconds, o.scale, o.share)
	ops := genOps(o.seed, z.ops, z.residents, s.popularity, s.mix, s.users)
	colds := countKind(ops, opBodyCold)
	cor, err := newCorpus(o.seed, z.residents, colds, s.bodySize, z.updates)
	if err != nil {
		return nil, err
	}
	org, err := startOrigin(cor.web)
	if err != nil {
		return nil, err
	}
	defer org.close()
	q := newRequester(cor)

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set-up is performed o.repeats times on fresh directories — more often,
	// up to five times that, while it is so short that process start-up
	// jitter is most of it — and the last daemon is the one measured. Its
	// time is the median, so work moved from the serve path into start-up
	// or admission shows here.
	var setupSecs []float64
	var su setupResult
	var getsBefore, headsBefore int64
	for setupStart := time.Now(); ; {
		getsBefore, headsBefore = org.gets.Load(), org.heads.Load()
		su, err = setUp(s, o, org, q, z.residents, runDir)
		if err != nil {
			if su.d != nil {
				su.d.kill()
			}
			return nil, fmt.Errorf("%s: set-up %d: %w", s.name, len(setupSecs), err)
		}
		setupSecs = append(setupSecs, su.seconds)
		if n := len(setupSecs); n >= o.repeats && (n >= 5*o.repeats || time.Since(setupStart) >= shortSetup) {
			break
		}
		su.d.kill()
		if err := os.RemoveAll(su.dir); err != nil {
			return nil, err
		}
	}
	d := su.d
	defer func() { d.kill() }() // whichever daemon is current when the run ends
	o.logf("%s: set-up %.3fs (median of %d), daemon pid %d at %s", s.name, median(setupSecs), len(setupSecs), d.pid, d.addr)

	// Measured phase.
	before, err := d.sample()
	if err != nil {
		return nil, err
	}
	st0, err := getStats(d.addr)
	if err != nil {
		return nil, err
	}
	var ph *phase
	if len(s.steps) == 0 {
		ph, err = runClosed(d.addr, o.clients, q, ops, true)
	} else {
		nextUpdate := 0
		tick := func(elapsed time.Duration) {
			for nextUpdate < len(cor.updates) && elapsed >= time.Duration(nextUpdate+1)*s.updateEvery {
				_ = cor.applyUpdate(nextUpdate) // the page exists: it was generated with the schedule
				nextUpdate++
			}
		}
		due, starts := schedule(z.stepOps, z.stepDur)
		ph, err = runOpen(d.addr, o.clients, q, ops, due, starts, tick)
	}
	if err != nil {
		return nil, err
	}
	after, err := d.sample()
	if err != nil {
		return nil, err
	}
	st, err := getStats(d.addr)
	if err != nil {
		return nil, err
	}
	o.logf("%s: measured %v", s.name, ph)

	res := &liveResult{
		Workload: s.name, Seed: o.seed, Residents: z.residents, Ops: len(ops),
		Metrics: make(map[string]float64), Spread: make(map[string]spreadOf),
		Layers: make(map[string]float64), ClientMeanUs: make(map[string]float64),
	}
	res.Metrics["setup_s"] = median(setupSecs)
	res.Spread["setup_s"] = summarize(setupSecs)

	// Restart, three times over: SIGTERM (drain + checkpoint), re-exec on
	// the same directory, first sampled URL served. restart_s is the median.
	// After the first restart a seeded sample of acknowledged URLs must come
	// back byte-correct from a tier with the origin never asked for a page.
	ack := acked(cor, ph, z.residents)
	sample := sampleOps(o.seed, ack, z.sample)
	args, err := s.daemonArgs(org.addr, su.dir)
	if err != nil {
		return nil, err
	}
	var vp *phase
	var restartSecs []float64
	served := 0
	for k := 0; k < o.repeats; k++ {
		termTime, err := d.terminate()
		if err != nil {
			return nil, err
		}
		getsAtStop := org.gets.Load()
		restartStart := time.Now()
		next, err := startDaemon(o.bin, args...)
		if err != nil {
			return nil, fmt.Errorf("%s: restart: %w", s.name, err)
		}
		d = next
		check := sample
		if k > 0 {
			check = sample[:1]
		}
		p, err := runClosed(d.addr, 1, q, check, false)
		if err != nil {
			return nil, err
		}
		firstServed := time.Duration(p.doneNs[0]) + p.start.Sub(restartStart)
		restartSecs = append(restartSecs, termTime.Seconds()+firstServed.Seconds())
		if k > 0 {
			continue
		}
		vp = p
		fromOrigin := int64(0)
		for _, out := range vp.out {
			switch {
			case out.fail != failNone:
			case out.source == "origin":
				fromOrigin++
			default:
				served++
			}
		}
		if org.gets.Load()-getsAtStop != fromOrigin {
			// A tier label on a reply the origin was asked for is a lie.
			served = 0
		}
	}
	if _, err := d.terminate(); err != nil {
		return nil, err
	}
	diskBytes, err := dirBytes(filepath.Join(su.dir, "data"))
	if err != nil {
		return nil, err
	}

	computeMetrics(res, s, z, ph, vp, st0, st, before, after)
	m := res.Metrics
	m["restart_s"], res.Spread["restart_s"] = median(restartSecs), summarize(restartSecs)
	m["restart_served_ratio"] = float64(served) / float64(len(sample))
	// Every URL requested (the residents and every first-sight op), and
	// the body bytes of those the daemon admitted.
	bodyBytes := int64(0)
	for _, u := range cor.resident {
		bodyBytes += cor.expect[u][0].n
	}
	for i, o := range ph.ops {
		if o.kind == opBodyCold && ph.out[i].fail == failNone {
			bodyBytes += cor.expect[cor.cold[o.page]][0].n
		}
	}
	m["origin_fetches_per_url"] = float64(org.gets.Load()-getsBefore) / float64(z.residents+colds)
	m["disk_bytes_per_body_byte"] = float64(diskBytes) / float64(bodyBytes)
	res.Layers["origin.get_count"] = float64(org.gets.Load() - getsBefore)
	res.Layers["origin.head_count"] = float64(org.heads.Load() - headsBefore)
	return res, nil
}

// acked lists, as /body ops, every URL the measured daemon acknowledged:
// the preloaded residents plus the first-sight URLs whose request
// succeeded. Pages the origin updated during the run are left out: the
// restarted daemon is entitled to revalidate and refetch those.
func acked(cor *corpus, ph *phase, residents int) []op {
	updated := make(map[int]bool)
	for _, u := range cor.updates {
		updated[u.page] = true
	}
	var ops []op
	for _, o := range preloadOps(residents) {
		if !updated[int(o.page)] {
			ops = append(ops, o)
		}
	}
	for i, o := range ph.ops {
		if o.kind == opBodyCold && ph.out[i].fail == failNone {
			ops = append(ops, op{kind: opBodyCold, page: o.page, user: -1})
		}
	}
	return ops
}

// sampleOps draws n distinct acknowledged ops.
func sampleOps(seed int64, acked []op, n int) []op {
	if n > len(acked) {
		n = len(acked)
	}
	ops := make([]op, n)
	for i, k := range mix(seed, streamSample).Perm(len(acked))[:n] {
		ops[i] = acked[k]
	}
	return ops
}
