package main

import (
	"fmt"
	"sort"
	"time"
)

// Turning a recorded phase into named metrics. Wall-clock metrics follow
// one rule: the measured phase is cut into numWindows equal-count windows,
// windows whose canary says the host was slow are dropped, and the metric
// is the median over the surviving windows. Counts and ratios use the whole
// phase.

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// cutWindows slices a closed-loop phase into the numWindows equal-count
// windows runClosed ran it in. Windows are separated by barriers, so a
// window's wall time is first send to last completion.
func cutWindows(p *phase) []window {
	ws := make([]window, numWindows)
	for w := range ws {
		a, b := w*len(p.ops)/numWindows, (w+1)*len(p.ops)/numWindows
		first, last := p.sentNs[a], int64(0)
		for i := a; i < b; i++ {
			if p.sentNs[i] < first {
				first = p.sentNs[i]
			}
			if p.doneNs[i] > last {
				last = p.doneNs[i]
			}
			ws[w].ops++
			ws[w].bodyBytes += p.out[i].bodyBytes
			ws[w].lat.add(time.Duration(p.doneNs[i] - p.dueNs[i]))
		}
		ws[w].wall = time.Duration(last - first)
		ws[w].canary = p.canary[w]
	}
	return ws
}

// pooled returns the sorted latencies of the kept windows.
func pooled(kept []*window) []float64 {
	var all []float64
	for _, w := range kept {
		all = append(all, w.lat.us...)
	}
	sort.Float64s(all)
	return all
}

// windowQuantile is a latency quantile as a median over windows: each
// window's own q-quantile, then the median of those, so a burst that
// spoils a few windows does not set the metric. It needs ten samples
// beyond the quantile in every window; a phase too short for that falls
// back to the quantile of the pooled samples.
func windowQuantile(kept []*window, q float64) float64 {
	var per []float64
	for _, w := range kept {
		if float64(len(w.lat.us))*(1-q) < 10 {
			return quantile(pooled(kept), q)
		}
		per = append(per, quantile(w.lat.sorted(), q))
	}
	return median(per)
}

// tierPosition maps an X-CBFWW-Source label to a position in the daemon's
// tier table. The program labels serves with Tier.String(), which knows
// only the classic three names, so on a four-tier stack the mmap tier
// reads "disk", the disk tier "tertiary" and the segment tier "tier(3)".
// If every label seen is a name from the /stats table, labels are real
// names and map by name; otherwise they map by classic position.
func tierPosition(label string, names []string, byName bool) int {
	if byName {
		for i, n := range names {
			if n == label {
				return i
			}
		}
		return -1
	}
	switch label {
	case "memory":
		return 0
	case "disk":
		return 1
	case "tertiary":
		return 2
	}
	var n int
	if _, err := fmt.Sscanf(label, "tier(%d)", &n); err == nil {
		return n
	}
	return -1
}

// maxTiers is how many tier positions the per-layer metrics name.
const maxTiers = 4

// wallClock names the metrics host noise can leave unresolved.
var wallClock = []string{"ops_per_s", "lat_p50_us", "lat_p99_us", "body_mb_per_s"}

// computeMetrics fills res from the measured phase ph, the restart
// verification phase vp, the daemon's /stats before (st0) and after (st)
// the measured phase, and its /proc counters around it.
func computeMetrics(res *liveResult, s spec, z sizing, ph, vp *phase, st0, st statsReply, before, after procSample) {
	m, layers := res.Metrics, res.Layers
	res.Attempted = len(ph.ops) + len(vp.ops)
	f1, why := ph.failures()
	f2, why2 := vp.failures()
	res.Failed = f1 + f2
	for k, v := range why2 {
		why[k] += v
	}
	if res.Failed > 0 {
		res.Failures = why
	}
	m["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)

	if len(s.steps) == 0 {
		closedLoopMetrics(res, s, ph)
	} else {
		openLoopMetrics(res, s, z, ph)
	}

	// Cost.
	bu, bs := before.cpuMicros()
	au, as := after.cpuMicros()
	nOps := float64(len(ph.ops))
	m["cpu_us_per_op"] = float64(after.cpuNs-before.cpuNs) / 1e3 / nOps
	if after.cpuNs == before.cpuNs { // no schedstat on this kernel: fall back to the 10 ms ticks
		m["cpu_us_per_op"] = (au - bu + as - bs) / nOps
	}
	layers["proc.cpu_user_us_per_op"] = (au - bu) / nOps
	layers["proc.cpu_sys_us_per_op"] = (as - bs) / nOps
	m["rss_peak_mb"] = float64(after.hwmKB) / 1024
	layers["proc.rss_per_op_bytes"] = float64(after.rssKB-before.rssKB) * 1024 / nOps

	// Client-side mean per op kind; the traced run compares against it.
	sums, counts := make(map[opKind]float64), make(map[opKind]float64)
	for i, o := range ph.ops {
		sums[o.kind] += usOf(ph.doneNs[i] - ph.sentNs[i])
		counts[o.kind]++
	}
	for k, c := range counts {
		res.ClientMeanUs[k.String()] = sums[k] / c
	}

	serveSplit(res, ph, vp, st)
	statsLayers(res, st0, st, sums, counts)
}

// closedLoopMetrics: throughput and latency as medians over the windows
// the canary filter keeps.
func closedLoopMetrics(res *liveResult, s spec, ph *phase) {
	m, layers := res.Metrics, res.Layers
	kept, canarySpread := keepWindows(cutWindows(ph))
	layers["loadgen.canary_spread"] = canarySpread
	layers["loadgen.windows_kept"] = float64(len(kept))
	if len(kept)*2 < numWindows {
		res.Unresolved = wallClock
	}
	var opsPS, mbPS []float64
	samples := 0
	for _, w := range kept {
		opsPS = append(opsPS, float64(w.ops)/w.wall.Seconds())
		mbPS = append(mbPS, float64(w.bodyBytes)/1e6/w.wall.Seconds())
		samples += len(w.lat.us)
	}
	m["ops_per_s"], res.Spread["ops_per_s"] = median(opsPS), summarize(opsPS)
	m["body_mb_per_s"], res.Spread["body_mb_per_s"] = median(mbPS), summarize(mbPS)
	m["lat_p50_us"] = windowQuantile(kept, 0.50)
	m["lat_p99_us"] = windowQuantile(kept, 0.99)
	layers["loadgen.lat_samples"] = float64(samples)
	layers["loadgen.lag_us_p99"] = 0
	if s.residents == 0 {
		// Admissions are the whole phase: how their rate holds up as the
		// corpus grows.
		m["admit_decay"] = decay(ph.doneNs)
	}
}

// openLoopMetrics: per-step completions, latency from the due time, and
// the highest step the daemon sustained.
func openLoopMetrics(res *liveResult, s spec, z sizing, ph *phase) {
	m, layers := res.Metrics, res.Layers
	// An open-loop step cannot be paused or dropped, so the canary (read
	// before each step and after the last) only says whether the host held
	// still: the same rule as for windows, fewer than half the readings
	// within tolerance of their median leaves the metrics unresolved.
	var readings []float64
	for _, c := range ph.canary[:len(z.stepOps)+1] {
		readings = append(readings, float64(c))
	}
	sort.Float64s(readings)
	calm := sort.SearchFloat64s(readings, median(readings)*(1+canaryTolerance))
	layers["loadgen.canary_spread"] = readings[len(readings)-1]/readings[0] - 1
	layers["loadgen.windows_kept"] = float64(calm)
	if calm*2 < len(readings) {
		res.Unresolved = wallClock
	}
	lo := 0
	var lag, below []float64 // below: latencies of the steps under the top one
	bytes := int64(0)
	for k, n := range z.stepOps {
		hi := lo + n
		sr := stepResult{Rate: s.steps[k], Ops: n}
		var lat []float64
		last := int64(0)
		for i := lo; i < hi; i++ {
			if ph.out[i].fail != failNone {
				sr.Failed++
			}
			last = max(last, ph.doneNs[i])
			bytes += ph.out[i].bodyBytes
			lag = append(lag, usOf(ph.dispNs[i]-ph.dueNs[i]))
			lat = append(lat, usOf(ph.doneNs[i]-ph.dueNs[i]))
		}
		if k < len(z.stepOps)-1 {
			below = append(below, lat...)
		}
		sort.Float64s(lat)
		sr.CompletedPS = float64(n) / (float64(last-ph.dueNs[lo]) / 1e9)
		sr.P50Us, sr.P99Us = quantile(lat, 0.50), quantile(lat, 0.99)
		sr.InflightMid, sr.InflightEnd = int(ph.inflight[lo+n/2]), int(ph.inflight[hi-1])
		// A backlog is growing when more is in flight at the step's end
		// than twice the mid-step figure; a handful in flight is not a
		// backlog at all.
		sr.OK = sr.Failed == 0 && sr.P99Us <= usOf(int64(stepLimit)) &&
			sr.InflightEnd <= max(2*sr.InflightMid, 8)
		res.Steps = append(res.Steps, sr)
		lo = hi
	}
	// Throughput is what the top step completed; latency is taken where
	// the daemon is not saturated, over the steps below the top one pooled
	// (one step alone leaves ten samples beyond its p99).
	m["ops_per_s"] = res.Steps[len(res.Steps)-1].CompletedPS
	sort.Float64s(below)
	m["lat_p50_us"], m["lat_p99_us"] = quantile(below, 0.50), quantile(below, 0.99)
	m["max_ok_rate"] = 0
	for _, sr := range res.Steps {
		if sr.OK {
			m["max_ok_rate"] = float64(sr.Rate)
		}
	}
	m["body_mb_per_s"] = float64(bytes) / 1e6 / ph.end.Sub(ph.start).Seconds()
	sort.Float64s(lag)
	layers["loadgen.lag_us_p99"] = quantile(lag, 0.99)
	layers["loadgen.lat_samples"] = float64(len(below))
}

// serveSplit computes the hit ratio (over the measured phase and the
// restart check) and the measured phase's serves split by tier position.
func serveSplit(res *liveResult, ph, vp *phase, st statsReply) {
	layers := res.Layers
	served, hits := 0, 0
	bySource := make(map[string]*recorder)
	for _, p := range []*phase{ph, vp} {
		for i, o := range p.ops {
			out := p.out[i]
			if out.fail != failNone || out.source == "" || !o.kind.servesPage() {
				continue
			}
			served++
			if out.source != "origin" {
				hits++
			}
			if p == ph && o.kind == opBody {
				r := bySource[out.source]
				if r == nil {
					r = new(recorder)
					bySource[out.source] = r
				}
				r.add(time.Duration(p.doneNs[i] - p.dueNs[i]))
			}
		}
	}
	if served > 0 {
		res.Metrics["hit_ratio"] = float64(hits) / float64(served)
	}

	names := make([]string, len(st.Storage))
	byName, total := true, 0
	for i, t := range st.Storage {
		names[i] = t.Name
	}
	for label, r := range bySource {
		total += len(r.us)
		if label != "origin" && tierPosition(label, names, true) < 0 {
			byName = false
		}
	}
	res.TierLabels = make(map[string]string)
	for t := 0; t < maxTiers; t++ {
		used, moved, demoted := 0.0, 0.0, 0.0
		if t < len(st.Storage) {
			used, moved, demoted = float64(st.Storage[t].Used), float64(st.Storage[t].Moved), float64(st.Storage[t].Demoted)
		}
		layers[fmt.Sprintf("storage.tier%d.used_bytes", t)] = used
		layers[fmt.Sprintf("storage.tier%d.moved_bytes", t)] = moved
		layers[fmt.Sprintf("storage.tier%d.demoted_bytes", t)] = demoted
		layers[fmt.Sprintf("serve.tier%d.share", t)] = 0
		layers[fmt.Sprintf("serve.tier%d.lat_p50_us", t)] = 0
	}
	for label, r := range bySource {
		t := tierPosition(label, names, byName)
		if t < 0 || t >= maxTiers {
			continue
		}
		if t < len(st.Storage) {
			res.TierLabels[label] = fmt.Sprintf("tier%d (%s, %s backend)", t, st.Storage[t].Name, st.Storage[t].Backend)
		}
		layers[fmt.Sprintf("serve.tier%d.share", t)] = float64(len(r.us)) / float64(total)
		layers[fmt.Sprintf("serve.tier%d.lat_p50_us", t)] = quantile(r.sorted(), 0.50)
	}
}

// statsLayers turns the daemon's /stats into gateway and warehouse layer
// numbers (cumulative since the daemon started, so set-up's admissions are
// in them) and the socket layer. sums and counts are the client's latency
// totals per op kind over the measured phase.
func statsLayers(res *liveResult, st0, st statsReply, sums, counts map[opKind]float64) {
	layers := res.Layers
	var errs uint64
	for _, e := range st.Endpoints {
		errs += e.Errors
	}
	for _, name := range []string{"body", "fetch", "query", "search", "recommend"} {
		layers["gateway."+name+".us_p50"] = st.Endpoints[name].Latency.P50Ms * 1e3
	}
	layers["gateway.body.us_p99"] = st.Endpoints["body"].Latency.P99Ms * 1e3
	layers["gateway.errors_5xx"] = float64(errs)
	layers["gateway.coalesced_fetches"] = float64(st.Gateway.CoalescedFetches)

	// The socket layer (net/http + loopback) is the client's mean minus
	// the gateway handler's mean over the same requests; the handler mean
	// of the measured phase alone is recovered from the two cumulative
	// snapshots.
	socket := func(endpoint string, kinds ...opKind) float64 {
		e0, e1 := st0.Endpoints[endpoint], st.Endpoints[endpoint]
		var sum, n float64
		for _, k := range kinds {
			sum += sums[k]
			n += counts[k]
		}
		if e1.Requests <= e0.Requests || n == 0 {
			return 0
		}
		handler := (e1.Latency.MeanMs*float64(e1.Requests) - e0.Latency.MeanMs*float64(e0.Requests)) * 1e3 / float64(e1.Requests-e0.Requests)
		return sum/n - handler
	}
	layers["socket.body.us_mean"] = socket("body", opBody, opBodyCold, opHead)
	layers["socket.fetch.us_mean"] = socket("fetch", opFetch)

	var waitUs, acquires int64
	for _, sh := range st.Shards {
		waitUs += sh.LockWaitMicros
		acquires += sh.LockAcquires
	}
	w := st.Warehouse
	layers["warehouse.shard_lock_wait_us_per_op"] = ratio(float64(waitUs), float64(acquires))
	layers["warehouse.memory_hit_ratio"] = ratio(float64(w.MemoryHits), float64(w.Requests))
	layers["warehouse.stale_serve_ratio"] = ratio(float64(w.StaleServes), float64(w.Requests))
	layers["warehouse.revalidations"] = float64(w.Revalidations)
	layers["warehouse.refetches"] = float64(w.Refetches)
}

// ratio is a ÷ b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
