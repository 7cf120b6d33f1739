package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cbfww/internal/cluster"
	"cbfww/internal/core"
	"cbfww/internal/crawl"
	"cbfww/internal/object"
	"cbfww/internal/priority"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
	"cbfww/internal/text"
	"cbfww/internal/topic"
	"cbfww/internal/version"
	"cbfww/internal/warehouse"
)

// Probes: timed calls into single layers through their public
// constructors. Storage and content-model probes run on the replayed
// workload's own objects and bodies; the fixed probes use bodies of stated
// sizes (the .2k/.8k/.256k suffixes), so their numbers compare across
// workloads and commits.

// timeMean runs fn n times and returns the mean duration in µs.
func timeMean(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / 1e3 / float64(n)
}

// contentModel is admission's content model assembled from its public
// constructors, as warehouse.New assembles it.
type contentModel struct {
	corpus  *text.Corpus
	index   *text.InvertedIndex
	regions *cluster.Online
	prios   *priority.Manager
	history *version.Store
	omega   float64
	clock   core.Clock
}

func newContentModel() (*contentModel, error) {
	cfg := warehouse.DefaultConfig()
	clock := core.NewWallClock()
	corpus := text.NewCorpus()
	regions, err := cluster.NewOnline(cfg.RegionMinSim, cfg.RegionMax)
	if err != nil {
		return nil, err
	}
	prios, err := priority.NewManager(cfg.Priority, clock, regions, topic.NewManager(corpus.Dict()))
	if err != nil {
		return nil, err
	}
	return &contentModel{
		corpus: corpus, index: text.NewInvertedIndex(corpus.Dict()), regions: regions, prios: prios,
		history: version.NewStore(cfg.VersionDepth), omega: cfg.Omega, clock: clock,
	}, nil
}

// admitCost is the content model's time for admissions, per step, in µs.
type admitCost struct{ vector, priority, assign, index, capture float64 }

func (c admitCost) total() float64 { return c.vector + c.priority + c.assign + c.index + c.capture }

// admit runs the content-model steps of one admission and adds their
// durations to cost.
func (cm *contentModel) admit(id core.ObjectID, p *simweb.Page, cost *admitCost) {
	step := func(into *float64, fn func()) {
		t := time.Now()
		fn()
		*into += float64(time.Since(t)) / 1e3
	}
	var vec text.Vector
	step(&cost.vector, func() { vec = cm.corpus.WeightedVector(p.Title, p.Body, cm.omega) })
	step(&cost.priority, func() { cm.prios.AdmissionPriority(vec) })
	step(&cost.assign, func() { cm.regions.Assign(cluster.Point{ID: id, Vec: vec}) })
	step(&cost.index, func() { cm.index.Index(id, p.Title+"\n"+p.Body) })
	step(&cost.capture, func() {
		_ = cm.history.Capture(p.URL, version.Snapshot{Version: 1, Time: cm.clock.Now(), Title: p.Title, Body: p.Body, Size: p.Size}) // a non-empty URL cannot fail
	})
}

// contentProbe runs the content model over the replayed workload's own
// first-sight pages (at most 64) and returns the mean µs per admission.
func contentProbe(rp *replay) (float64, error) {
	urls := rp.cor.cold
	if len(urls) > 64 {
		urls = urls[:64]
	}
	if len(urls) == 0 {
		return 0, nil
	}
	cm, err := newContentModel()
	if err != nil {
		return 0, err
	}
	var cost admitCost
	for i, u := range urls {
		html, err := renderHTML(rp.cor.web, u)
		if err != nil {
			return 0, err
		}
		p := crawl.ParsePage(u, html)
		p.Size = core.Bytes(len(html))
		cm.admit(core.ObjectID(i+1), &p, &cost)
	}
	return cost.total() / float64(len(urls)), nil
}

// storageProbes replays the workload's admissions, in order, into a fresh
// storage.Manager configured like the warehouse's (same tier table, own
// directory), with the priorities the warehouse gave them; then times
// UpdateBytes, Backup and a shrink-by-a-quarter-and-back ResizeTiers on
// that corpus. It returns the bytes the resize moved or demoted.
func storageProbes(tr *tracer, rp *replay, st *stack, dir string) (movedBytes float64, err error) {
	tr.level.Store(3)
	tr.phase.Store("probe")
	cfg := st.whCfg.Storage
	cfg.DataDir = filepath.Join(dir, "store")
	mgr, err := storage.NewManager(cfg)
	if err != nil {
		return 0, err
	}
	defer mgr.Close()
	if len(rp.s.resize) > 0 {
		targets := make(map[string]core.Bytes, len(rp.s.resize))
		for name, b := range rp.s.resize {
			targets[name] = core.Bytes(b)
		}
		if err := mgr.ResizeTiers(targets); err != nil {
			return 0, err
		}
	}
	src := st.wh.StorageManager()
	urls := append(append([]string(nil), rp.cor.resident...), rp.cor.cold...)
	type admitted struct {
		id      core.ObjectID
		payload []byte
	}
	var objs []admitted
	for i, u := range urls {
		obj, ok := st.wh.Hierarchy().ByKey(object.KindRaw, u)
		page, pok := rp.cor.web.Lookup(u)
		if !ok || !pok {
			continue
		}
		prio, _ := src.Priority(obj.ID)
		payload := []byte(page.Body)
		tr.op.Store(int64(i))
		var aerr error
		tr.timed("storage.admit_bytes", "", func() { aerr = mgr.AdmitBytes(obj.ID, obj.Size, 1, prio, payload) })
		if aerr != nil {
			return 0, aerr
		}
		objs = append(objs, admitted{obj.ID, payload})
	}
	for k := 0; k < 10 && k < len(objs); k++ {
		o := objs[k*len(objs)/10]
		var uerr error
		tr.timed("storage.update_bytes", "", func() { uerr = mgr.UpdateBytes(o.id, 2+k, o.payload) }) // versions rise even when few objects repeat
		if uerr != nil {
			return 0, uerr
		}
	}
	for k := 0; k < 3; k++ {
		tr.timed("storage.backup", "", mgr.Backup)
	}
	sum := func(s storage.Stats) (t core.Bytes) {
		for i := range s.MovedBytes {
			t += s.MovedBytes[i] + s.DemotedBytes[i]
		}
		return t
	}
	tiers := mgr.Tiers()
	before := sum(mgr.Stats())
	for _, capacity := range []core.Bytes{tiers[0].Capacity * 3 / 4, tiers[0].Capacity} {
		var rerr error
		tr.timed("storage.resize_tiers", "", func() { rerr = mgr.ResizeTiers(map[string]core.Bytes{tiers[0].Name: capacity}) })
		if rerr != nil {
			return 0, rerr
		}
	}
	return float64(sum(mgr.Stats()) - before), nil
}

// probeSizes are the body sizes of the fixed probes.
var probeSizes = []struct {
	label string
	bytes int
	reps  int
}{{"2k", 2 * kib, 200}, {"8k", 8 * kib, 100}, {"256k", 256 * kib, 10}}

// fixedProbes times single layers on bodies of fixed sizes: the Web
// Requester over loopback, the HTML parser, the content model, and the four
// blob backends of a standalone four-tier storage.Manager.
func fixedProbes(dir string) (map[string]float64, error) {
	L := make(map[string]float64)
	cor, err := newCorpus(1, 0, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	pages := make(map[string]*simweb.Page)
	for i, sz := range probeSizes {
		p := genPage(1, baseProbe, i, sz.bytes)
		if err := cor.web.AddPage(p); err != nil {
			return nil, err
		}
		pages[sz.label] = p
	}
	org, err := startOrigin(cor.web)
	if err != nil {
		return nil, err
	}
	defer org.close()
	req, err := crawl.NewRequester(crawl.DefaultConfig(), crawl.FixedResolver(org.addr))
	if err != nil {
		return nil, err
	}
	parsed := make(map[string]simweb.Page)
	for _, sz := range probeSizes {
		p := pages[sz.label]
		var ferr error
		L["crawl.fetch.us_mean."+sz.label] = timeMean(sz.reps, func(int) {
			if _, err := req.FetchCtx(context.Background(), p.URL); err != nil {
				ferr = err
			}
		})
		if ferr != nil {
			return nil, ferr
		}
		html, err := renderHTML(cor.web, p.URL)
		if err != nil {
			return nil, err
		}
		if sz.label != "2k" {
			L["crawl.parse_page.us_mean."+sz.label] = timeMean(sz.reps, func(int) { crawl.ParsePage(p.URL, html) })
		}
		parsed[sz.label] = crawl.ParsePage(p.URL, html)
	}

	// Content model: each call on a fresh body-sized document; the
	// corpus grows as it would during admissions.
	cm, err := newContentModel()
	if err != nil {
		return nil, err
	}
	for _, label := range []string{"8k", "256k"} {
		reps := 50
		if label == "256k" {
			reps = 5
		}
		var cost admitCost
		for i := 0; i < reps; i++ {
			p := parsed[label]
			p.URL = fmt.Sprintf("%s?rep=%d", p.URL, i)
			cm.admit(core.ObjectID(1000+i), &p, &cost)
		}
		n := float64(reps)
		L["text.weighted_vector.us_mean."+label] = cost.vector / n
		if label == "8k" {
			L["text.index.us_mean.8k"] = cost.index / n
			L["priority.admission.us_mean"] = cost.priority / n
			L["cluster.assign.us_mean"] = cost.assign / n
			L["version.capture.us_mean.8k"] = cost.capture / n
		}
	}

	// Blob backends, through a four-tier manager's Backend(t).
	cfg := storage.DefaultConfig().WithMmapTier(16 * mib)
	cfg.DataDir = filepath.Join(dir, "store")
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	mgr, err := storage.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	names := []string{"heap", "mmap", "disk", "segment"}
	for t, info := range mgr.Tiers() {
		if t >= len(names) || info.Backend != names[t] {
			return nil, fmt.Errorf("backend probe: tier %d is %q, want %q", t, info.Backend, names[t])
		}
		b := mgr.Backend(storage.Tier(t))
		var perr error
		for _, sz := range probeSizes {
			data := []byte(pages[sz.label].Body)
			key := func(i int) storage.BlobKey { return storage.BlobKey{ID: core.ObjectID(1 + i), Version: sz.bytes} }
			put := timeMean(sz.reps, func(i int) {
				if err := b.PutFrom(key(i), bytes.NewReader(data), int64(len(data))); err != nil {
					perr = err
				}
			})
			open := timeMean(sz.reps, func(i int) {
				r, err := b.Open(key(i))
				if err != nil {
					perr = err
					return
				}
				if _, err := r.WriteTo(io.Discard); err != nil {
					perr = err
				}
				r.Close()
			})
			if sz.label == "8k" {
				L["backend."+names[t]+".put_from_us_mean.8k"] = put
			} else {
				L["backend."+names[t]+".open_copy_us_mean."+sz.label] = open
			}
			// Half the blobs become garbage for the compaction probe.
			for i := 0; i < sz.reps; i += 2 {
				if err := b.Delete(key(i)); err != nil {
					perr = err
				}
			}
		}
		if perr != nil {
			return nil, fmt.Errorf("backend probe %s: %w", names[t], perr)
		}
		if c, ok := b.(interface{ Compact() error }); ok {
			var cerr error
			L["backend."+names[t]+".compact_us"] = timeMean(1, func(int) { cerr = c.Compact() })
			if cerr != nil {
				return nil, fmt.Errorf("backend probe %s compact: %w", names[t], cerr)
			}
		}
	}
	return L, nil
}

// perLayer is the catalogue of per-layer metrics, by module, each with the
// end-to-end metric and workload it is expected to move.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(moves, unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better, moves: moves})
		}
	}
	// loadgen: validity of the run, not of the program.
	add("trust in lat_* on mixed_open", "us", "lower", "loadgen.lag_us_p99")
	add("trust in every wall-clock metric", "ratio", "lower", "loadgen.canary_spread")
	add("trust in every wall-clock metric", "count", "higher", "loadgen.windows_kept", "loadgen.lat_samples")
	// socket: net/http + loopback = client mean − gateway handler mean.
	add("lat_p50_us, cpu_us_per_op on hot_small", "us", "lower",
		"socket.body.us_mean", "socket.fetch.us_mean", "socket.self_us_mean", "proc.cpu_sys_us_per_op", "proc.cpu_user_us_per_op")
	add("rss_peak_mb on hot_small", "bytes", "lower", "proc.rss_per_op_bytes")
	// gateway.
	add("lat_* on hot_small and mixed_open", "us", "lower",
		"gateway.body.us_p50", "gateway.body.us_p99", "gateway.fetch.us_p50", "gateway.query.us_p50",
		"gateway.search.us_p50", "gateway.recommend.us_p50", "gateway.self_us_mean")
	add("fail_ratio everywhere", "count", "lower", "gateway.errors_5xx")
	add("origin_fetches_per_url on mixed_open", "count", "higher", "gateway.coalesced_fetches")
	// warehouse.
	add("ops_per_s on hot_small; lat_p99_us on mixed_open", "us", "lower", "warehouse.shard_lock_wait_us_per_op")
	add("lat_p50_us on hot_small", "ratio", "higher", "warehouse.memory_hit_ratio")
	add("lat_p99_us, origin_fetches_per_url on mixed_open", "count", "lower", "warehouse.revalidations", "warehouse.refetches")
	add("hit_ratio on mixed_open", "ratio", "lower", "warehouse.stale_serve_ratio")
	add("ops_per_s on hot_small", "us", "lower",
		"warehouse.get_body_hit.us_mean", "warehouse.get_body_hit.us_p50", "warehouse.get_hit.us_mean", "warehouse.self_us_mean")
	add("ops_per_s, admit_decay on cold_admit; setup_s on tiered_large", "us", "lower",
		"warehouse.admit.us_mean", "warehouse.admit_first6th.us_mean", "warehouse.admit_last6th.us_mean")
	add("lat_p99_us, max_ok_rate on mixed_open", "us", "lower",
		"warehouse.query_mfu10.us_p50", "warehouse.search.us_p50", "warehouse.recommend.us_p50", "warehouse.maintain.us_mean")
	add("restart_s on cold_admit", "s", "lower", "warehouse.checkpoint_s", "warehouse.rehydrate_s")
	// storage.Manager, tier table by position.
	for t := 0; t < maxTiers; t++ {
		add("disk_bytes_per_body_byte, setup_s on tiered_large", "bytes", "lower",
			fmt.Sprintf("storage.tier%d.used_bytes", t), fmt.Sprintf("storage.tier%d.moved_bytes", t), fmt.Sprintf("storage.tier%d.demoted_bytes", t))
	}
	add("ops_per_s on hot_small (the manager mutex)", "us", "lower", "storage.fetch_stream.us_mean", "storage.self_us_mean")
	add("admit_decay on cold_admit (the placement pass)", "us", "lower",
		"storage.admit_bytes_first6th.us_mean", "storage.admit_bytes_last6th.us_mean")
	add("origin_fetches_per_url, lat_p99_us on mixed_open", "us", "lower", "storage.update_bytes.us_mean")
	add("restart_s, lat_p99_us on mixed_open", "us", "lower", "storage.backup.us_mean", "storage.resize_tiers.us_mean")
	add("setup_s on tiered_large", "bytes", "lower", "storage.resize_moved_bytes")
	// blob backends: live split by X-CBFWW-Source, then direct probes.
	for t := 0; t < maxTiers; t++ {
		add("body_mb_per_s on tiered_large", "ratio", "higher", fmt.Sprintf("serve.tier%d.share", t))
		add("lat_p50_us, body_mb_per_s on tiered_large", "us", "lower", fmt.Sprintf("serve.tier%d.lat_p50_us", t))
	}
	for _, b := range []string{"heap", "mmap", "disk", "segment"} {
		add("body_mb_per_s, lat_p50_us on tiered_large", "us", "lower",
			"backend."+b+".open_copy_us_mean.2k", "backend."+b+".open_copy_us_mean.256k")
		add("ops_per_s on cold_admit; setup_s on tiered_large", "us", "lower", "backend."+b+".put_from_us_mean.8k")
	}
	add("restart_s, disk_bytes_per_body_byte on cold_admit", "us", "lower", "backend.segment.compact_us", "backend.mmap.compact_us")
	add("body_mb_per_s on tiered_large; nothing on hot_small", "us", "lower", "backend.self_us_mean")
	// crawl / origin.
	add("ops_per_s on cold_admit; setup_s on tiered_large", "us", "lower",
		"crawl.fetch.us_mean.2k", "crawl.fetch.us_mean.8k", "crawl.fetch.us_mean.256k",
		"crawl.parse_page.us_mean.8k", "crawl.parse_page.us_mean.256k", "origin.us_mean_per_op")
	add("origin_fetches_per_url everywhere", "count", "lower", "origin.get_count", "origin.head_count")
	// admission's content model.
	add("ops_per_s on cold_admit; setup_s on tiered_large", "us", "lower",
		"text.weighted_vector.us_mean.8k", "text.weighted_vector.us_mean.256k", "text.index.us_mean.8k",
		"priority.admission.us_mean", "cluster.assign.us_mean", "version.capture.us_mean.8k", "content.us_mean_per_op")
	// the traced run itself.
	add("trust in the layer table", "ratio", "lower", "trace.overhead_ratio")
	add("lat_p50_us on every workload (one client, traced)", "us", "lower", "trace.client_us_mean")
	add("trust in the layer table", "count", "lower", "trace.negative_self_layers")
	return defs
}()
