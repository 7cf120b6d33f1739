package main

// The metric catalogue. BENCHMARK.json at the root of the repository is
// the contract the driver reads; this file is the same list as the
// harness knows it, plus the end-to-end metrics that exist on one workload
// only and therefore cannot be in BENCHMARK.json (whose every end-to-end
// metric is reported by every workload). A test pins the two together.

// metricDef describes one metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// reportOnly keeps an end-to-end metric out of BENCHMARK.json.
	reportOnly bool
	// on lists the workloads the metric is defined on; nil = all.
	on []string
	// moves names, for a per-layer metric, the end-to-end metric and
	// workload it is expected to move.
	moves string
}

// endToEnd are the metrics a user of the daemon would see. Eleven are
// defined on every workload, steady enough on a shared 2-vCPU host to
// carry a bound of at most a quarter, and so are gated through
// BENCHMARK.json; the other four are reported in result files and judged
// by -compare only (see README.md, "Reported, not gated").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25, reportOnly: true},
	{Name: "body_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, reportOnly: true},
	{Name: "hit_ratio", Unit: "ratio", Better: "higher", Bound: 0.03},
	{Name: "origin_fetches_per_url", Unit: "ratio", Better: "lower", Bound: 0.03},
	{Name: "max_ok_rate", Unit: "ops/s", Better: "higher", Bound: 0.5, reportOnly: true, on: []string{"mixed_open"}},
	{Name: "admit_decay", Unit: "ratio", Better: "higher", Bound: 0.25, reportOnly: true, on: []string{"cold_admit"}},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "restart_served_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "disk_bytes_per_body_byte", Unit: "ratio", Better: "lower", Bound: 0.05},
}

// gated reports whether an end-to-end metric is in BENCHMARK.json.
func (m metricDef) gated() bool { return !m.reportOnly }
