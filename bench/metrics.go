package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// metricDef declares one metric of the benchmark. The same table drives
// the report, the last-line JSON and the consistency test against
// BENCHMARK.json, so a name exists in exactly one place in the code.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// notApplicable is what a workload reports for an end-to-end metric that
// has no meaning on it (sim_pps on a live workload, rate_accuracy on an
// unpaced one). The driver wants every end-to-end metric from every
// workload; a constant 1 never regresses and has zero spread. Only
// dimensionless or rate metrics ever take it — every time-valued metric
// is measured on every workload.
const notApplicable = 1.0

// endToEnd lists what a user of the forwarder or the simulator sees. A
// "unit of service" is one datagram on the live workloads and one
// simulation run on the sim workloads; that reading is what lets the
// latency metrics be measured everywhere. The bounds are about three times
// the spread ten runs with ten seeds showed on the 2-CPU build host (see
// README.md), capped at the driver's 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"fwd_pps", "1/s", "higher", 0.2},
	{"cpu_us_per_pkt", "us", "lower", 0.2},
	{"idle_rtt_p50_us", "us", "lower", 0.25},
	{"sojourn_p50_us", "us", "lower", 0.2},
	{"sojourn_p99_us", "us", "lower", 0.25},
	{"delivered_frac", "frac", "higher", 0.001},
	{"rss_mb", "MB", "lower", 0.25},
	{"ddp_accuracy", "frac", "higher", 0.05},
	{"rate_accuracy", "frac", "higher", 0.02},
	{"sim_pps", "1/s", "higher", 0.1},
	{"allocs_per_pkt", "count", "lower", 0.25},
}

// schedKinds are the disciplines with a core.<kind>.enqdeq_ns row, in
// core.Kinds() order (checked by the smoke test).
var schedKinds = []string{"wtp", "bpr", "fcfs", "strict", "wfq", "additive", "pad", "hpd", "drr", "iwrr", "pf"}

// perLayer lists the single-layer metrics of the traced run. Counters read
// at a process boundary and span self times come from the workload itself;
// the *_ns rows are fixed-count calls into a layer's exported functions and
// read the same whatever the workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "netio.user_us_per_pkt", Unit: "us", Better: "lower"},
		{Name: "netio.sys_us_per_pkt", Unit: "us", Better: "lower"},
		{Name: "netio.ctxsw_per_pkt", Unit: "count", Better: "lower"},
		{Name: "netio.recv_batch_avg", Unit: "count", Better: "higher"},
		{Name: "netio.recv_batch_max", Unit: "count", Better: "higher"},
		{Name: "netio.sched_wait_p50_us", Unit: "us", Better: "lower"},
		{Name: "netio.sched_wait_p99_us", Unit: "us", Better: "lower"},
		{Name: "netio.io_path_p50_us", Unit: "us", Better: "lower"},
		{Name: "netio.dropped", Unit: "count", Better: "lower"},
		{Name: "netio.bad_header", Unit: "count", Better: "lower"},
		{Name: "netio.bad_class", Unit: "count", Better: "lower"},
		{Name: "netio.unaccounted", Unit: "count", Better: "lower"},
		{Name: "netio.codec_encode_ns", Unit: "ns", Better: "lower"},
		{Name: "netio.codec_decode_ns", Unit: "ns", Better: "lower"},
		{Name: "netio.sim_delay_err", Unit: "frac", Better: "lower"},
		{Name: "classify.hit_ns", Unit: "ns", Better: "lower"},
		{Name: "classify.miss_ns", Unit: "ns", Better: "lower"},
		{Name: "classify.bytes_per_flow", Unit: "B", Better: "lower"},
	}
	for _, k := range schedKinds {
		m = append(m, metricDef{Name: "core." + k + ".enqdeq_ns", Unit: "ns", Better: "lower"})
	}
	return append(m,
		metricDef{Name: "core.wtp.enqdeq_ns_c16", Unit: "ns", Better: "lower"},
		metricDef{Name: "core.pool_getput_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "telemetry.record_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "telemetry.snapshot_us", Unit: "us", Better: "lower"},
		metricDef{Name: "control.observe_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "sim.heap_event_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "sim.calendar_event_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "traffic.record_ns_per_pkt", Unit: "ns", Better: "lower"},
		metricDef{Name: "traffic.generate_ns_per_pkt", Unit: "ns", Better: "lower"},
		metricDef{Name: "link.run_ns_per_pkt", Unit: "ns", Better: "lower"},
		metricDef{Name: "link.self_ns_per_pkt", Unit: "ns", Better: "lower"},
		metricDef{Name: "network.run_ns_per_hop_pkt", Unit: "ns", Better: "lower"},
		metricDef{Name: "stats.add_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "stats.quantile_us_100k", Unit: "us", Better: "lower"},
		metricDef{Name: "stats.bytes_per_sample", Unit: "B", Better: "lower"},
		metricDef{Name: "experiments.fig3_full_s", Unit: "s", Better: "lower"},
		metricDef{Name: "experiments.fig3_parallel_speedup", Unit: "x", Better: "higher"},
		metricDef{Name: "harness.cpu_us_per_pkt", Unit: "us", Better: "lower"},
		metricDef{Name: "harness.direct_rtt_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "harness.gen_late_p99_us", Unit: "us", Better: "lower"},
		metricDef{Name: "harness.timeouts", Unit: "count", Better: "lower"},
		metricDef{Name: "harness.retries", Unit: "count", Better: "lower"},
		metricDef{Name: "harness.host_busy_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "span.harness.self_s", Unit: "s", Better: "lower"},
		metricDef{Name: "span.fwd.sojourn.self_s", Unit: "s", Better: "lower"},
		metricDef{Name: "span.telemetry.snapshot.self_s", Unit: "s", Better: "lower"},
		metricDef{Name: "span.traffic.record.self_s", Unit: "s", Better: "lower"},
		metricDef{Name: "span.link.run.self_s", Unit: "s", Better: "lower"},
		metricDef{Name: "span.network.run.self_s", Unit: "s", Better: "lower"},
		metricDef{Name: "span.stats.summarize.self_s", Unit: "s", Better: "lower"},
		metricDef{Name: "span.coverage_frac", Unit: "frac", Better: "higher"},
		metricDef{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
	)
}

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"fwd_min64", "64-byte tagged datagrams, 1 flow, unpaced: per-packet netio cost is the whole story; classifier, pacer and shard merge idle"},
	{"fwd_shard2_flows", "2 ingress shards, 64 flows: the accounting lock and the cross-shard peek-merge, which fwd_min64 bypasses"},
	{"fwd_classify_untagged", "256 untagged flows against 64 port-range filters: the only workload that classifies and re-marks every packet"},
	{"fwd_paced_ddp", "open-loop Study-A trace at rho 0.95 into a 10 Mbit/s pacer: queueing, pacing accuracy and delay ratios on real sockets"},
	{"sim_link_zoo", "single link at rho 0.95 under all 11 disciplines: schedulers dominate, the event queue stays tiny"},
	{"sim_studyb_path", "8-hop Study-B path with 64 cross sources: event queue, traffic and exact samples dominate, schedulers idle"},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadBenchmarkFile reads BENCHMARK.json from the module root.
func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// values collects metric values by name while a workload runs, with the
// sample count behind each for the report.
type values struct {
	v map[string]float64
	n map[string]int
}

func newValues() *values { return &values{v: map[string]float64{}, n: map[string]int{}} }

// set records a metric computed from n samples (windows, rounds or calls).
func (vs *values) set(name string, v float64, n int) {
	vs.v[name] = v
	vs.n[name] = n
}

// project returns the declared metrics in defs; a per-layer metric the
// workload never touched reads 0, a missing end-to-end metric is a bug.
func (vs *values) project(defs []metricDef, strict bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vs.v[d.Name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// median returns the median of xs (0 when empty). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Interference on a shared host only ever slows a window down — here whole
// seconds run 10 to 25% slow, several times a minute — so a run's timing
// metrics are not the median over its windows but the better quartile: the
// third quartile of a rate, the first quartile of a time. It is still an
// order statistic that ignores the two best windows of eight, and it reads
// the same on a run with three disturbed seconds as on a quiet one.

// fastQuartile is the better quartile of a higher-is-better series.
func fastQuartile(xs []float64) float64 { return quantile(xs, 0.75) }

// shortQuartile is the better quartile of a lower-is-better series.
func shortQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (0 when empty). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

func quantileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
