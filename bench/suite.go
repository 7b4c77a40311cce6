package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runRecord is one run of one workload, as stored in a results file.
type runRecord struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// workloadRuns holds a workload's untraced runs and, when asked for, its
// traced run.
type workloadRuns struct {
	Runs   []runRecord `json:"runs"`
	Traced *runRecord  `json:"traced,omitempty"`
}

// resultsFile is bench/results/latest.json, and what -compare reads.
type resultsFile struct {
	When      string                   `json:"when"`
	Go        string                   `json:"go"`
	CPUs      int                      `json:"cpus"`
	Transport string                   `json:"transport"`
	Seed      uint64                   `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// runChild runs one workload in a child process of this same binary, so
// its CPU and peak RSS are its own, and returns the result line. The
// child's report goes to w.
func runChild(root, name string, seed uint64, seconds float64, traced bool, w io.Writer) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(w, last)
		}
		last = sc.Text()
	}
	werr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %q", name, werr, last)
	}
	rec := &runRecord{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		rec.Metrics[k] = v.Value
	}
	return rec, nil
}

// runSuite runs every workload runs times, alternating workloads so slow
// drift of the host spreads over all of them, then the traced runs, and
// writes bench/results/latest.json. It reports whether every run was
// correct.
func runSuite(root string, seed uint64, seconds float64, traced bool, runs int) (bool, error) {
	rf := &resultsFile{
		When:      time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		CPUs:      nproc(),
		Transport: "host loopback, not a link",
		Seed:      seed,
		Seconds:   seconds,
		Workloads: map[string]*workloadRuns{},
	}
	ok := true
	for _, w := range workloads {
		rf.Workloads[w.Name] = &workloadRuns{}
	}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			fmt.Printf("--- %s, run %d of %d\n", w.Name, r+1, runs)
			rec, err := runChild(root, w.Name, seed, seconds, false, os.Stdout)
			if err != nil {
				return false, err
			}
			ok = ok && rec.Correct
			rf.Workloads[w.Name].Runs = append(rf.Workloads[w.Name].Runs, *rec)
		}
	}
	if traced {
		for _, w := range workloads {
			fmt.Printf("--- %s, traced\n", w.Name)
			rec, err := runChild(root, w.Name, seed, seconds, true, os.Stdout)
			if err != nil {
				return false, err
			}
			ok = ok && rec.Correct
			rf.Workloads[w.Name].Traced = rec
		}
	}
	printSummary(rf, os.Stdout)
	if traced {
		printBudget(rf, os.Stdout)
		printPredictions(rf, os.Stdout)
	}
	if err := os.MkdirAll(resultsDir(root), 0o755); err != nil {
		return false, err
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(resultsDir(root), "latest.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("results written to %s\n", path)
	return ok, nil
}

// column returns one metric's values over a workload's untraced runs.
func (wr *workloadRuns) column(metric string) []float64 {
	out := make([]float64, 0, len(wr.Runs))
	for _, r := range wr.Runs {
		out = append(out, r.Metrics[metric])
	}
	return out
}

// printSummary prints the end-to-end medians, one workload per row.
func printSummary(rf *resultsFile, w io.Writer) {
	fmt.Fprintf(w, "\nEnd-to-end medians over %d run(s); %s; %d CPUs; traffic crosses the %s\n", len(rf.Workloads[workloads[0].Name].Runs), rf.Go, rf.CPUs, rf.Transport)
	fmt.Fprintf(w, "%-22s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %15s", d.Name)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%-22s", wl.Name)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %15.6g", median(rf.Workloads[wl.Name].column(d.Name)))
		}
		fmt.Fprintln(w)
	}
}

// printBudget prints the traced runs' per-layer budget: on sim workloads
// the span self times against wall time, on live workloads the CPU of the
// forwarder and of the harness against what the host has.
func printBudget(rf *resultsFile, w io.Writer) {
	fmt.Fprintln(w, "\nPer-layer budget (traced runs)")
	for _, wl := range workloads {
		t := rf.Workloads[wl.Name].Traced
		if t == nil {
			continue
		}
		m := t.Metrics
		fmt.Fprintf(w, "%s: trace_overhead_frac %.3f\n", wl.Name, m["trace_overhead_frac"])
		if strings.HasPrefix(wl.Name, "sim_") {
			fmt.Fprintf(w, "  span self times (s): harness %.3f, traffic.record %.3f, link.run %.3f, network.run %.3f, stats.summarize %.3f; they cover %.1f%% of the traced wall time\n",
				m["span.harness.self_s"], m["span.traffic.record.self_s"], m["span.link.run.self_s"], m["span.network.run.self_s"], m["span.stats.summarize.self_s"], m["span.coverage_frac"]*100)
			continue
		}
		fmt.Fprintf(w, "  per datagram: forwarder %.2f us user + %.2f us sys, harness %.2f us, %.3f voluntary context switches; forwarder+harness CPU is %.0f%% of wall x %d CPUs\n",
			m["netio.user_us_per_pkt"], m["netio.sys_us_per_pkt"], m["harness.cpu_us_per_pkt"], m["netio.ctxsw_per_pkt"], m["harness.host_busy_frac"]*100, rf.CPUs)
		fmt.Fprintf(w, "  latency split: scheduler wait p50 %.1f us, I/O path p50 %.1f us; receive batch avg %.1f max %.0f; no-forwarder floor %.1f us\n",
			m["netio.sched_wait_p50_us"], m["netio.io_path_p50_us"], m["netio.recv_batch_avg"], m["netio.recv_batch_max"], m["harness.direct_rtt_p50_us"])
	}
}

// prediction is one interaction written down before measuring: which
// end-to-end number a layer number should explain, on which workload.
type prediction struct {
	claim string
	holds func(get func(workload, metric string) float64) bool
}

var predictions = []prediction{
	{"cpu_us_per_pkt on fwd_paced_ddp is at least 3x its fwd_min64 value (the paced path wakes per datagram)", func(get func(string, string) float64) bool {
		return get("fwd_paced_ddp", "cpu_us_per_pkt") >= 3*get("fwd_min64", "cpu_us_per_pkt")
	}},
	{"netio.ctxsw_per_pkt is the pacer's wake-up: above 0.5 on fwd_paced_ddp, below 0.2 on fwd_min64", func(get func(string, string) float64) bool {
		return get("fwd_paced_ddp", "netio.ctxsw_per_pkt") > 0.5 && get("fwd_min64", "netio.ctxsw_per_pkt") < 0.2
	}},
	{"sojourn on fwd_paced_ddp is queueing: netio.sched_wait_p50_us is over half of sojourn_p50_us", func(get func(string, string) float64) bool {
		return get("fwd_paced_ddp", "netio.sched_wait_p50_us") > 0.5*get("fwd_paced_ddp", "sojourn_p50_us")
	}},
	{"sojourn on fwd_min64 is I/O path: netio.io_path_p50_us is over half of sojourn_p50_us", func(get func(string, string) float64) bool {
		return get("fwd_min64", "netio.io_path_p50_us") > 0.5*get("fwd_min64", "sojourn_p50_us")
	}},
	{"netio.codec_decode_ns is at most 2% of cpu_us_per_pkt on fwd_min64", func(get func(string, string) float64) bool {
		return get("fwd_min64", "netio.codec_decode_ns")/1e3 <= 0.02*get("fwd_min64", "cpu_us_per_pkt")
	}},
	{"core.wtp.enqdeq_ns is at most 5% of cpu_us_per_pkt on fwd_min64", func(get func(string, string) float64) bool {
		return get("fwd_min64", "core.wtp.enqdeq_ns")/1e3 <= 0.05*get("fwd_min64", "cpu_us_per_pkt")
	}},
	{"telemetry.record_ns is at most 5% of cpu_us_per_pkt on fwd_min64", func(get func(string, string) float64) bool {
		return get("fwd_min64", "telemetry.record_ns")/1e3 <= 0.05*get("fwd_min64", "cpu_us_per_pkt")
	}},
	{"classifying is a small part of forwarding: classify.hit_ns is at most 10% of cpu_us_per_pkt on fwd_classify_untagged", func(get func(string, string) float64) bool {
		return get("fwd_classify_untagged", "classify.hit_ns")/1e3 <= 0.10*get("fwd_classify_untagged", "cpu_us_per_pkt")
	}},
	{"two shards do not beat one on 2 CPUs: fwd_pps on fwd_shard2_flows is at most 1.1x fwd_min64", func(get func(string, string) float64) bool {
		return get("fwd_shard2_flows", "fwd_pps") <= 1.1*get("fwd_min64", "fwd_pps")
	}},
	{"the harness costs about what the forwarder does: harness.cpu_us_per_pkt is within 0.5x..2x cpu_us_per_pkt on fwd_min64", func(get func(string, string) float64) bool {
		r := get("fwd_min64", "harness.cpu_us_per_pkt") / get("fwd_min64", "cpu_us_per_pkt")
		return r >= 0.5 && r <= 2
	}},
	{"schedulers are a large share of sim_link_zoo: core.wtp.enqdeq_ns is over 15% of link.run_ns_per_pkt", func(get func(string, string) float64) bool {
		return get("sim_link_zoo", "core.wtp.enqdeq_ns") > 0.15*get("sim_link_zoo", "link.run_ns_per_pkt")
	}},
	{"link.run_ns_per_pkt explains sim_pps on sim_link_zoo within 25%", func(get func(string, string) float64) bool {
		r := get("sim_link_zoo", "link.run_ns_per_pkt") * get("sim_link_zoo", "sim_pps") / 1e9
		return r > 0.75 && r < 1.25
	}},
	{"network.run_ns_per_hop_pkt explains sim_pps on sim_studyb_path within 25%", func(get func(string, string) float64) bool {
		r := get("sim_studyb_path", "network.run_ns_per_hop_pkt") * get("sim_studyb_path", "sim_pps") / 1e9
		return r > 0.75 && r < 1.25
	}},
	{"the event queue matters on sim_studyb_path: sim.heap_event_ns is over 15% of network.run_ns_per_hop_pkt", func(get func(string, string) float64) bool {
		return get("sim_studyb_path", "sim.heap_event_ns") > 0.15*get("sim_studyb_path", "network.run_ns_per_hop_pkt")
	}},
	{"the parallel runner uses the second CPU: experiments.fig3_parallel_speedup is above 1.3", func(get func(string, string) float64) bool {
		return get("sim_link_zoo", "experiments.fig3_parallel_speedup") > 1.3
	}},
	{"tracing is cheap: trace_overhead_frac is at most 0.10 on every workload", func(get func(string, string) float64) bool {
		for _, wl := range workloads {
			if get(wl.Name, "trace_overhead_frac") > 0.10 {
				return false
			}
		}
		return true
	}},
	{"spans account for the sim workloads: span.coverage_frac is within 10% of 1 on both", func(get func(string, string) float64) bool {
		for _, name := range []string{"sim_link_zoo", "sim_studyb_path"} {
			if c := get(name, "span.coverage_frac"); c < 0.9 || c > 1.1 {
				return false
			}
		}
		return true
	}},
}

// printPredictions says, for each interaction, whether it held in this
// set of runs.
func printPredictions(rf *resultsFile, w io.Writer) {
	get := func(workload, metric string) float64 {
		wr := rf.Workloads[workload]
		if wr == nil {
			return 0
		}
		if wr.Traced != nil {
			if v, ok := wr.Traced.Metrics[metric]; ok {
				return v
			}
		}
		return median(wr.column(metric))
	}
	fmt.Fprintln(w, "\nInteractions predicted before measuring")
	for _, p := range predictions {
		verdict := "held"
		if !p.holds(get) {
			verdict = "DID NOT HOLD"
		}
		fmt.Fprintf(w, "  %-12s %s\n", verdict, p.claim)
	}
}
