// Command bench is the repository's benchmark: one command that measures
// the live forwarder (a real pdfwd process over loopback UDP) and the
// simulator end to end and layer by layer. BENCHMARK.json at the module
// root names its workloads and metrics; README.md in this directory
// explains them.
//
//	go run ./bench                          every workload once, report + bench/results/latest.json
//	go run ./bench -runs 5                  five alternating runs of every workload
//	go run ./bench -trace 1                 also the traced runs (per-layer metrics, span files)
//	go run ./bench -workload fwd_min64      one workload; the last line is its result as JSON
//	go run ./bench -compare a.json b.json   verdict per workload and end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// smokeScale is the unit scale of the smoke test.
const smokeScale = 0.02

func nproc() int { return runtime.NumCPU() }

func main() {
	var (
		workload     = flag.String("workload", "", "run this one workload and print its result as the last line (default: run all)")
		seed         = flag.Uint64("seed", goldenSeed, "seed of every generated input")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes bench/results/trace-<workload>.json")
		runs         = flag.Int("runs", 1, "with no -workload: runs of every workload, alternating")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "recompute bench/testdata/golden.json")
	)
	flag.Parse()
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(root, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *updateGolden:
		if err := updateGoldenFile(root); err != nil {
			fatal(err)
		}
	case *workload == "":
		ok, err := runSuite(root, *seed, *seconds, *trace == 1, *runs)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		res, err := runWorkload(root, *workload, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func resultsDir(root string) string { return filepath.Join(root, "bench", "results") }

// runWorkload measures one workload and prints every metric by name. An
// untraced run yields the end-to-end metrics. A traced run splits the time
// over several passes — untraced, then with spans recorded — and yields the
// per-layer metrics, among them the cost of tracing itself; order
// statistics over windows do not depend on how many windows there are.
func runWorkload(root, name string, seed uint64, seconds float64, traced bool) (*result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	if budget <= 0 {
		return nil, fmt.Errorf("-seconds %g must be positive", seconds)
	}
	vs := newValues()
	var tr *tracer
	var rep report
	var err error
	if traced {
		tr = newTracer(name)
	}
	switch {
	case liveSpecs[name] != liveSpec{}:
		rep, err = measureLive(vs, root, name, seed, budget, tr)
	case simSpecs[name].round != nil:
		rep, err = measureSim(vs, root, name, seed, budget, 1, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json lists them)", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if err := runMicro(vs, root); err != nil {
			return nil, fmt.Errorf("per-layer timings: %w", err)
		}
		path, err := tr.write(resultsDir(root))
		if err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	metrics, err := vs.project(defs, !traced)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s  seed %d  %s  %d CPUs  %s\n", name, seed, rep.mode, nproc(), runtime.Version())
	for _, note := range rep.notes {
		fmt.Println("  " + note)
	}
	for _, d := range defs {
		fmt.Printf("  %-36s %16.6g %-6s n=%d\n", d.Name, metrics[d.Name].Value, d.Unit, vs.n[d.Name])
	}
	for _, f := range rep.failures {
		fmt.Println("  FAILED: " + f)
	}
	return &result{Correct: len(rep.failures) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}, nil
}

// report is what a measurement says besides its metric values.
type report struct {
	mode              string // how the system under test was run
	notes             []string
	failures          []string
	attempted, failed int64
}

// measureLive runs a live workload and names its numbers.
func measureLive(vs *values, root, name string, seed uint64, budget time.Duration, tr *tracer) (report, error) {
	spec := liveSpecs[name]
	opt := liveOptions{seed: seed, measure: budget, warmup: time.Second, window: maxWindow, root: root}
	if tr != nil {
		// Three passes: the real process, then the forwarder in process
		// without and with spans.
		opt.measure /= 3
	}
	out, err := runLive(spec, opt)
	if err != nil {
		return report{}, err
	}
	rep := report{
		mode:      "real pdfwd process over loopback (no link), 1 sender + 1 sink goroutine",
		failures:  out.failures,
		attempted: int64(out.sent),
		failed:    int64(out.sent - out.good),
	}
	loop := fmt.Sprintf("closed loop, W=1 then W=%d", opt.window)
	if spec.paced {
		loop = fmt.Sprintf("closed loop W=1, then open-loop Study-A replay at rho %.2f into %.0f Mbit/s", pacedRho, pacedRateBps/1e6)
	}
	rep.notes = append(rep.notes,
		loop,
		fmt.Sprintf("sink SO_RCVBUF granted %d bytes (asked %d)", out.sinkRcvBuf, sinkRcvBuf),
		fmt.Sprintf("forwarder: %+v", out.counters),
		fmt.Sprintf("host: forwarder+harness CPU is %.0f%% of wall x %d CPUs", out.hostBusyFrac*100, nproc()))
	if out.unpinned != "" {
		rep.notes = append(rep.notes, "CPU placement left to the kernel: "+out.unpinned)
	}
	for _, why := range out.discarded {
		rep.notes = append(rep.notes, "loaded phase discarded and re-run: "+why)
	}
	if out.invalid != "" {
		// The generator's trouble, not the forwarder's: the numbers stand
		// as measured and the reader is told.
		rep.notes = append(rep.notes, "NOTE: "+out.invalid)
	}

	setLiveEndToEnd(vs, spec, out)
	if tr == nil {
		return rep, nil
	}

	// Per-layer numbers read at the process boundary of the untraced run.
	fwdPkts := float64(max(out.counters.Forwarded, 1))
	vs.set("netio.user_us_per_pkt", out.usage.userS/fwdPkts*1e6, 1)
	vs.set("netio.sys_us_per_pkt", out.usage.sysS/fwdPkts*1e6, 1)
	vs.set("netio.ctxsw_per_pkt", float64(out.usage.volCtxsw)/fwdPkts, 1)
	vs.set("netio.dropped", float64(out.counters.Dropped), 1)
	vs.set("netio.bad_header", float64(out.counters.BadHeader), 1)
	vs.set("netio.bad_class", float64(out.counters.BadClass), 1)
	vs.set("netio.unaccounted", float64(out.counters.unaccounted()), 1)
	vs.set("harness.cpu_us_per_pkt", out.harnessCPUUsPerPkt, out.pktWindows)
	vs.set("harness.host_busy_frac", out.hostBusyFrac, out.pktWindows)
	vs.set("harness.gen_late_p99_us", out.genLateP99Us, int(out.sent))
	vs.set("harness.timeouts", float64(out.timeouts), int(out.sent))
	vs.set("harness.retries", float64(out.retries), 1)

	floor, err := directRTT(seed, budget/10)
	if err != nil {
		return report{}, fmt.Errorf("no-forwarder floor: %w", err)
	}
	vs.set("harness.direct_rtt_p50_us", floor, 1)

	// Same traffic with the forwarder in process, so its shard and class
	// statistics are readable: once plain, once with spans. The two differ
	// only in the tracing.
	opt.inproc = true
	plain, err := runLive(spec, opt)
	if err != nil {
		return report{}, fmt.Errorf("in-process pass: %w", err)
	}
	opt.tr = tr
	traced, err := runLive(spec, opt)
	if err != nil {
		return report{}, fmt.Errorf("traced pass: %w", err)
	}
	for _, f := range traced.failures {
		rep.failures = append(rep.failures, "traced pass: "+f)
	}
	vs.set("netio.recv_batch_avg", traced.recvBatchAvg, int(traced.counters.Received))
	vs.set("netio.recv_batch_max", traced.recvBatchMax, int(traced.counters.Received))
	vs.set("netio.sched_wait_p50_us", traced.schedWaitP50Us, int(traced.counters.Forwarded))
	vs.set("netio.sched_wait_p99_us", traced.schedWaitP99Us, int(traced.counters.Forwarded))
	vs.set("netio.io_path_p50_us", traced.ioPathUs, traced.pktWindows)
	vs.set("netio.sim_delay_err", traced.simDelayErr, 1)
	vs.set("trace_overhead_frac", 1-traced.pps/plain.pps, traced.pktWindows)
	setSpanMetrics(vs, tr)
	return rep, nil
}

// setLiveEndToEnd names a live run's end-to-end numbers.
func setLiveEndToEnd(vs *values, spec liveSpec, out *liveOutcome) {
	vs.set("setup_s", out.setupS, setupRepeats)
	vs.set("fwd_pps", out.pps, out.pktWindows)
	vs.set("cpu_us_per_pkt", out.cpuUsPerPkt, out.pktWindows)
	vs.set("idle_rtt_p50_us", out.idleRTTP50, out.idleWindows)
	vs.set("sojourn_p50_us", out.sojournP50, out.pktWindows)
	vs.set("sojourn_p99_us", out.sojournP99, out.pktWindows)
	vs.set("delivered_frac", float64(out.good)/float64(out.sent), int(out.sent))
	vs.set("rss_mb", out.usage.maxRSSMB, 1)
	vs.set("ddp_accuracy", notApplicable, 0)
	vs.set("rate_accuracy", notApplicable, 0)
	if spec.paced {
		vs.set("ddp_accuracy", out.ddpAccuracy, int(out.counters.Forwarded))
		vs.set("rate_accuracy", out.rateAccuracy, out.rateStretches)
	}
	vs.set("sim_pps", notApplicable, 0)
	vs.set("allocs_per_pkt", notApplicable, 0)
}

// directRTT is the loopback-plus-harness floor: the W=1 round trip with
// the flow socket pointed straight at the sink, no forwarder in between.
func directRTT(seed uint64, dur time.Duration) (float64, error) {
	rng := newRNG(seed)
	h, err := newHarness(1, false, int(dur.Seconds()*400e3), rng, nil)
	if err != nil {
		return 0, err
	}
	if err := h.connect(h.sinkAddr(), rng); err != nil {
		h.close()
		return 0, err
	}
	ps, err := h.runClosed(1, dur, 0)
	h.close()
	if err != nil {
		return 0, err
	}
	ws := windows(h.log, h.epoch, ps.start, ps.end, dur/idleWindows, -1)
	return shortQuartile(series(ws, func(w window) float64 { return w.p50 })), nil
}

// setSpanMetrics folds the tracer's self times into the span.* metrics.
// Per-datagram spans are sampled one in spanEvery, so their sums are
// scaled back up; they overlap each other and are left out of coverage.
func setSpanMetrics(vs *values, tr *tracer) {
	self := tr.selfTimes()
	n := len(tr.spans)
	vs.set("span.harness.self_s", self["harness"]+self["round"]+self["phase.idle"]+self["phase.load"]+self["harness.send"]*spanEvery, n)
	vs.set("span.fwd.sojourn.self_s", self["fwd.sojourn"]*spanEvery, n)
	for _, name := range []string{"telemetry.snapshot", "traffic.record", "link.run", "network.run", "stats.summarize"} {
		vs.set("span."+name+".self_s", self[name], n)
	}
	var wall, covered float64
	for _, s := range tr.spans {
		if s.Parent == 0 && s.Name == "harness" {
			wall += float64(s.End-s.Start) / 1e9
		}
	}
	for name, s := range self {
		if name != "fwd.sojourn" && name != "harness.send" {
			covered += s
		}
	}
	if wall > 0 {
		vs.set("span.coverage_frac", covered/wall, n)
	}
}

// measureSim runs a sim workload and names its numbers.
func measureSim(vs *values, root, name string, seed uint64, budget time.Duration, scale float64, tr *tracer) (report, error) {
	if tr != nil {
		budget /= 2 // an untraced and a traced pass
	}
	opt := simOptions{seed: seed, budget: budget, scale: scale}
	out, err := runSim(name, opt)
	if err != nil {
		return report{}, err
	}
	rep := report{
		mode:      "simulator in this process",
		failures:  out.failures,
		attempted: int64(out.generated),
		failed:    int64(out.dropped),
		notes: []string{
			fmt.Sprintf("%d rounds of fixed work; the first %d feed the deterministic outputs", out.rounds, detRounds),
			fmt.Sprintf("host ran at %.2fx the reference loop's nominal %.1f ms; timings are scaled to nominal", out.hostSlowdown, refNominalMs),
			"digest " + out.digest,
		},
	}
	if err := checkGolden(root, name, opt, out.digest); err != nil {
		rep.failures = append(rep.failures, err.Error())
	}
	vs.set("setup_s", out.setupS, setupRepeats)
	vs.set("fwd_pps", notApplicable, 0)
	vs.set("cpu_us_per_pkt", out.cpuUsPerPkt, out.rounds)
	vs.set("idle_rtt_p50_us", out.idleP50Us, simSpecs[name].smallestCalls)
	vs.set("sojourn_p50_us", out.sojournP50, out.rounds)
	vs.set("sojourn_p99_us", out.sojournP99, out.rounds)
	vs.set("delivered_frac", 1-float64(out.dropped)/float64(out.generated), int(out.generated))
	vs.set("rss_mb", out.rssMB, 1)
	vs.set("ddp_accuracy", out.ddpAccuracy, detRounds)
	vs.set("rate_accuracy", out.rateAccuracy, detRounds)
	vs.set("sim_pps", out.pps, out.rounds)
	vs.set("allocs_per_pkt", out.allocsPerPkt, detRounds)
	if tr == nil {
		return rep, nil
	}
	opt.tr = tr
	traced, err := runSim(name, opt)
	if err != nil {
		return report{}, fmt.Errorf("traced pass: %w", err)
	}
	if traced.digest != out.digest {
		rep.failures = append(rep.failures, "traced pass computed a different digest: "+traced.digest)
	}
	vs.set("trace_overhead_frac", 1-traced.pps/out.pps, traced.rounds)
	setSpanMetrics(vs, tr)
	return rep, nil
}
