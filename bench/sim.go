package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/network"
	"pdds/internal/stats"
	"pdds/internal/traffic"
)

// A sim workload is measured in rounds of fixed work. A round runs a fixed
// list of units (one simulator call each) from a seed derived from the run
// seed and the round number; rounds repeat until the time budget is spent.
// Every timing metric is the better quartile over rounds of the per-round
// value — rounds are to the simulator what one-second windows are to the
// forwarder.
//
// The first detRounds rounds always run and are the only ones that feed the
// deterministic outputs (packet counts, delay ratios, digest, allocations),
// so those read the same on every host for a given seed, however many
// further rounds the budget allows.

const (
	simRho    = 0.95
	detRounds = 3
	// zooHorizon is one discipline's run length in a round, in time units:
	// twice the paper's Study-A horizon, about 171k packets.
	zooHorizon = 2e6
	// A Study-B round is one Table-1 cell (8 hops, F=100, 200 kbit/s),
	// shortened to five experiments after five seconds of warm-up: about
	// 770k hop-packets.
	studyBExperiments = 5
	studyBWarmupSec   = 5.0
)

var paperSDP = []float64{1, 2, 4, 8}

// unitResult is one simulator call.
type unitResult struct {
	wall    float64 // seconds
	packets uint64  // simulated packets (hop-packets for Study B)
}

// roundResult is one round of a sim workload.
type roundResult struct {
	units     []unitResult
	generated uint64
	dropped   uint64
	util      float64 // realized utilization (the median over the round's units)
	// What the paper's contract pins to a ratio of 2: the WTP run's class
	// delays, pooled over rounds (zoo), or the cell's end-to-end R_D
	// (Study B).
	wtp      *stats.ClassDelays
	ratios   []float64
	digest   []string // canonical per-class counts and mean delays
	failures []string
}

func (r roundResult) wall() (s float64) {
	for _, u := range r.units {
		s += u.wall
	}
	return s
}

func (r roundResult) packets() (n uint64) {
	for _, u := range r.units {
		n += u.packets
	}
	return n
}

// simSpec is one sim workload.
type simSpec struct {
	// round runs round number r at the given scale (1 = full size).
	round func(seed uint64, r int, scale float64, tr *tracer, parent int) (roundResult, error)
	// smallest runs the smallest request the simulator serves, the sim
	// counterpart of one datagram through an idle forwarder.
	smallest      func(seed uint64) error
	smallestCalls int
	// utilTolerance is how far realized utilization may sit from rho.
	utilTolerance float64
}

var simSpecs = map[string]simSpec{
	"sim_link_zoo": {round: zooRound, smallest: zooSmallest, smallestCalls: 200, utilTolerance: 0.02},
	// Study B's rho counts the user flows, which are absent during warm-up
	// and the drain tail, so short cells sit about 5% under it.
	"sim_studyb_path": {round: studyBRound, smallest: studyBSmallest, smallestCalls: 40, utilTolerance: 0.08},
}

func roundSeed(seed uint64, r int) uint64 { return seed*1000003 + uint64(r) }

// floatBits renders x exactly, so the digest pins every bit.
func floatBits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func zooRound(seed uint64, r int, scale float64, tr *tracer, parent int) (roundResult, error) {
	var res roundResult
	horizon := zooHorizon * scale
	load := traffic.PaperLoad(simRho)
	rs := roundSeed(seed, r)
	if tr != nil {
		// One extra trace recording per round prices traffic generation,
		// which link.Run otherwise does inside itself.
		sp := tr.begin("traffic.record", parent)
		if _, err := traffic.Record(load, link.PaperLinkRate, horizon, rs); err != nil {
			return res, err
		}
		tr.end(sp)
	}
	var utils []float64
	for _, kind := range core.Kinds() {
		sp := tr.begin("link.run", parent)
		t0 := time.Now()
		out, err := link.Run(link.RunConfig{
			Kind: kind, SDP: paperSDP, Load: load,
			Horizon: horizon, Warmup: horizon / 20, Seed: rs,
		})
		wall := time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return res, fmt.Errorf("%s: %w", kind, err)
		}
		res.units = append(res.units, unitResult{wall: wall, packets: out.Generated})
		res.generated += out.Generated
		res.dropped += out.Dropped
		utils = append(utils, out.Utilization)

		sp = tr.begin("stats.summarize", parent)
		if out.Departed+out.Dropped > out.Generated {
			res.failures = append(res.failures, fmt.Sprintf("%s: departed %d + dropped %d exceeds generated %d", kind, out.Departed, out.Dropped, out.Generated))
		}
		// Every discipline sees the same arrivals and is work conserving,
		// so packet count and busy time cannot depend on the discipline
		// (utilization is taken at the last event, whose time can).
		if out.Generated != res.units[0].packets || math.Abs(out.Utilization-utils[0]) > 1e-5 {
			res.failures = append(res.failures, fmt.Sprintf("%s: generated %d, utilization %.12f differ from %s's %d, %.12f",
				kind, out.Generated, out.Utilization, core.Kinds()[0], res.units[0].packets, utils[0]))
		}
		line := []string{string(kind)}
		for c := 0; c < out.Delays.NumClasses(); c++ {
			line = append(line, fmt.Sprintf("%d:%s", out.Delays.Count(c), floatBits(out.Delays.Mean(c))))
		}
		res.digest = append(res.digest, strings.Join(line, " "))
		if kind == core.KindWTP {
			res.wtp = out.Delays
		}
		tr.end(sp)
	}
	res.util = median(utils)
	return res, nil
}

func zooSmallest(seed uint64) error {
	_, err := link.Run(link.RunConfig{
		Kind: core.KindWTP, SDP: paperSDP, Load: traffic.PaperLoad(simRho),
		Horizon: 1000, Seed: seed,
	})
	return err
}

func studyBConfig(seed uint64, scale float64) network.Config {
	return network.Config{
		Hops: 8, Rho: simRho, SDP: paperSDP,
		FlowPackets: 100, FlowKbps: 200,
		Experiments: max(1, int(math.Round(studyBExperiments*scale))),
		WarmupSec:   studyBWarmupSec * scale,
		Seed:        seed,
	}
}

// studyBRound is one cell: with a single call per round the host-speed
// reference brackets every call, which a longer round's drift defeated.
func studyBRound(seed uint64, r int, scale float64, tr *tracer, parent int) (roundResult, error) {
	var res roundResult
	cfg := studyBConfig(roundSeed(seed, r), scale)
	sp := tr.begin("network.run", parent)
	t0 := time.Now()
	out, err := network.Run(cfg)
	wall := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return res, err
	}
	sp = tr.begin("stats.summarize", parent)
	defer tr.end(sp)
	user := uint64(len(cfg.SDP) * cfg.FlowPackets * cfg.Experiments)
	packets := out.CrossPackets + user*uint64(cfg.Hops)
	res.units = []unitResult{{wall: wall, packets: packets}}
	res.generated = packets
	res.util = out.Utilization
	res.ratios = []float64{out.RD}
	line := []string{fmt.Sprintf("cross=%d rd=%s", out.CrossPackets, floatBits(out.RD))}
	for c, m := range out.MeanE2E {
		// network.Run fails unless every user packet is delivered; the
		// per-flow samples must then be complete too.
		for _, exp := range out.Flows {
			if n := exp[c].Delays.Len(); n != cfg.FlowPackets {
				res.failures = append(res.failures, fmt.Sprintf("experiment %d class %d holds %d of %d samples", exp[c].Experiment, c, n, cfg.FlowPackets))
			}
		}
		line = append(line, fmt.Sprintf("%d:%s", len(out.Flows)*cfg.FlowPackets, floatBits(m)))
	}
	res.digest = []string{strings.Join(line, " ")}
	return res, nil
}

func studyBSmallest(seed uint64) error {
	_, err := network.Run(network.Config{
		Hops: 1, Rho: simRho, SDP: paperSDP,
		FlowPackets: 1, FlowKbps: 200, Experiments: 1, Seed: seed,
	})
	return err
}

// Host speed reference. The build host's CPUs change speed by a quarter for
// seconds to minutes at a time (a fixed loop takes 4.7 or 6.0 ms), which a
// single-threaded simulation follows exactly: over 150 s the wall time of a
// link.Run varied by 12% while its ratio to the loop's stayed within 2%. So
// every sim timing is divided by the host's slowdown at that moment — the
// loop's time just before and after the timed work over its nominal time —
// and reads as on a host where the loop takes refNominalMs. The loop is the
// benchmark's own code: no change to the simulator can move it. The live
// workloads are not scaled: their windows do not follow the loop (kernel
// time on two CPUs), and dividing by it only added noise.
const (
	refNominalMs = 6.0 // the loop on the build host in its usual state
	refSteps     = 3_000_000
)

var (
	refTable [1 << 15]uint64
	refSink  uint64
)

func init() {
	for i := range refTable {
		refTable[i] = uint64(i) * 2654435761
	}
}

// hostSlowdown times the reference loop: 1 on the nominal host, above 1
// while this host is slower.
func hostSlowdown() float64 {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += refTable[x&(1<<15-1)]
	}
	refSink = acc
	return time.Since(t0).Seconds() * 1e3 / refNominalMs
}

// simOptions are the knobs of a sim run.
type simOptions struct {
	seed   uint64
	budget time.Duration // measuring stops after the round that crosses it
	scale  float64       // unit size; 1 outside the smoke test
	tr     *tracer
}

// simOutcome is everything one sim run measured.
type simOutcome struct {
	setupS                 float64
	pps                    float64
	rounds                 int
	cpuUsPerPkt            float64
	idleP50Us              float64
	sojournP50, sojournP99 float64
	generated, dropped     uint64
	rssMB                  float64
	ddpAccuracy            float64
	rateAccuracy           float64
	allocsPerPkt           float64
	hostSlowdown           float64 // median over rounds; the timings above are already divided by it
	digest                 string
	failures               []string
}

func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runSim measures one sim workload once.
func runSim(name string, opt simOptions) (*simOutcome, error) {
	spec := simSpecs[name]
	out := &simOutcome{}

	// Set-up: build the workload and run it warm, several times over.
	setupTimes := make([]float64, 0, setupRepeats)
	slow := hostSlowdown()
	var slowdowns []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := spec.round(opt.seed, -1-i, opt.scale, nil, 0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		before := slow
		slow = hostSlowdown()
		setupTimes = append(setupTimes, wall/((before+slow)/2))
	}
	out.setupS = median(setupTimes)

	root := opt.tr.begin("harness", 0)
	idle := make([]float64, spec.smallestCalls)
	for i := range idle {
		t0 := time.Now()
		if err := spec.smallest(opt.seed + uint64(i)); err != nil {
			return nil, fmt.Errorf("smallest run: %w", err)
		}
		idle[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	before := slow
	slow = hostSlowdown()
	out.idleP50Us = shortQuartile(idle) / ((before + slow) / 2)

	var (
		pps, cpuPer, p50s, p99s []float64
		utils, ratios           []float64
		digest                  []string
		wtp                     *stats.ClassDelays
		detPackets              uint64
		m0, m1                  runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < detRounds || time.Since(start) < opt.budget; r++ {
		sp := opt.tr.begin("round", root)
		cpu0 := selfCPU()
		res, err := spec.round(opt.seed, r, opt.scale, opt.tr, sp)
		cpu1 := selfCPU()
		opt.tr.end(sp)
		if err != nil {
			return nil, err
		}
		before := slow
		slow = hostSlowdown()
		during := (before + slow) / 2
		slowdowns = append(slowdowns, during)
		n := float64(res.packets())
		pps = append(pps, n/res.wall()*during)
		cpuPer = append(cpuPer, (cpu1-cpu0)/n*1e6/during)
		walls := make([]float64, len(res.units))
		for i, u := range res.units {
			walls[i] = u.wall * 1e6 / during
		}
		p50s = append(p50s, quantile(walls, 0.50))
		p99s = append(p99s, quantile(walls, 0.99))
		out.failures = append(out.failures, res.failures...)
		out.generated += res.generated
		out.dropped += res.dropped
		if r < detRounds {
			detPackets += res.packets()
			utils = append(utils, res.util)
			digest = append(digest, res.digest...)
			if res.wtp != nil {
				if wtp == nil {
					wtp = res.wtp
				} else {
					wtp.Merge(res.wtp)
				}
			} else {
				ratios = append(ratios, res.ratios...)
			}
			if r == detRounds-1 {
				runtime.ReadMemStats(&m1)
			}
		}
	}
	opt.tr.end(root)
	out.rounds = len(pps)
	out.hostSlowdown = median(slowdowns)
	out.pps = fastQuartile(pps)
	out.cpuUsPerPkt = shortQuartile(cpuPer)
	out.sojournP50, out.sojournP99 = shortQuartile(p50s), shortQuartile(p99s)
	out.rssMB = selfMaxRSSMB()
	out.allocsPerPkt = float64(m1.Mallocs-m0.Mallocs) / float64(detPackets)

	// Deterministic outputs, from the first detRounds rounds only.
	if wtp != nil {
		out.ddpAccuracy = ddpAccuracy(wtp.SuccessiveRatios(), []float64{2, 2, 2})
	} else {
		var mean float64
		for _, rd := range ratios {
			mean += rd / float64(len(ratios))
		}
		out.ddpAccuracy = ddpAccuracy([]float64{mean}, []float64{2})
	}
	util := median(utils)
	out.rateAccuracy = 1 - math.Abs(util/simRho-1)
	// Short runs of heavy-tailed traffic wander further from rho.
	if tol := spec.utilTolerance / math.Sqrt(min(1, opt.scale)); math.Abs(util/simRho-1) > tol {
		out.failures = append(out.failures, fmt.Sprintf("utilization %.4f is more than %.0f%% from rho %.2f", util, tol*100, simRho))
	}
	if out.dropped != 0 {
		out.failures = append(out.failures, fmt.Sprintf("%d packets dropped by a lossless model", out.dropped))
	}
	sum := sha256.Sum256([]byte(strings.Join(digest, "\n")))
	out.digest = hex.EncodeToString(sum[:])
	return out, nil
}

// --- golden digests ------------------------------------------------------

// goldenSeed is the seed whose outputs are recorded.
const goldenSeed = 1999

// goldenKey names a recorded digest: the workload and the unit scale.
func goldenKey(name string, scale float64) string { return fmt.Sprintf("%s@%g", name, scale) }

func goldenPath(root string) string {
	return filepath.Join(root, "bench", "testdata", "golden.json")
}

func loadGolden(root string) (map[string]string, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	g := map[string]string{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a run's digest with the recorded one. Only the
// golden seed has a record; a scale nobody recorded is not an error.
func checkGolden(root, name string, opt simOptions, digest string) error {
	if opt.seed != goldenSeed {
		return nil
	}
	g, err := loadGolden(root)
	if err != nil {
		return err
	}
	want, ok := g[goldenKey(name, opt.scale)]
	if ok && want != digest {
		return fmt.Errorf("digest of per-class counts and mean delays is %s, recorded %s (bench/testdata/golden.json; -update-golden rewrites it after an intended change)", digest, want)
	}
	return nil
}

// goldenScales are the unit scales with a record: the benchmark's and the
// smoke test's.
var goldenScales = []float64{1, smokeScale}

// updateGoldenFile recomputes every recorded digest.
func updateGoldenFile(root string) error {
	g := map[string]string{}
	for name := range simSpecs {
		for _, scale := range goldenScales {
			out, err := runSim(name, simOptions{seed: goldenSeed, scale: scale})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			g[goldenKey(name, scale)] = out.digest
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(data, '\n'), 0o644)
}
