// Command pdload is a loopback load generator and soak harness for the
// live UDP forwarder: it stands up a forwarder, a paced multi-class
// sender, and a receiving sink on loopback sockets, saturates the egress
// for a configured duration, drains, and reports
//
//   - the achieved egress rate vs the configured -rate (the pacer must
//     hold the link rate for any live DDP-ratio claim to be meaningful),
//   - packet conservation (Received = Forwarded + Dropped + BadHeader +
//     BadClass exactly, with nothing left queued after the drain), and
//   - the observed per-class delay ratios vs the SDP targets.
//
// With -flows N the sender becomes multi-flow: N distinct UDP sockets
// per class emit untagged (ClassUnspecified) datagrams, and the
// forwarder classifies them by flow identity against a generated
// traffic-class config (one src-port filter per flow). Any
// misclassified datagram surfaces as a bad-class count or a per-class
// sink miscount, so the mode soaks the classifier edge end to end.
//
// It exits non-zero when the achieved rate deviates from -rate by more
// than -tolerance, when any datagram is unaccounted, or when any
// datagram's class could not be resolved, so it doubles as a CI soak
// check (`make soak`).
//
// Example:
//
//	pdload -rate 4e6 -duration 5s -classes 4 -sdp 1,2,4,8 -flows 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"pdds"
	"pdds/internal/cliutil"
	"pdds/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdload: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// loadConfig parameterizes one soak run.
type loadConfig struct {
	RateBps   float64       // forwarder egress rate, bits per second
	Offered   float64       // offered load as a multiple of RateBps
	Duration  time.Duration // sending phase length
	Classes   int           // number of service classes
	Size      int           // datagram size including the 18-byte header
	Scheduler pdds.SchedulerKind
	SDP       []float64
	MaxQueue  int           // forwarder queue bound (packets)
	Drain     time.Duration // post-send drain budget
	// FlowsPerClass, when > 0, switches to multi-flow mode: this many
	// distinct sender sockets per class, all emitting untagged
	// datagrams the forwarder must classify by flow identity.
	FlowsPerClass int
	// Shards is the forwarder's parallel ingress shard count (0 or 1 =
	// classic single-socket path).
	Shards int
}

// classResult is the per-class slice of a soak report.
type classResult struct {
	Class int `json:"class"`
	// Name is the class's label in multi-flow mode (empty otherwise).
	Name      string  `json:"name,omitempty"`
	Received  uint64  `json:"received"` // datagrams seen at the sink
	DelayMean float64 `json:"delay_mean_sec"`
	DelayP95  float64 `json:"delay_p95_sec"`
}

// loadReport is the outcome of one soak run.
type loadReport struct {
	ConfigRateBps   float64       `json:"config_rate_bps"`
	AchievedRateBps float64       `json:"achieved_rate_bps"`
	RateDeviation   float64       `json:"rate_deviation"` // achieved/config − 1
	BusyPeriod      time.Duration `json:"busy_period_ns"` // first→last sink datagram
	// AchievedPps is the end-to-end throughput in datagrams per second
	// over the busy period — the headline data-plane figure for sharded
	// and batched runs.
	AchievedPps float64 `json:"achieved_pps"`

	// Shards is the configured ingress shard count; ShardMode names the
	// active receive path ("mmsg" or "datagram").
	Shards    int    `json:"shards,omitempty"`
	ShardMode string `json:"shard_mode,omitempty"`

	Sent      uint64 `json:"sent"`
	Received  uint64 `json:"received"` // forwarder ingress (post kernel buffer)
	Forwarded uint64 `json:"forwarded"`
	Dropped   uint64 `json:"dropped"`
	BadHeader uint64 `json:"bad_header"`
	// BadClass counts datagrams whose class could not be resolved; in
	// multi-flow mode every flow has a matching filter, so any nonzero
	// value is a classification failure.
	BadClass uint64 `json:"bad_class"`
	// Unaccounted is the forwarder's Stats.Unaccounted; any nonzero
	// value is an accounting bug in the forwarder.
	Unaccounted int64  `json:"unaccounted"`
	SinkCount   uint64 `json:"sink_count"` // datagrams delivered end to end
	// Flows is the number of distinct sender flows (0 in classic
	// single-socket tagged mode).
	Flows int `json:"flows,omitempty"`

	DelayRatios  []float64     `json:"delay_ratios"`
	TargetRatios []float64     `json:"target_ratios"`
	Classes      []classResult `json:"classes"`
}

// soak runs one loopback load test: sink ← forwarder ← paced sender.
func soak(cfg loadConfig) (loadReport, error) {
	if cfg.Classes < 1 || cfg.Classes > 64 {
		return loadReport{}, fmt.Errorf("classes %d out of range [1,64]", cfg.Classes)
	}
	if len(cfg.SDP) != cfg.Classes {
		return loadReport{}, fmt.Errorf("%d SDPs for %d classes", len(cfg.SDP), cfg.Classes)
	}
	if cfg.Offered <= 1 {
		return loadReport{}, fmt.Errorf("offered load factor %g must exceed 1 to saturate the egress", cfg.Offered)
	}
	if cfg.FlowsPerClass < 0 || cfg.FlowsPerClass > 256 {
		return loadReport{}, fmt.Errorf("flows per class %d out of range [0,256]", cfg.FlowsPerClass)
	}

	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return loadReport{}, err
	}
	sink := loadgen.NewSink(sinkConn, cfg.Classes, cfg.Size)
	defer sink.Close()

	// Multi-flow mode: bind the per-flow sender sockets first so their
	// source ports are known, then generate a class config whose filters
	// pin each flow to its class by src-port.
	var flowConns [][]*net.UDPConn
	var classCfg *pdds.ClassConfig
	if cfg.FlowsPerClass > 0 {
		flowConns = make([][]*net.UDPConn, cfg.Classes)
		ports := make([][]uint16, cfg.Classes)
		for c := range flowConns {
			for i := 0; i < cfg.FlowsPerClass; i++ {
				conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					return loadReport{}, err
				}
				defer conn.Close()
				flowConns[c] = append(flowConns[c], conn)
				ports[c] = append(ports[c], uint16(conn.LocalAddr().(*net.UDPAddr).Port))
			}
		}
		if classCfg, err = flowClassConfig(cfg.SDP, ports); err != nil {
			return loadReport{}, err
		}
	}

	fwd, err := pdds.StartForwarderWithConfig(pdds.ForwarderConfig{
		Listen:       "127.0.0.1:0",
		Forward:      sinkConn.LocalAddr().String(),
		Scheduler:    cfg.Scheduler,
		SDP:          cfg.SDP,
		RateBps:      cfg.RateBps,
		MaxPackets:   cfg.MaxQueue,
		Shards:       cfg.Shards,
		DrainTimeout: cfg.Drain,
		Classes:      classCfg,
	})
	if err != nil {
		return loadReport{}, err
	}
	defer fwd.Close()

	sent, err := loadgen.Sender{
		Classes:  cfg.Classes,
		Size:     cfg.Size,
		Bps:      cfg.Offered * cfg.RateBps,
		Duration: cfg.Duration,
		Flows:    flowConns,
	}.Send(fwd.Addr().String())
	if err != nil {
		return loadReport{}, err
	}

	// Let the forwarder drain its backlog at the egress rate, bounded by
	// the worst case plus slack, then stop it.
	txTime := time.Duration(float64(cfg.Size*8) / cfg.RateBps * float64(time.Second))
	drainDeadline := time.Now().Add(time.Duration(cfg.MaxQueue)*txTime + 2*time.Second)
	for {
		st := fwd.Stats()
		if st.Queued == 0 && st.Unaccounted() == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	shardStats := fwd.ShardStats()
	if err := fwd.Close(); err != nil {
		return loadReport{}, err
	}
	st := fwd.Stats()

	sst := sink.Drain(st.Forwarded, time.Second)

	rep := loadReport{
		ConfigRateBps: cfg.RateBps,
		Sent:          sent,
		Received:      st.Received,
		Forwarded:     st.Forwarded,
		Dropped:       st.Dropped,
		BadHeader:     st.BadHeader,
		BadClass:      st.BadClass,
		Unaccounted:   st.Unaccounted(),
		SinkCount:     sst.Count,
		Flows:         cfg.FlowsPerClass * cfg.Classes,
		DelayRatios:   fwd.DelayRatios(),
	}
	if len(shardStats) > 0 {
		rep.Shards = len(shardStats)
		rep.ShardMode = shardStats[0].Mode
	}
	for _, c := range fwd.ClassStats() {
		cr := classResult{
			Class:     c.Class,
			Name:      c.Name,
			DelayMean: c.DelayMean,
			DelayP95:  c.DelayP95,
		}
		if c.Class < len(sst.Delay) {
			cr.Received = uint64(sst.Delay[c.Class].Len())
		}
		rep.Classes = append(rep.Classes, cr)
	}
	if len(cfg.SDP) > 1 {
		rep.TargetRatios = make([]float64, len(cfg.SDP)-1)
		for i := 0; i+1 < len(cfg.SDP); i++ {
			rep.TargetRatios[i] = cfg.SDP[i+1] / cfg.SDP[i]
		}
	}
	if sst.Count >= 2 {
		rep.BusyPeriod = sst.Last.Sub(sst.First)
		rep.AchievedRateBps = float64(sst.Bytes) * 8 / rep.BusyPeriod.Seconds()
		rep.RateDeviation = rep.AchievedRateBps/cfg.RateBps - 1
		// Like the byte rate, the first datagram opens the busy period and
		// is excluded from the numerator.
		rep.AchievedPps = float64(sst.Count-1) / rep.BusyPeriod.Seconds()
	}
	return rep, nil
}

// flowClassConfig generates and parses a traffic-class config for
// multi-flow mode: class c gets DDP maxSDP/SDP(c) (so the derived SDPs
// round-trip to the configured ones) and one src-port filter per flow
// socket, pinning every flow to its intended class.
func flowClassConfig(sdp []float64, ports [][]uint16) (*pdds.ClassConfig, error) {
	maxSDP := sdp[0]
	for _, s := range sdp[1:] {
		if s > maxSDP {
			maxSDP = s
		}
	}
	var b strings.Builder
	for c, classPorts := range ports {
		fmt.Fprintf(&b, "class c%d\n  ddp %g\n", c, maxSDP/sdp[c])
		for _, p := range classPorts {
			fmt.Fprintf(&b, "  match src-port %d\n", p)
		}
	}
	cfg, err := pdds.ParseClassConfig(strings.NewReader(b.String()))
	if err != nil {
		return nil, fmt.Errorf("generated class config: %w", err)
	}
	return cfg, nil
}

// check returns an error when the report violates the soak's acceptance
// conditions: rate within tolerance, exact packet conservation, and no
// unresolvable classes.
func (r loadReport) check(tolerance float64) error {
	if r.Unaccounted != 0 {
		return fmt.Errorf("%d unaccounted datagrams (received=%d forwarded=%d dropped=%d bad-header=%d bad-class=%d)",
			r.Unaccounted, r.Received, r.Forwarded, r.Dropped, r.BadHeader, r.BadClass)
	}
	if r.BadClass != 0 {
		return fmt.Errorf("%d datagrams with unresolvable class; every soak flow must classify", r.BadClass)
	}
	if r.SinkCount < 2 {
		return fmt.Errorf("sink saw only %d datagrams; no rate measurement possible", r.SinkCount)
	}
	if dev := r.RateDeviation; dev < -tolerance || dev > tolerance {
		return fmt.Errorf("achieved egress rate %.0f bps deviates %+.2f%% from configured %.0f bps (tolerance ±%.0f%%)",
			r.AchievedRateBps, dev*100, r.ConfigRateBps, tolerance*100)
	}
	return nil
}

// render writes the human-readable report.
func (r loadReport) render(w io.Writer) {
	fmt.Fprintf(w, "egress rate: achieved %.0f bps vs configured %.0f bps (%+.2f%%) over %v busy period\n",
		r.AchievedRateBps, r.ConfigRateBps, r.RateDeviation*100, r.BusyPeriod.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput: %.0f packets/sec end to end", r.AchievedPps)
	if r.Shards > 0 {
		fmt.Fprintf(w, " (%d ingress shard(s), %s I/O)", r.Shards, r.ShardMode)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "conservation: sent=%d received=%d forwarded=%d dropped=%d bad-header=%d bad-class=%d unaccounted=%d sink=%d\n",
		r.Sent, r.Received, r.Forwarded, r.Dropped, r.BadHeader, r.BadClass, r.Unaccounted, r.SinkCount)
	if r.Flows > 0 {
		fmt.Fprintf(w, "flows: %d distinct sender flows classified by the forwarder\n", r.Flows)
	}
	for _, c := range r.Classes {
		label := fmt.Sprintf("class %d", c.Class)
		if c.Name != "" {
			label = fmt.Sprintf("class %d (%s)", c.Class, c.Name)
		}
		fmt.Fprintf(w, "%s: sink=%d delay mean=%.1fms p95=%.1fms\n",
			label, c.Received, c.DelayMean*1e3, c.DelayP95*1e3)
	}
	if len(r.DelayRatios) > 0 {
		parts := make([]string, len(r.DelayRatios))
		for i, v := range r.DelayRatios {
			parts[i] = fmt.Sprintf("%.2f", v)
		}
		tparts := make([]string, len(r.TargetRatios))
		for i, v := range r.TargetRatios {
			tparts[i] = fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(w, "delay ratios: %s (targets %s)\n", strings.Join(parts, ","), strings.Join(tparts, ","))
	}
}

// run executes the CLI against args, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdload", flag.ContinueOnError)
	var (
		rate      = fs.Float64("rate", 4e6, "forwarder egress rate, bits per second")
		offered   = fs.Float64("offered", 1.5, "offered load as a multiple of -rate (must be > 1)")
		duration  = fs.Duration("duration", 5*time.Second, "sending phase length")
		classes   = fs.Int("classes", 4, "number of service classes")
		size      = fs.Int("size", 500, "datagram size in bytes including the 18-byte header")
		sched     = fs.String("sched", "wtp", "scheduler: wtp|bpr|strict|wfq|drr|additive|pad|hpd|fcfs")
		sdpStr    = fs.String("sdp", "", "scheduler differentiation parameters (default 1,2,4,... per class)")
		flows     = fs.Int("flows", 0, "synthetic flows per class: > 0 sends untagged datagrams over this many sockets per class and the forwarder classifies by flow identity (0 = classic tagged mode)")
		shards    = fs.Int("shards", 1, "forwarder ingress shards (SO_REUSEPORT sockets; 1 = classic single-socket path)")
		maxq      = fs.Int("maxq", 512, "forwarder queue bound, packets")
		drain     = fs.Duration("drain", 10*time.Second, "forwarder drain budget at shutdown")
		tolerance = fs.Float64("tolerance", 0.02, "acceptable relative egress-rate deviation")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sdp := make([]float64, 0, *classes)
	if *sdpStr != "" {
		var err error
		sdp, err = cliutil.ParseFloats(*sdpStr)
		if err != nil {
			return fmt.Errorf("-sdp: %v", err)
		}
	} else {
		for i := 0; i < *classes; i++ {
			sdp = append(sdp, float64(int(1)<<i))
		}
	}
	rep, err := soak(loadConfig{
		RateBps:       *rate,
		Offered:       *offered,
		Duration:      *duration,
		Classes:       *classes,
		Size:          *size,
		Scheduler:     pdds.SchedulerKind(*sched),
		SDP:           sdp,
		MaxQueue:      *maxq,
		Drain:         *drain,
		FlowsPerClass: *flows,
		Shards:        *shards,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		rep.render(stdout)
	}
	return rep.check(*tolerance)
}
