// Command pdfwd runs the live UDP class-based forwarder: a single-hop
// DiffServ-style per-hop behaviour whose egress is scheduled by WTP (or
// any other supported discipline) at a configured rate.
//
// Datagrams must carry the pdds 18-byte header (version, class, sequence,
// send timestamp); see the examples/forwarder program for a matching
// traffic generator and delay probe.
//
// With -metrics-addr set, live per-class metrics (counters, delay
// histogram quantiles, adjacent-class delay ratios vs the configured
// SDPs) are served over HTTP at /metrics (JSON), /metrics?format=text
// (human view) and /debug/pprof/ (profiling), and a per-class summary
// line is printed at every stats interval.
//
// With -classes set, the forwarder becomes a classifying edge: a
// traffic-class config file names the classes, declares their delay
// differentiation parameters (from which the scheduler SDPs are
// derived), and attaches match filters; datagrams tagged with the
// ClassUnspecified byte (0xFF) or an out-of-range class are classified
// by flow identity and re-marked. See testdata/classes.conf for a
// worked example.
//
// With -adapt set, a closed-loop controller watches the measured
// adjacent-class delay ratios and retunes the live scheduler parameters
// whenever they drift from the SDP targets beyond a deadband — the
// periodic stats line then reports the retune count and the current
// parameter vector.
//
// Example:
//
//	pdfwd -listen 127.0.0.1:7000 -forward 127.0.0.1:7001 -rate 1000000 \
//	      -metrics-addr 127.0.0.1:8080 -adapt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"pdds"
	"pdds/internal/cliutil"
)

// options are pdfwd's parsed command-line settings.
type options struct {
	cfg      pdds.ForwarderConfig
	interval time.Duration
}

// parseArgs parses pdfwd's flags (without the program name) into options.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("pdfwd", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:7000", "UDP ingress address")
		forward     = fs.String("forward", "127.0.0.1:7001", "UDP egress destination")
		rate        = fs.Float64("rate", 1e6, "egress rate, bits per second")
		shards      = fs.Int("shards", 1, "parallel ingress shards (SO_REUSEPORT sockets; 1 = classic single-socket path)")
		sched       = fs.String("sched", "wtp", "scheduler: wtp|bpr|strict|wfq|drr|iwrr|pf|additive|pad|hpd|fcfs")
		sdpStr      = fs.String("sdp", "1,2,4,8", "scheduler differentiation parameters")
		stats       = fs.Duration("stats", 5*time.Second, "stats print interval")
		drain       = fs.Duration("drain", time.Second, "graceful drain budget on shutdown (0 = drop queued datagrams)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this HTTP address (empty = disabled)")
		classesPath = fs.String("classes", "", "traffic-class config file: classify untagged/unresolvable datagrams and derive SDPs from the declared DDPs")
		distrust    = fs.String("distrust-class", "false", "with -classes: classify every datagram from flow identity, ignoring in-range header class bytes (true|false)")
		flowTTL     = fs.Duration("flow-ttl", 2*time.Minute, "with -classes: idle eviction age for memoized flow→class decisions (0 = never expire)")
		adapt       = fs.Bool("adapt", false, "closed-loop adaptation: retune the live scheduler parameters whenever the measured delay ratios drift from the SDP targets (requires a retunable scheduler)")
		adaptEvery  = fs.Duration("adapt-interval", time.Second, "with -adapt: controller observation window")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	sdpSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "sdp" {
			sdpSet = true
		}
	})
	sdp, err := cliutil.ParseFloats(*sdpStr)
	if err != nil {
		return options{}, fmt.Errorf("-sdp: %v", err)
	}
	distrustClass := *distrust == "true"
	if !distrustClass && *distrust != "false" {
		return options{}, fmt.Errorf("-distrust-class: want true or false, got %q", *distrust)
	}
	cfg := pdds.ForwarderConfig{
		Listen:         *listen,
		Forward:        *forward,
		Scheduler:      pdds.SchedulerKind(*sched),
		SDP:            sdp,
		RateBps:        *rate,
		Shards:         *shards,
		DrainTimeout:   *drain,
		MetricsAddr:    *metricsAddr,
		DistrustHeader: distrustClass,
		FlowTTL:        *flowTTL,
		Adapt:          *adapt,
		AdaptInterval:  *adaptEvery,
	}
	if *classesPath != "" {
		classes, err := pdds.LoadClassConfig(*classesPath)
		if err != nil {
			return options{}, fmt.Errorf("-classes: %v", err)
		}
		cfg.Classes = classes
		if !sdpSet {
			// Let the class config's DDPs drive the scheduler spacing
			// instead of the -sdp default.
			cfg.SDP = nil
		} else if len(sdp) != classes.NumClasses() {
			return options{}, fmt.Errorf("-sdp declares %d classes, -classes %q declares %d",
				len(sdp), *classesPath, classes.NumClasses())
		}
	} else if distrustClass {
		return options{}, fmt.Errorf("-distrust-class requires -classes")
	}
	return options{cfg: cfg, interval: *stats}, nil
}

// classTable renders the startup view of the loaded traffic classes.
func classTable(classes *pdds.ClassConfig, sdps []float64) string {
	var b strings.Builder
	names := classes.Names()
	ddps := classes.DDPs()
	def := classes.DefaultClass()
	for i, name := range names {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d=%s ddp=%g sdp=%g", i, name, ddps[i], sdps[i])
		if i == def {
			b.WriteString(" (default)")
		}
	}
	if def < 0 {
		b.WriteString("; no default: unmatched traffic counts as bad-class")
	}
	return b.String()
}

// summarize renders the periodic one-line status: aggregate counters plus
// per-class departures/backlog/p99, the live adjacent-class delay ratios
// from the telemetry registry, and — with -adapt — the controller's
// retune activity and current parameter vector.
func summarize(s pdds.ForwarderStats, classes []pdds.LiveClassStats, ratios []float64, adapt *pdds.ControlStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "received=%d forwarded=%d dropped=%d bad-header=%d bad-class=%d queued=%d",
		s.Received, s.Forwarded, s.Dropped, s.BadHeader, s.BadClass, s.Queued)
	for _, c := range classes {
		label := fmt.Sprintf("c%d", c.Class)
		if c.Name != "" {
			label = fmt.Sprintf("c%d[%s]", c.Class, c.Name)
		}
		fmt.Fprintf(&b, " %s=%d/%dq/%.1fms", label, c.Departures, c.Backlog, c.DelayP99*1e3)
	}
	if len(ratios) > 0 {
		parts := make([]string, len(ratios))
		for i, r := range ratios {
			parts[i] = fmt.Sprintf("%.2f", r)
		}
		fmt.Fprintf(&b, " ratios=%s", strings.Join(parts, ","))
	}
	if adapt != nil {
		fmt.Fprintf(&b, " retunes=%d", adapt.Retunes)
		if adapt.Params != nil {
			parts := make([]string, len(adapt.Params))
			for i, p := range adapt.Params {
				parts[i] = fmt.Sprintf("%g", p)
			}
			fmt.Fprintf(&b, " params=%s", strings.Join(parts, ","))
		}
	}
	return b.String()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdfwd: ")

	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	fwd, err := pdds.StartForwarderWithConfig(opts.cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer fwd.Close()
	sdp := opts.cfg.SDP
	if classes := opts.cfg.Classes; classes != nil {
		if sdp == nil {
			sdp = classes.SDPs()
		}
		log.Printf("classes: %s", classTable(classes, sdp))
	}
	log.Printf("forwarding %s -> %s at %.0f bps with %s (SDP %v)",
		fwd.Addr(), opts.cfg.Forward, opts.cfg.RateBps, opts.cfg.Scheduler, sdp)
	if ss := fwd.ShardStats(); len(ss) > 1 {
		log.Printf("ingress: %d shards, %s I/O", len(ss), ss[0].Mode)
	}
	if addr := fwd.MetricsAddr(); addr != nil {
		log.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)", addr)
	}

	if opts.cfg.Adapt {
		log.Printf("closed-loop adaptation on: observing every %s, retuning %s when measured ratios drift",
			opts.cfg.AdaptInterval, opts.cfg.Scheduler)
	}

	status := func() string {
		var cs *pdds.ControlStats
		if opts.cfg.Adapt {
			s := fwd.ControlStats()
			cs = &s
		}
		return summarize(fwd.Stats(), fwd.ClassStats(), fwd.DelayRatios(), cs)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	ticker := time.NewTicker(opts.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			fmt.Fprintln(os.Stderr, status())
		case <-sig:
			log.Printf("shutting down: %s", status())
			return
		}
	}
}
