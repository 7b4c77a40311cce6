// Command pdstress is the long-horizon chaos harness: it fans the
// standard scenario catalog (internal/chaos.Plans) out over a scheduler
// matrix on the parallel replication runner, drives millions of packets
// through perturbed simulations at -scale full, and judges every run's
// invariants — exact packet conservation, packet-pool leak freedom,
// telemetry-counter monotonicity, and per-load-regime PDD ratio windows.
// With -net it also drives the live UDP forwarder through the standard
// egress fault plans (corruption, duplication, reordering, transient and
// persistent write errors) over loopback.
//
// Runs are exactly reproducible: the whole sim matrix derives from -seed,
// and two invocations with the same flags produce byte-identical -json
// reports. pdstress exits non-zero if any run reports a violation, so
// `make stress` is a pass/fail gate.
//
// Example:
//
//	pdstress -scale quick -sched wtp,bpr,fcfs -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"pdds/internal/chaos"
	"pdds/internal/cliutil"
	"pdds/internal/core"
	"pdds/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdstress: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// scaleHorizons maps -scale names to simulation horizons in time units.
// At the paper workload a time unit carries ~0.085 packets, so quick is
// ~17k packets per run (CI smoke) and full is ~500k per run — about 13M
// packets over the default 9×3 matrix.
var scaleHorizons = map[string]float64{
	"quick": 2e5,
	"full":  6e6,
}

type report struct {
	Scale      string             `json:"scale"`
	Horizon    float64            `json:"horizon"`
	Seed       uint64             `json:"seed"`
	Schedulers []string           `json:"schedulers"`
	Sim        []*chaos.SimResult `json:"sim"`
	Net        []*chaos.NetResult `json:"net,omitempty"`
	Packets    uint64             `json:"packets"` // departed across the sim matrix
	Failures   int                `json:"failures"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdstress", flag.ContinueOnError)
	scale := fs.String("scale", "quick", "run scale: quick or full")
	horizon := fs.Float64("horizon", 0, "override the horizon in time units (0 = from -scale)")
	seed := fs.Uint64("seed", 1, "base seed for the whole matrix")
	scheds := fs.String("sched", "wtp,bpr,fcfs", "comma-separated scheduler kinds")
	planFilter := fs.String("plans", "", "comma-separated plan names to run (default all)")
	parallel := fs.Int("parallel", 0, "max concurrent runs (0 = GOMAXPROCS)")
	withNet := fs.Bool("net", false, "also run the live-forwarder egress fault plans")
	netDur := fs.Duration("net-duration", 400*time.Millisecond, "sending phase per live fault plan")
	asJSON := fs.Bool("json", false, "emit the full JSON report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	h, ok := scaleHorizons[*scale]
	if !ok {
		return fmt.Errorf("unknown -scale %q (want quick or full)", *scale)
	}
	if *horizon > 0 {
		h = *horizon
	}
	var kinds []core.Kind
	for _, s := range strings.Split(*scheds, ",") {
		kinds = append(kinds, core.Kind(strings.TrimSpace(s)))
	}
	keep := map[string]bool{}
	for _, s := range strings.Split(*planFilter, ",") {
		if s = strings.TrimSpace(s); s != "" {
			keep[s] = true
		}
	}
	if *parallel > 0 {
		experiments.SetParallelism(*parallel)
	}

	// Assemble the matrix up front: result order (and so the report) is a
	// pure function of the flags, whatever the worker count does.
	var plans []chaos.SimPlan
	for _, kind := range kinds {
		for _, p := range chaos.Plans(kind, h, *seed) {
			if len(keep) > 0 && !keep[p.Name] {
				continue
			}
			plans = append(plans, p)
		}
	}
	if len(plans) == 0 {
		return fmt.Errorf("no plans selected")
	}

	rep := &report{Scale: *scale, Horizon: h, Seed: *seed, Sim: make([]*chaos.SimResult, len(plans))}
	for _, k := range kinds {
		rep.Schedulers = append(rep.Schedulers, string(k))
	}
	if err := experiments.ForEach(len(plans), func(i int) error {
		res, err := chaos.RunSim(plans[i])
		if err != nil {
			return fmt.Errorf("%s/%s: %w", plans[i].Kind, plans[i].Name, err)
		}
		rep.Sim[i] = res
		return nil
	}); err != nil {
		return err
	}
	for _, r := range rep.Sim {
		rep.Packets += r.Departed
		if !r.Ok() {
			rep.Failures++
		}
	}

	if *withNet {
		for _, np := range chaos.NetPlans() {
			np.Duration = *netDur
			res, err := chaos.RunNet(np)
			if err != nil {
				return fmt.Errorf("net/%s: %w", np.Name, err)
			}
			rep.Net = append(rep.Net, res)
			if !res.Ok() {
				rep.Failures++
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printText(stdout, rep)
	}
	if rep.Failures > 0 {
		return fmt.Errorf("%d of %d runs violated invariants", rep.Failures, len(rep.Sim)+len(rep.Net))
	}
	return nil
}

func printText(w io.Writer, rep *report) {
	fmt.Fprintf(w, "scale=%s horizon=%g seed=%d packets=%d\n", rep.Scale, rep.Horizon, rep.Seed, rep.Packets)
	for _, r := range rep.Sim {
		judged := 0
		for _, s := range r.Segments {
			if s.Judged {
				judged++
			}
		}
		status := "ok"
		if !r.Ok() {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %-8s %-14s %s  dep=%-8d drop=%-6d util=%.3f ratios=%s judged=%d/%d\n",
			r.Scheduler, r.Plan, status, r.Departed, r.Dropped, r.Utilization,
			cliutil.FormatFloats(r.Ratios), judged, len(r.Segments))
		for _, v := range r.Violations {
			fmt.Fprintf(w, "      violation: %s\n", v)
		}
	}
	for _, r := range rep.Net {
		status := "ok"
		if !r.Ok() {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  net      %-18s %s  conserved=%v forwarded=%v faults=%v\n",
			r.Plan, status, r.Conserved, r.ForwardedSome, r.FaultsInjected)
		for _, v := range r.Violations {
			fmt.Fprintf(w, "      violation: %s\n", v)
		}
	}
	if rep.Failures == 0 {
		fmt.Fprintf(w, "all %d runs ok\n", len(rep.Sim)+len(rep.Net))
	}
}
