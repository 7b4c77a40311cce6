// Command pdsim runs the paper's single-link simulation (Study A) once and
// prints per-class queueing-delay statistics and the successive-class delay
// ratios.
//
// With -bounds it simulates nothing and prints instead each class's
// network-calculus service curve and worst-case delay bound under
// -sched drr|wfq|iwrr on the paper's link for a token-bucket arrival
// envelope: the analysis that certifies the conformance scenarios.
//
// Examples:
//
//	pdsim -sched wtp -rho 0.95 -sdp 1,2,4,8 -horizon 1e6
//	pdsim -bounds -sched drr -sdp 1,2,4,8 -burst 3000 -arr 2.5
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"pdds"
	"pdds/internal/cliutil"
	"pdds/internal/conformance"
	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/netcalc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the CLI against args, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdsim", flag.ContinueOnError)
	var (
		sched     = fs.String("sched", "wtp", "scheduler: wtp|bpr|fcfs|strict|wfq|drr|iwrr|additive|pad|hpd (-bounds: drr|wfq|iwrr)")
		sdpStr    = fs.String("sdp", "1,2,4,8", "scheduler differentiation parameters, one per class")
		rho       = fs.Float64("rho", 0.95, "offered utilization (0,1]")
		fractions = fs.String("fractions", "0.40,0.30,0.20,0.10", "class load distribution (sums to 1)")
		horizon   = fs.Float64("horizon", 1e6, "simulated duration, time units")
		warmup    = fs.Float64("warmup", 5e4, "warm-up period discarded from statistics")
		seed      = fs.Uint64("seed", 1, "random seed")
		poisson   = fs.Bool("poisson", false, "exponential instead of Pareto interarrivals")
		alpha     = fs.Float64("alpha", 1.9, "Pareto shape parameter")
		bounds    = fs.Bool("bounds", false, "print analytic per-class delay bounds instead of simulating")
		burst     = fs.Float64("burst", 3000, "arrival token-bucket burst in bytes for -bounds")
		arr       = fs.Float64("arr", 0, "arrival token-bucket rate in bytes per time unit for -bounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sdp, err := cliutil.ParseFloats(*sdpStr)
	if err != nil {
		return fmt.Errorf("-sdp: %w", err)
	}
	if *bounds {
		return runBounds(stdout, *sched, sdp, *burst, *arr)
	}
	frac, err := cliutil.ParseFloats(*fractions)
	if err != nil {
		return fmt.Errorf("-fractions: %w", err)
	}

	rep, err := pdds.SimulateLink(pdds.LinkConfig{
		Scheduler:      pdds.SchedulerKind(*sched),
		SDP:            sdp,
		Utilization:    *rho,
		ClassFractions: frac,
		Poisson:        *poisson,
		Alpha:          *alpha,
		Horizon:        *horizon,
		Warmup:         *warmup,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "scheduler=%s rho=%.3f realized-utilization=%.3f seed=%d\n",
		rep.Scheduler, *rho, rep.Utilization, *seed)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "class\tpackets\tmean-delay\tstd-delay\tmean-delay(p-units)")
	for i, cs := range rep.Classes {
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\t%.2f\n",
			i+1, cs.Packets, cs.MeanDelay, cs.StdDelay, cs.MeanDelayPUnits)
	}
	w.Flush()
	fmt.Fprintln(stdout, "successive-class delay ratios (target = inverse SDP ratios):")
	for i, r := range rep.DelayRatios {
		fmt.Fprintf(stdout, "  d%d/d%d = %.3f (target %.2f)\n", i+1, i+2, r, sdp[i+1]/sdp[i])
	}
	if rep.Dropped > 0 {
		fmt.Fprintf(stdout, "dropped=%d\n", rep.Dropped)
	}
	return nil
}

// runBounds prints each class's guaranteed service share, latency and
// worst-case delay bound for the given round-robin discipline on the
// paper's link against a common token-bucket arrival envelope — the
// offline face of the conformance suite's analytic certification axis.
// Times are in the simulation's abstract time units; one unit carries
// PUnit bytes at the paper's link rate.
func runBounds(stdout io.Writer, sched string, sdp []float64, burst, arr float64) error {
	if burst < 0 || arr < 0 {
		return fmt.Errorf("-burst and -arr must be >= 0")
	}
	// Paper packet sizes: the smallest/largest datagrams every class mixes.
	lmin := make([]float64, len(sdp))
	lmax := make([]float64, len(sdp))
	for i := range sdp {
		lmin[i], lmax[i] = 40, 1500
	}
	envelope := netcalc.TokenBucket(burst, arr)

	fmt.Fprintf(stdout, "analytic delay bounds: sched=%s rate=%.4g B/tu arrival=(burst %.4g B, rate %.4g B/tu)\n",
		sched, link.PaperLinkRate, burst, arr)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "class\tweight\tshare B/tu\tlatency tu\tbound tu")
	for i := range sdp {
		curve, err := conformance.ServiceCurve(core.Kind(sched), sdp, link.PaperLinkRate, lmin, lmax, i)
		if err != nil {
			return err
		}
		bound := netcalc.HorizontalDeviation(envelope, curve)
		fmt.Fprintf(w, "%d\t%.4g\t%.4g\t%.4g\t%s\n",
			i+1, sdp[i], curve.Rate, curve.Inverse(1e-9), fmtBound(bound))
	}
	return w.Flush()
}

// fmtBound renders a delay bound, spelling out the unbounded case.
func fmtBound(b float64) string {
	if math.IsInf(b, 1) {
		return "unbounded"
	}
	return fmt.Sprintf("%.4g", b)
}
