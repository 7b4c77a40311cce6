// Command pdexp regenerates the paper's tables and figures. Each
// experiment prints a TSV table to stdout (or to a file per experiment
// with -out). With -out, a machine-readable run report (report.json) is
// written alongside the TSVs: which experiments ran, at what scale, their
// output files and wall-clock durations.
//
// Examples:
//
//	pdexp -exp fig1a                 # Figure 1-a at full paper scale
//	pdexp -exp all -scale quick      # everything, reduced run sizes
//	pdexp -exp fig4,fig5 -out results/  # microscopic-view CSV series
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pdds/internal/core"
	"pdds/internal/experiments"
	"pdds/internal/textplot"
)

// runReport is the machine-readable summary written as report.json next
// to the TSVs when -out is used.
type runReport struct {
	Tool      string    `json:"tool"`
	GoVersion string    `json:"go_version"`
	Scale     string    `json:"scale"`
	StartedAt time.Time `json:"started_at"`
	// Parallelism is the worker-pool width simulation runs were fanned
	// out over (the -parallel flag).
	Parallelism int     `json:"parallelism"`
	DurationSec float64 `json:"duration_sec"`
	// Runs and Packets total the simulation runs executed and simulated
	// packets completed across all experiments.
	Runs        uint64           `json:"runs"`
	Packets     uint64           `json:"packets"`
	Experiments []experimentStat `json:"experiments"`
}

type experimentStat struct {
	Name        string  `json:"name"`
	File        string  `json:"file,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	// Runs and Packets count this experiment's simulation runs and
	// completed packets.
	Runs    uint64 `json:"runs"`
	Packets uint64 `json:"packets"`
}

var allExperiments = []string{
	"fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4", "fig5",
	"table1", "feasibility", "ablation", "loss", "moderate", "pathsched", "hpdg", "control",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdexp: ")

	var (
		expList  = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(allExperiments, ",")+" or all")
		scaleStr = flag.String("scale", "full", "run scale: full|quick|bench")
		outDir   = flag.String("out", "", "write one file per experiment into this directory instead of stdout")
		plot     = flag.Bool("plot", false, "append a terminal plot to fig1a/fig1b/moderate output")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max simulation runs executing concurrently (results are identical at any value)")
	)
	flag.Parse()
	experiments.SetParallelism(*parallel)

	var scale experiments.Scale
	switch *scaleStr {
	case "full":
		scale = experiments.Full
	case "quick":
		scale = experiments.Quick
	case "bench":
		scale = experiments.Bench
	default:
		log.Fatalf("unknown -scale %q", *scaleStr)
	}

	names := strings.Split(*expList, ",")
	if *expList == "all" {
		names = allExperiments
	}
	report := runReport{
		Tool:        "pdexp",
		GoVersion:   runtime.Version(),
		Scale:       *scaleStr,
		StartedAt:   time.Now(),
		Parallelism: experiments.Parallelism(),
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		experiments.ResetCounters()
		var out io.Writer = os.Stdout
		var file *os.File
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				log.Fatal(err)
			}
			ext := ".tsv"
			if name == "fig4" || name == "fig5" {
				ext = ".csv"
			}
			f, err := os.Create(filepath.Join(*outDir, name+ext))
			if err != nil {
				log.Fatal(err)
			}
			file = f
			out = f
		}
		if err := run(name, scale, out, *plot); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if file != nil {
			if err := file.Close(); err != nil {
				log.Fatal(err)
			}
		}
		stat := experimentStat{
			Name:        name,
			DurationSec: time.Since(start).Seconds(),
			Runs:        experiments.RunCount(),
			Packets:     experiments.PacketCount(),
		}
		if file != nil {
			stat.File = filepath.Base(file.Name())
		}
		report.Experiments = append(report.Experiments, stat)
		report.Runs += stat.Runs
		report.Packets += stat.Packets
		fmt.Fprintf(os.Stderr, "pdexp: %s done in %s (%d runs, %d packets)\n",
			name, time.Since(start).Round(time.Millisecond), stat.Runs, stat.Packets)
	}
	report.DurationSec = time.Since(report.StartedAt).Seconds()
	fmt.Fprintf(os.Stderr, "pdexp: total %d runs, %d packets in %s on %d workers\n",
		report.Runs, report.Packets,
		time.Since(report.StartedAt).Round(time.Millisecond), report.Parallelism)
	if *outDir != "" {
		if err := writeReport(filepath.Join(*outDir, "report.json"), report); err != nil {
			log.Fatal(err)
		}
	}
}

// writeReport writes the run report as indented JSON.
func writeReport(path string, report runReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(name string, scale experiments.Scale, out io.Writer, plot bool) error {
	switch name {
	case "fig1a", "fig1b":
		sdp, target := experiments.PaperSDPx2, 2.0
		if name == "fig1b" {
			sdp, target = experiments.PaperSDPx4, 4.0
		}
		points, err := experiments.Fig1(sdp, scale)
		if err != nil {
			return err
		}
		if err := experiments.WriteFig1TSV(out, points, target); err != nil || !plot {
			return err
		}
		ratios := make([]ratioPoint, len(points))
		for i, pt := range points {
			ratios[i] = ratioPoint{pt.Scheduler, pt.Rho, pt.Ratios}
		}
		return renderPlot(out, "mean successive-class delay ratio vs utilization",
			[]core.Kind{core.KindWTP, core.KindBPR}, ratios)
	case "fig2a":
		points, err := experiments.Fig2(experiments.PaperSDPx2, scale)
		if err != nil {
			return err
		}
		return experiments.WriteFig2TSV(out, points, 2)
	case "fig2b":
		points, err := experiments.Fig2(experiments.PaperSDPx4, scale)
		if err != nil {
			return err
		}
		return experiments.WriteFig2TSV(out, points, 4)
	case "fig3":
		points, err := experiments.Fig3(experiments.PaperSDPx2, scale)
		if err != nil {
			return err
		}
		return experiments.WriteFig3TSV(out, points)
	case "fig4", "fig5":
		kind := core.KindBPR
		if name == "fig5" {
			kind = core.KindWTP
		}
		res, err := experiments.Micro(kind, scale)
		if err != nil {
			return err
		}
		if err := experiments.WriteMicroSummaryTSV(out, []*experiments.MicroResult{res}); err != nil {
			return err
		}
		return experiments.WriteMicroSeriesCSV(out, res)
	case "table1":
		cells, err := experiments.Table1(scale)
		if err != nil {
			return err
		}
		return experiments.WriteTable1TSV(out, cells)
	case "feasibility":
		points, err := experiments.Feasibility(scale)
		if err != nil {
			return err
		}
		return experiments.WriteFeasibilityTSV(out, points)
	case "ablation":
		points, err := experiments.Ablation(scale)
		if err != nil {
			return err
		}
		return experiments.WriteAblationTSV(out, points)
	case "loss":
		points, err := experiments.Loss(scale)
		if err != nil {
			return err
		}
		return experiments.WriteLossTSV(out, points)
	case "moderate":
		points, err := experiments.Moderate(scale)
		if err != nil {
			return err
		}
		if err := experiments.WriteModerateTSV(out, points); err != nil || !plot {
			return err
		}
		ratios := make([]ratioPoint, len(points))
		for i, pt := range points {
			ratios[i] = ratioPoint{pt.Scheduler, pt.Rho, pt.Ratios}
		}
		return renderPlot(out, "mean ratio vs utilization: proportional schedulers (target 2)",
			experiments.ModerateSchedulers, ratios)
	case "pathsched":
		points, err := experiments.PathSched(scale)
		if err != nil {
			return err
		}
		return experiments.WritePathSchedTSV(out, points)
	case "hpdg":
		points, err := experiments.HPDG(scale)
		if err != nil {
			return err
		}
		return experiments.WriteHPDGTSV(out, points)
	case "control":
		points, err := experiments.Control(scale)
		if err != nil {
			return err
		}
		return experiments.WriteControlTSV(out, points)
	default:
		return fmt.Errorf("unknown experiment (want one of %s)", strings.Join(allExperiments, ", "))
	}
}

// ratioPoint is one scheduler's successive-class delay ratios at one
// utilization.
type ratioPoint struct {
	kind   core.Kind
	rho    float64
	ratios []float64
}

// renderPlot appends a terminal plot of the mean successive-class delay
// ratio against utilization, one series per kind, marked by its initial.
func renderPlot(out io.Writer, title string, kinds []core.Kind, points []ratioPoint) error {
	bySched := map[core.Kind][]textplot.Point{}
	for _, pt := range points {
		var sum float64
		for _, r := range pt.ratios {
			sum += r
		}
		bySched[pt.kind] = append(bySched[pt.kind],
			textplot.Point{X: pt.rho, Y: sum / float64(len(pt.ratios))})
	}
	p := textplot.Plot{Title: title}
	for _, kind := range kinds {
		p.Add(textplot.Series{Name: string(kind), Marker: rune(kind[0]), Points: bySched[kind]})
	}
	rendered, err := p.Render()
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(out, rendered)
	return err
}
