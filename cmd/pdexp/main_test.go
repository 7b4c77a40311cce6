package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdds/internal/core"
	"pdds/internal/experiments"
)

// tiny keeps the experiment drivers fast enough for a unit test.
var tiny = experiments.Scale{
	Seeds:             1,
	Horizon:           2e4,
	Warmup:            2e3,
	FeasHorizon:       2e4,
	StudyBSeeds:       1,
	StudyBExperiments: 2,
	StudyBWarmup:      2,
}

func TestRunKnownExperiments(t *testing.T) {
	for _, name := range allExperiments {
		var buf bytes.Buffer
		if err := run(name, tiny, &buf, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "#") {
			t.Errorf("%s: output missing header comment:\n%.80s", name, out)
		}
		if strings.Count(out, "\n") < 3 {
			t.Errorf("%s: suspiciously short output", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run("nope", tiny, &buf, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestWriteReportRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	in := runReport{
		Tool:  "pdexp",
		Scale: "quick",
		Experiments: []experimentStat{
			{Name: "fig1a", File: "fig1a.tsv", DurationSec: 1.5},
			{Name: "table1", File: "table1.tsv", DurationSec: 30},
		},
	}
	if err := writeReport(path, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out runReport
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Scale != "quick" || len(out.Experiments) != 2 || out.Experiments[1].Name != "table1" {
		t.Fatalf("report round-trip: %+v", out)
	}
}

func TestRenderPlot(t *testing.T) {
	points := []ratioPoint{
		{core.KindWTP, 0.8, []float64{1.5, 1.7}},
		{core.KindBPR, 0.8, []float64{1.9, 2.1}},
		{core.KindWTP, 0.9, []float64{1.8, 2}},
		{core.KindBPR, 0.9, []float64{2, 2}},
	}
	var buf bytes.Buffer
	if err := renderPlot(&buf, "ratio vs utilization", []core.Kind{core.KindWTP, core.KindBPR}, points); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ratio vs utilization", "wtp", "bpr"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("plot missing %q:\n%s", want, buf.String())
		}
	}
}

// -plot appends a plot to the table run wrote, from the same points, and
// leaves experiments without a plot untouched.
func TestRunPlot(t *testing.T) {
	for _, name := range []string{"fig1a", "moderate", "fig4"} {
		var table, plotted bytes.Buffer
		if err := run(name, tiny, &table, false); err != nil {
			t.Fatal(err)
		}
		experiments.ResetCounters()
		if err := run(name, tiny, &plotted, true); err != nil {
			t.Fatal(err)
		}
		rest, ok := strings.CutPrefix(plotted.String(), table.String())
		if !ok {
			t.Fatalf("%s: -plot changed the table", name)
		}
		if hasPlot := strings.Contains(rest, "utilization"); hasPlot != (name != "fig4") {
			t.Fatalf("%s: plot appended = %v:\n%s", name, hasPlot, rest)
		}
		if runs := experiments.RunCount(); name == "fig1a" && runs != uint64(len(experiments.Utilizations)*2*tiny.Seeds) {
			t.Fatalf("%s: -plot made %d runs", name, runs)
		}
	}
}
