package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunSmoke exercises the full CLI path on a tiny config and checks
// the report has the expected shape.
func TestRunSmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-sched", "wtp", "-rho", "0.9",
		"-horizon", "20000", "-warmup", "2000", "-seed", "3",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"scheduler=WTP",
		"realized-utilization=",
		"class  packets",
		"successive-class delay ratios",
		"d1/d2 =",
		"d3/d4 =",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, sched := range []string{"bpr", "fcfs", "strict", "drr"} {
		var out strings.Builder
		err := run([]string{
			"-sched", sched, "-rho", "0.8", "-poisson",
			"-horizon", "10000", "-warmup", "1000",
		}, &out)
		if err != nil {
			t.Errorf("%s: %v", sched, err)
		}
		if !strings.Contains(strings.ToLower(out.String()), "scheduler="+sched) {
			t.Errorf("%s: report names the wrong scheduler:\n%s", sched, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-sched", "bogus", "-horizon", "1000", "-warmup", "0"},
		{"-sdp", "not,numbers"},
		{"-fractions", "x"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// Invalid SDPs and non-finite times come back from run as errors; before
// they panicked (SDPs) or ran forever or reported nothing (times).
func TestRunRejectsInvalidConfig(t *testing.T) {
	cases := [][]string{
		{"-sdp", "2,1,4,8", "-warmup", "0", "-horizon", "1e4"},
		{"-sdp", "0,1,4,8", "-warmup", "0", "-horizon", "1e4"},
		{"-sched", "fcfs", "-sdp", "2,1,4,8", "-warmup", "0", "-horizon", "1e4"},
		{"-horizon", "inf"},
		{"-horizon", "NaN"},
		{"-warmup", "NaN", "-horizon", "1e4"},
		{"-warmup", "-inf", "-horizon", "1e4"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted:\n%s", args, out.String())
		}
	}
}

// TestRunBounds exercises the offline certification mode: the table must
// list every class with its share and a finite bound when the arrival
// envelope fits inside the guaranteed rate.
func TestRunBounds(t *testing.T) {
	for _, sched := range []string{"drr", "wfq", "iwrr"} {
		var out strings.Builder
		err := run([]string{"-bounds", "-sched", sched, "-sdp", "1,2,4,8",
			"-burst", "3000", "-arr", "0.05"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		got := out.String()
		for _, want := range []string{
			"sched=" + sched,
			"class", "share B/tu", "bound tu",
			"\n4", // the last class row
		} {
			if !strings.Contains(got, want) {
				t.Errorf("%s output missing %q:\n%s", sched, want, got)
			}
		}
		if strings.Contains(got, "unbounded") {
			t.Errorf("%s: tiny envelope reported unbounded:\n%s", sched, got)
		}
		if strings.Contains(got, "NaN") {
			t.Errorf("%s: NaN in output:\n%s", sched, got)
		}
	}
}

// TestRunBoundsUnbounded pins the explicit overload report: an arrival
// rate above the link rate can never be bounded.
func TestRunBoundsUnbounded(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bounds", "-sched", "drr", "-arr", "1000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "unbounded") {
		t.Errorf("overload not reported unbounded:\n%s", out.String())
	}
}

func TestRunBoundsErrors(t *testing.T) {
	cases := [][]string{
		{"-bounds", "-sdp", "x"},
		{"-bounds", "-sdp", ""},
		{"-bounds", "-sched", "drr", "-burst", "-1"},
		{"-bounds", "-sched", "drr", "-arr", "-1"},
		{"-bounds", "-sched", "wtp"},  // no closed-form strict service curve
		{"-bounds", "-sched", "nope"}, // unknown discipline
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
