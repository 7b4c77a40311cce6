package main

import (
	"strings"
	"testing"
)

// stressArgs is a fast matrix: a short horizon override keeps the whole
// 8×3 catalog around a second even under -race.
func stressArgs(extra ...string) []string {
	return append([]string{"-scale", "quick", "-horizon", "20000", "-seed", "7"}, extra...)
}

// TestRunJSONDeterministic is the headline reproducibility contract:
// same flags ⇒ byte-identical -json reports, across worker counts too.
func TestRunJSONDeterministic(t *testing.T) {
	var a, b, serial strings.Builder
	if err := run(stressArgs("-json"), &a); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(stressArgs("-json"), &b); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.String() != b.String() {
		t.Fatal("two identical invocations produced different -json reports")
	}
	if err := run(stressArgs("-json", "-parallel", "1"), &serial); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if serial.String() != a.String() {
		t.Fatal("-parallel 1 changed the -json report (result order must not depend on workers)")
	}

	// A different seed must actually change the matrix, or the identity
	// checks above are vacuous.
	var other strings.Builder
	if err := run([]string{"-scale", "quick", "-horizon", "20000", "-seed", "8", "-json"}, &other); err != nil {
		t.Fatalf("reseeded run: %v", err)
	}
	if other.String() == a.String() {
		t.Fatal("changing -seed left the report identical")
	}
}

// TestRunTextSmoke: the human-readable renderer covers every run in the
// matrix and reports overall success.
func TestRunTextSmoke(t *testing.T) {
	var out strings.Builder
	if err := run(stressArgs(), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"WTP", "BPR", "FCFS", "steady-heavy", "burst-train", "all 24 runs ok"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

// TestRunPlanAndSchedFilters: -plans and -sched shrink the matrix.
func TestRunPlanAndSchedFilters(t *testing.T) {
	var out strings.Builder
	err := run(stressArgs("-sched", "wtp", "-plans", "steady-heavy,link-flap"), &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "all 2 runs ok") {
		t.Errorf("filtered matrix should be 2 runs:\n%s", text)
	}
	if strings.Contains(text, "BPR") || strings.Contains(text, "load-ramp") {
		t.Errorf("filtered-out runs leaked into the report:\n%s", text)
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "huge"}, &out); err == nil ||
		!strings.Contains(err.Error(), "unknown -scale") {
		t.Errorf("bad -scale: err = %v", err)
	}
	if err := run(stressArgs("-plans", "no-such-plan"), &out); err == nil ||
		!strings.Contains(err.Error(), "no plans selected") {
		t.Errorf("empty selection: err = %v", err)
	}
}

// TestRunNetSmoke drives the live-forwarder fault plans briefly over
// loopback; the sim matrix is cut to one run to keep the test tight.
func TestRunNetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback fault plans")
	}
	var out strings.Builder
	err := run(stressArgs("-sched", "wtp", "-plans", "steady-poisson",
		"-net", "-net-duration", "150ms", "-json"), &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"wire-corrupt", "wire-dup-reorder", "transient-errors", "persistent-outage"} {
		if !strings.Contains(text, want) {
			t.Errorf("net report missing plan %q", want)
		}
	}
}
