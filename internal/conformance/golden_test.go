package conformance

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdds/internal/core"
)

// -update regenerates the golden traces:
//
//	go test ./internal/conformance -run Golden -update
var update = flag.Bool("update", false, "regenerate testdata/golden trace files")

func goldenPath(kind core.Kind) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_golden.trace", kind))
}

// runGoldenTrace executes the golden scenario for kind and returns the
// recorded event trace.
func runGoldenTrace(t *testing.T, kind core.Kind) []byte {
	t.Helper()
	var buf bytes.Buffer
	res, err := Run(kind, GoldenScenario(), Opts{TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s: %s", kind, v)
	}
	return buf.Bytes()
}

// TestGoldenTraces locks every scheduler's full event sequence on the
// golden scenario to the committed byte-exact reference. Any change to
// scheduler semantics, traffic generation, or engine event ordering shows
// up as a trace diff — a perf refactor must leave these files untouched.
func TestGoldenTraces(t *testing.T) {
	for _, kind := range core.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			got := runGoldenTrace(t, kind)
			path := goldenPath(kind)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with `go test ./internal/conformance -run Golden -update`)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trace diverged from %s:\n%s", path, traceDiff(want, got))
			}
		})
	}
}

// TestGoldenUpdateIsDeterministic guards the -update workflow itself: two
// regenerations must be byte-identical, or the golden files would churn.
func TestGoldenUpdateIsDeterministic(t *testing.T) {
	a := runGoldenTrace(t, core.KindWTP)
	b := runGoldenTrace(t, core.KindWTP)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different traces:\n%s", traceDiff(a, b))
	}
	if len(bytes.Split(a, []byte("\n"))) < 100 {
		t.Fatalf("golden scenario suspiciously small: %d bytes", len(a))
	}
}

// traceDiff renders the first few differing lines of two traces.
func traceDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, w, g)
		if shown++; shown >= 5 {
			fmt.Fprintf(&b, "  ... (%d vs %d lines total)\n", len(wl), len(gl))
			break
		}
	}
	return b.String()
}
