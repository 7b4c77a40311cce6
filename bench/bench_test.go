package main

import (
	"encoding/json"
	"net/netip"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pdds/internal/classify"
	"pdds/internal/core"
	"pdds/internal/netio"
	"pdds/internal/traffic"
)

func root(t *testing.T) string {
	t.Helper()
	r, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBenchmarkFile checks BENCHMARK.json against the driver's contract and
// against the tables the program prints from, so neither can drift.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile(root(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Workloads, workloads) {
		t.Errorf("workloads differ from the program's:\n%+v\n%+v", bf.Workloads, workloads)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's:\n%+v\n%+v", bf.PerLayer, perLayer)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		check("end-to-end", m.Name)
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range bf.PerLayer {
		check("per-layer", m.Name)
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("%s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	var kinds []string
	for _, k := range core.Kinds() {
		kinds = append(kinds, string(k))
	}
	if !reflect.DeepEqual(kinds, schedKinds) {
		t.Errorf("schedKinds %v is not core.Kinds() %v", schedKinds, kinds)
	}
	for _, w := range workloads {
		if _, live := liveSpecs[w.Name]; !live && simSpecs[w.Name].round == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

// TestClassesConfLayout checks that testdata/classes64.conf is the port
// layout the load generator assumes.
func TestClassesConfLayout(t *testing.T) {
	cfg, err := classify.LoadConfig(filepath.Join(root(t), "bench", "testdata", "classes64.conf"))
	if err != nil {
		t.Fatal(err)
	}
	cls, err := classify.New(cfg, classify.FlowTableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cls.NumClasses() != numClasses || !reflect.DeepEqual(cfg.SDPs(), paperSDP) {
		t.Fatalf("%d classes with SDPs %v, want %d with %v", cls.NumClasses(), cfg.SDPs(), numClasses, paperSDP)
	}
	key := classify.FlowKey{Src: netip.MustParseAddr("127.0.0.1"), Dst: netip.MustParseAddr("127.0.0.1"), DstPort: 7000, Proto: classify.ProtoUDP}
	for port := classPortBase - 1; port <= classPortBase+classFilters*portsPerFilter; port++ {
		key.SrcPort = uint16(port)
		got, ok := cls.Match(key, netio.ClassUnspecified)
		inside := port >= classPortBase && port < classPortBase+classFilters*portsPerFilter
		want := (port - classPortBase) / portsPerFilter / (classFilters / numClasses)
		if ok != inside || (ok && got != want) {
			t.Fatalf("src-port %d: class %d, matched %v; want class %d, matched %v", port, got, ok, want, inside)
		}
	}
}

// checkResultLine checks that the values give a last line of the shape the
// driver parses.
func checkResultLine(t *testing.T, vs *values, defs []metricDef, strict bool) {
	t.Helper()
	metrics, err := vs.project(defs, strict)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(back) != 4 || len(metrics) != len(defs) {
		t.Errorf("result line has %d keys and %d metrics, want 4 and %d", len(back), len(metrics), len(defs))
	}
}

// TestSmokeLive runs every live workload briefly with the forwarder in
// process and spans on: the traffic, the checks and the metric plumbing
// are the benchmark's own, only the sizes are not.
func TestSmokeLive(t *testing.T) {
	for name, spec := range liveSpecs {
		t.Run(name, func(t *testing.T) {
			tr := newTracer(name)
			out, err := runLive(spec, liveOptions{
				seed: goldenSeed, measure: 250 * time.Millisecond, warmup: 20 * time.Millisecond,
				window: 8, inproc: true, tr: tr, root: root(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range out.failures {
				t.Error(f)
			}
			if out.invalid != "" {
				t.Log("host too noisy for a valid measurement (not a failure here): " + out.invalid)
			}
			if out.sent == 0 || out.good != out.sent {
				t.Errorf("sent %d, delivered %d", out.sent, out.good)
			}
			if out.pps <= 0 || out.idleRTTP50 <= 0 || out.sojournP50 <= 0 || out.recvBatchAvg < 1 {
				t.Errorf("implausible outcome: %+v", out)
			}
			vs := newValues()
			setLiveEndToEnd(vs, spec, out)
			checkResultLine(t, vs, endToEnd, true)
			setSpanMetrics(vs, tr)
			if vs.v["span.fwd.sojourn.self_s"] <= 0 || vs.v["span.harness.self_s"] <= 0 {
				t.Errorf("no span time recorded: %v", vs.v)
			}
			checkResultLine(t, vs, perLayer, false)
		})
	}
}

// TestSmokeSim runs every sim workload at 1/50 scale, golden digest
// included.
func TestSmokeSim(t *testing.T) {
	for name := range simSpecs {
		t.Run(name, func(t *testing.T) {
			vs := newValues()
			tr := newTracer(name)
			rep, err := measureSim(vs, root(t), name, goldenSeed, 0, smokeScale, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.failures {
				t.Error(f)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			g, err := loadGolden(root(t))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := g[goldenKey(name, smokeScale)]; !ok {
				t.Errorf("golden.json has no record for %s", goldenKey(name, smokeScale))
			}
			checkResultLine(t, vs, endToEnd, true)
			if c := vs.v["span.coverage_frac"]; c < 0.9 || c > 1.1 {
				t.Errorf("span self times cover %.3f of the traced wall time, want within 10%% of 1", c)
			}
		})
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.05}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c, c, c * 1.01} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c * 0.9, c, c * 1.1, c * 1.2} }
	for _, tc := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", tight(100), tight(102), lower, verdictSame},
		{"worse when lower is better", tight(100), tight(110), lower, verdictWorse},
		{"better when lower is better", tight(100), tight(90), lower, verdictBetter},
		{"worse when higher is better", tight(100), tight(90), higher, verdictWorse},
		{"better when higher is better", tight(100), tight(110), higher, verdictBetter},
		{"spread hides a small change", wide(100), wide(103), lower, verdictUnresolved},
		{"clean separation beats spread", wide(100), wide(50), lower, verdictBetter},
		{"clean separation the wrong way", wide(100), wide(200), lower, verdictWorse},
	} {
		if got := judge(tc.a, tc.b, tc.d); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer("w")
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("parent", 0, at(0), at(100))
	tr.add("child", 1, at(10), at(40))
	tr.add("child", 1, at(30), at(60)) // overlaps the first: covered once
	self := tr.selfTimes()
	if got := self["parent"]; got < 0.0499 || got > 0.0501 {
		t.Errorf("parent self time %.4f s, want 0.05", got)
	}
	if got := self["child"]; got < 0.0599 || got > 0.0601 {
		t.Errorf("children self time %.4f s, want 0.06", got)
	}
}

// TestBackloggedRate feeds the estimator a sink log that an exact pacer
// would produce and expects the configured rate back.
func TestBackloggedRate(t *testing.T) {
	const rate = 10e6
	var ps phaseStats
	var log []sample
	depart := int64(0)
	for i := 0; i < 2000; i++ {
		size := int64(500 + 500*(i%3))
		send := int64(i) * 100_000 // 100 µs apart: three times what the link carries
		ps.trace = append(ps.trace, traffic.Arrival{Size: size, Class: i % numClasses})
		ps.sendTimes = append(ps.sendTimes, send)
		depart = max(depart, send)
		log = append(log, sample{arr: depart, size: uint16(size)})
		depart += size * 8 * 1e9 / rate
	}
	bps, stretches := backloggedRate(ps, log, rate, 1)
	if stretches == 0 || bps < rate*0.999 || bps > rate*1.001 {
		t.Errorf("measured %.0f bit/s over %d stretches, want %.0f", bps, stretches, float64(rate))
	}
}
