# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Benchmark iteration budget for `make bench`; raise for lower-variance
# numbers (e.g. BENCHTIME=5s).
BENCHTIME ?= 1s

.PHONY: all build vet test test-short race bench cover conformance certify control golden-update differential experiments experiments-quick results-check fuzz fuzz-smoke soak soak-sharded stress stress-full clean

# `test` and `race` already run every test the verbose conformance,
# certify and control views select, so `all` does not repeat them.
all: build vet test race fuzz-smoke soak stress

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: unformatted files:"; echo "$$unformatted"; exit 1; fi

# -shuffle=on randomizes test (and subtest) execution order so hidden
# inter-test state dependencies surface; the seed is printed on failure
# and reproducible with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

# The repeated ForEach stress run exercises the parallel replication
# runner's work-stealing dispatch under the race detector before the
# whole-tree pass (which covers ./internal/experiments once more). The
# repeated forwarder run stresses the UDP data plane's receive/transmit/
# close interleavings — TestForwarderSharded* cover shard counts 1, 2 and
# 8, so conservation under mid-flight close, the SPSC rings, and the
# stamp merge all run under the race detector at every shard count.
# The whole-tree pass runs one package at a time (-p 1): two race-built
# packages sharing this host's 2 CPUs push cmd/pdload's TestRunCLI past
# its ±2% pacing tolerance. The forwarder's transmit decision is already
# off the clock (internal/netio/pacer.go), but TestRunCLI still paces on
# wall time; the durable fix is ROADMAP item 3's clock seam, whose
# deliverable deletes -p 1.
race:
	$(GO) test -race -run TestForEachRaceStress -count=5 ./internal/experiments/
	$(GO) test -race -run 'TestForwarder|TestIngress|TestRing' -count=3 ./internal/netio/
	$(GO) test -race -p 1 ./...

test-short:
	$(GO) test -short ./...

# Ad-hoc instruments: the per-package Benchmark* functions next to their
# code. The performance gate is `go run ./bench` and its -compare mode
# (bench/README.md), judged by the bounds in BENCHMARK.json.
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) ./...

# Per-package coverage with enforced floors: fails if any package in
# COVERAGE.md's table reports statement coverage below its floor.
cover:
	GO="$(GO)" ./scripts/covercheck.sh

# Regenerate every paper figure/table at full fidelity (≈ 2.5 min on 2 CPUs,
# ≈ 4 min on one; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/pdexp -exp all -scale full -out results/

experiments-quick:
	$(GO) run ./cmd/pdexp -exp all -scale quick -out results/

# Regenerate every result at full fidelity into a fresh temporary directory
# and diff it against the committed results/ (README.md and the wall-time
# report.json excepted). Run it after any change under internal/{sim,
# traffic,link,network,core,experiments}; a difference keeps the directory
# and names it. Not part of `all` (≈ 1.5 min on 2 CPUs).
results-check:
	@out=$$(mktemp -d) && $(GO) run ./cmd/pdexp -exp all -scale full -out "$$out" >/dev/null && \
	if diff -r -x README.md -x report.json results "$$out"; then rm -rf "$$out"; \
	else echo "results-check: regenerated results differ; kept in $$out"; exit 1; fi

# Scheduler invariant oracles, differential tests and golden traces
# (see TESTING.md). Verbose so each scheduler/scenario pair is visible.
conformance:
	$(GO) test -v -run 'TestConformance|TestGolden|TestBPRTracks' ./internal/conformance/

# Analytic delay-bound certification (the third verification axis, see
# TESTING.md): every seeded scenario's realized worst-case per-class
# delay under DRR/WFQ/IWRR must stay below its network-calculus bound.
# Verbose so the per-class bound/observed gaps are visible.
certify:
	$(GO) test -v -run 'TestAnalyticBounds|TestUnderstatedBurst' ./internal/conformance/

# Closed-loop controller conformance (see TESTING.md): the convergence
# suite (controller strictly beats uncontrolled under every chaos
# timeline, an inverted gain strictly hurts, and the settled loop holds
# every adjacent ratio within 10% of its DDP target), the chaos-harness
# control invariants (in-band runs byte-identical, live ramp clean), and
# the forwarder's staged retune seam. Verbose so the per-plan off/on
# tail errors are visible.
control:
	$(GO) test -v -run 'TestController|TestInverted|TestQuantum|TestControl|TestSegmentWarmup' ./internal/control/ ./internal/chaos/
	$(GO) test -v -run 'TestForwarderRetune|TestForwarderControl' ./internal/netio/

# Regenerate the committed golden traces after an intentional behaviour
# change. Review the diff before committing.
golden-update:
	$(GO) test ./internal/conformance/ -run TestGoldenTraces -update

# The long differential checks behind the simulator's exactness claims
# (build tag fullsweep): the per-hop Study B runtime against its
# single-engine reference on 288 configurations, and the Pareto draw's
# replay of math.Pow on 50M draws a shape. Tier-1 `go test` runs a slice
# of each.
differential:
	$(GO) test -count=1 -tags fullsweep -run 'Full$$' ./internal/network/ ./internal/traffic/

# Brief fuzzing passes over the wire/file parsers.
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/netio/
	$(GO) test -fuzz FuzzTraceCSV -fuzztime 30s ./internal/traffic/
	$(GO) test -fuzz FuzzParseFloats -fuzztime 30s ./internal/cliutil/
	$(GO) test -fuzz FuzzClassConfig -fuzztime 30s ./internal/classify/
	$(GO) test -fuzz FuzzCurveOps -fuzztime 30s ./internal/netcalc/
	$(GO) test -fuzz FuzzRetune -fuzztime 30s ./internal/core/

# Short fuzzing passes over the scheduler data structures: the fifo ring,
# the WTP selection scan, the live retune seam, and the calendar queue vs
# the engine's heap.
fuzz-smoke:
	$(GO) test -fuzz FuzzDeque -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzWTPScan -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzRetune -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzCalendarQueue -fuzztime 10s ./internal/sim/
	$(GO) test -fuzz FuzzTraceCSV -fuzztime 10s ./internal/traffic/
	$(GO) test -fuzz FuzzClassConfig -fuzztime 10s ./internal/classify/
	$(GO) test -fuzz FuzzCurveOps -fuzztime 10s ./internal/netcalc/

# Short loopback soak: saturate a live forwarder via cmd/pdload and fail
# unless the achieved egress rate is within ±2% of the configured rate
# with exact packet conservation after the drain.
soak:
	$(GO) run ./cmd/pdload -duration 2s -rate 4e6

# Sharded soak: same acceptance gates (rate accuracy, conservation) with
# the ingress split across 4 SO_REUSEPORT shards and merged by arrival
# stamp into the one scheduler; the reported packets/sec is the scaling
# headline on multi-core hosts.
soak-sharded:
	$(GO) run ./cmd/pdload -duration 2s -rate 4e6 -shards 4

# Chaos/fault stress matrix (cmd/pdstress): the scenario catalog across
# {WTP,BPR,FCFS} plus the live-forwarder egress fault plans, judged on
# conservation, pool leaks, telemetry monotonicity and PDD ratio windows.
# `stress` is the CI-sized run; `stress-full` drives ~13M packets.
stress:
	$(GO) run ./cmd/pdstress -scale quick -net

stress-full:
	$(GO) run ./cmd/pdstress -scale full -net

clean:
	$(GO) clean ./...
