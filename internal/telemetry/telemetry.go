// Package telemetry is the live observability layer: low-overhead,
// concurrency-safe per-class metrics usable from both the discrete-event
// simulator (internal/link, internal/network) and the real-socket UDP
// forwarder (internal/netio).
//
// The paper's central claim is that per-hop class delay *ratios* stay
// pinned to the delay differentiation parameters (DDPs) independent of
// load. The rest of this repository verifies that offline, by
// post-processing per-run statistics; this package makes the same
// quantities observable while traffic is flowing:
//
//   - Registry holds per-class atomic counters (arrivals, departures,
//     drops, bytes) and a log-linear delay histogram per class. The record
//     path is allocation-free and lock-free (a handful of atomic adds), so
//     it is safe to leave enabled on hot paths.
//
//   - Snapshot captures a consistent-enough point-in-time view, computes
//     the adjacent-class delay ratios and their deviation from the
//     configured DDP targets (the paper's R_D metric, but streaming), and
//     subtracts against an earlier snapshot to yield interval (windowed)
//     views — the live equivalent of the paper's timescale-τ analysis.
//
//   - Optional trace hooks (OnEnqueue/OnDequeue/OnDrop) sit behind a nil
//     check so an instrumented hot path costs a single predictable branch
//     when tracing is disabled.
//
//   - Handler/Serve expose a Registry over HTTP: expvar-style JSON at
//     /metrics, a human-readable text view at /metrics?format=text, and
//     net/http/pprof under /debug/pprof/.
//
// Instrumentation points pay one nil-check branch when no registry is
// attached; the telemetry.record_ns row of `go run ./bench -trace 1` is
// the measured cost of the attached state.
package telemetry
