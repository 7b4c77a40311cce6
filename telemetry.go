package pdds

import (
	"net"

	"pdds/internal/telemetry"
)

// Telemetry is live per-class observability attachable to simulations
// (SimulateLink, SimulatePath) and usable standalone: lock-free per-class
// counters and delay histograms, streaming adjacent-class delay ratios
// compared against the DDP targets implied by the SDPs, and an optional
// HTTP endpoint (/metrics JSON, /metrics?format=text, /debug/pprof/).
//
// The record path is allocation-free, so telemetry can stay attached to
// hot simulation loops; the overhead is the telemetry.record_ns row of
// `go run ./bench -trace 1`.
type Telemetry struct {
	reg *telemetry.Registry
	srv *telemetry.Server
}

// NewTelemetry returns a telemetry instrument for len(sdp) classes whose
// delay-ratio targets derive from the SDPs (target ratio i is
// SDP[i+1]/SDP[i], the proportional model's pinned quantity).
func NewTelemetry(sdp []float64) *Telemetry {
	return &Telemetry{reg: telemetry.NewWithSDP(sdp)}
}

// Classes returns the current per-class snapshot (index 0 = lowest
// class).
func (t *Telemetry) Classes() []LiveClassStats { return liveClassStats(t.reg.Snapshot()) }

// Ratios returns the observed adjacent-class mean-delay ratios (class i
// over class i+1). Entries are 0 until both classes have departures.
func (t *Telemetry) Ratios() []float64 { return t.reg.Snapshot().Ratios }

// TargetRatios returns the DDP targets derived from the SDPs.
func (t *Telemetry) TargetRatios() []float64 { return t.reg.TargetRatios() }

// Deviation returns the largest relative deviation of an observed
// adjacent-class ratio from its target, and the number of class pairs
// compared — the operator's single alerting number (0 = spacing matches
// the DDPs exactly).
func (t *Telemetry) Deviation() (dev float64, pairs int) {
	return t.reg.Snapshot().MaxDeviation()
}

// Text renders the human-readable metrics view (the same content as
// /metrics?format=text).
func (t *Telemetry) Text() string { return telemetry.Text(t.reg.Snapshot()) }

// Serve exposes this telemetry over HTTP on addr ("127.0.0.1:0" picks a
// free port) and returns the bound address. Close stops the server.
func (t *Telemetry) Serve(addr string) (net.Addr, error) {
	srv, err := telemetry.Serve(addr, t.reg)
	if err != nil {
		return nil, err
	}
	t.srv = srv
	return srv.Addr(), nil
}

// Close stops the HTTP endpoint if Serve started one.
func (t *Telemetry) Close() error {
	if t.srv == nil {
		return nil
	}
	return t.srv.Close()
}

// registry unwraps the internal registry for wiring into simulations
// (nil-safe: a nil *Telemetry disables instrumentation).
func (t *Telemetry) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}
