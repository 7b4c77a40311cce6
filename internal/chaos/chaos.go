// Package chaos is the deterministic fault- and scenario-injection layer.
// It exists because the paper's central claim — WTP/BPR hold class delay
// ratios near the DDPs *independent of class loads*, including under the
// dynamic short-timescale conditions of §5.4 — is exactly the kind of
// claim that only survives contact with non-stationary, adversarial
// conditions. Everything here is seeded and replayable:
//
//   - Timeline scripts perturb a running simulation (load steps and ramps,
//     class-mix shifts, source on/off churn, link-rate changes, burst
//     trains) through events scheduled on the ordinary sim engine, so a
//     run with an empty timeline is byte-identical to one without the
//     chaos layer at all — the committed golden conformance traces pin
//     this.
//   - FaultPlan perturbs the live UDP forwarder's egress (corruption,
//     truncation, duplication, reordering, receiver stalls, transient and
//     persistent write errors) through the netio.FaultInjector interface.
//   - RunSim drives a scheduler through a Timeline for a long horizon
//     while continuously checking the invariants no perturbation may
//     break: exact packet conservation, telemetry-counter monotonicity,
//     zero packet-pool leaks — and judging the observed delay ratios
//     against per-load-regime tolerance windows.
//
// cmd/pdstress fans the standard Plans × scheduler matrix out over the
// parallel replication runner (`make stress`).
package chaos

import (
	"fmt"
	"math"
)

// Op identifies a scenario action kind.
type Op int

// Scenario action kinds. The zero value is invalid so an accidentally
// zeroed Action fails validation instead of silently scaling the load.
const (
	// OpScaleLoad multiplies every class's arrival rate by Factor
	// (cumulative with earlier scale actions).
	OpScaleLoad Op = iota + 1
	// OpScaleClass multiplies class Class's arrival rate by Factor.
	OpScaleClass
	// OpSetLinkRate sets the link rate to Factor × the run's base rate.
	OpSetLinkRate
	// OpSourceOff pauses class Class's source (no arrivals until
	// OpSourceOn).
	OpSourceOff
	// OpSourceOn resumes class Class's source.
	OpSourceOn
	// OpBurst injects Count back-to-back packets of class Class and size
	// Size bytes, modelling an arrival train far burstier than the
	// source model produces on its own.
	OpBurst
)

// String names the op for reports.
func (o Op) String() string {
	switch o {
	case OpScaleLoad:
		return "scale-load"
	case OpScaleClass:
		return "scale-class"
	case OpSetLinkRate:
		return "set-link-rate"
	case OpSourceOff:
		return "source-off"
	case OpSourceOn:
		return "source-on"
	case OpBurst:
		return "burst"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Action is one scripted perturbation at an absolute simulation time.
// Which of the operand fields are read depends on Op.
type Action struct {
	// At is the absolute simulation time the action fires.
	At float64
	// Op selects the perturbation.
	Op Op
	// Class is the target class for per-class ops.
	Class int
	// Factor is the multiplier for scale and link-rate ops.
	Factor float64
	// Count and Size parameterize OpBurst.
	Count int
	Size  int64
}

func (a Action) validate(classes int) error {
	if !(a.At >= 0) || math.IsInf(a.At, 0) {
		return fmt.Errorf("chaos: action %s at invalid time %g", a.Op, a.At)
	}
	switch a.Op {
	case OpScaleLoad:
		if !(a.Factor > 0) {
			return fmt.Errorf("chaos: %s factor %g must be > 0", a.Op, a.Factor)
		}
	case OpScaleClass:
		if !(a.Factor > 0) {
			return fmt.Errorf("chaos: %s factor %g must be > 0", a.Op, a.Factor)
		}
		if a.Class < 0 || a.Class >= classes {
			return fmt.Errorf("chaos: %s class %d out of range [0,%d)", a.Op, a.Class, classes)
		}
	case OpSetLinkRate:
		if !(a.Factor > 0) {
			return fmt.Errorf("chaos: %s factor %g must be > 0", a.Op, a.Factor)
		}
	case OpSourceOff, OpSourceOn:
		if a.Class < 0 || a.Class >= classes {
			return fmt.Errorf("chaos: %s class %d out of range [0,%d)", a.Op, a.Class, classes)
		}
	case OpBurst:
		if a.Count < 1 || a.Size < 1 {
			return fmt.Errorf("chaos: %s needs count >= 1 and size >= 1, got %d/%d", a.Op, a.Count, a.Size)
		}
		if a.Class < 0 || a.Class >= classes {
			return fmt.Errorf("chaos: %s class %d out of range [0,%d)", a.Op, a.Class, classes)
		}
	default:
		return fmt.Errorf("chaos: unknown op %d", int(a.Op))
	}
	return nil
}

// Timeline is a named scenario script: the full set of perturbations one
// run experiences. An empty timeline is the unperturbed control.
type Timeline struct {
	Name    string
	Actions []Action
}

// Validate checks every action against the class count.
func (tl Timeline) Validate(classes int) error {
	for i, a := range tl.Actions {
		if err := a.validate(classes); err != nil {
			return fmt.Errorf("action %d: %w", i, err)
		}
	}
	return nil
}

// Ramp returns a staircase of OpScaleLoad actions approximating a linear
// load ramp: steps equal segments over [start, end], scaling the total
// arrival rate from `from`× to `to`× the base load. Factors are emitted
// relative to the previous step (scale actions compound), so the absolute
// scale after the last step is exactly `to`.
func Ramp(start, end float64, steps int, from, to float64) []Action {
	if steps < 1 || !(end > start) || !(from > 0) || !(to > 0) {
		panic(fmt.Sprintf("chaos: bad ramp [%g,%g] steps=%d from=%g to=%g", start, end, steps, from, to))
	}
	out := make([]Action, 0, steps+1)
	prev := 1.0
	for i := 0; i <= steps; i++ {
		frac := float64(i) / float64(steps)
		abs := from + (to-from)*frac
		out = append(out, Action{
			At:     start + (end-start)*frac,
			Op:     OpScaleLoad,
			Factor: abs / prev,
		})
		prev = abs
	}
	return out
}

// Toggle returns alternating OpSourceOff/OpSourceOn actions for class,
// starting with off at start and switching every period until end.
func Toggle(class int, start, period, end float64) []Action {
	if !(period > 0) || !(end > start) {
		panic(fmt.Sprintf("chaos: bad toggle [%g,%g] period=%g", start, end, period))
	}
	var out []Action
	off := true // the next emitted action pauses the source
	for t := start; t < end; t += period {
		op := OpSourceOn
		if off {
			op = OpSourceOff
		}
		out = append(out, Action{At: t, Op: op, Class: class})
		off = !off
	}
	if !off {
		// Ended in the off state: restore the source so the tail of the
		// run (and the conservation check) sees the full class set.
		out = append(out, Action{At: end, Op: OpSourceOn, Class: class})
	}
	return out
}
