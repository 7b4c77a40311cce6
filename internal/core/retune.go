package core

import (
	"errors"
	"fmt"
	"math"
)

// Retuner is the live parameter-retune seam used by the closed-loop DDP
// controller (internal/control): Retune replaces a scheduler's
// differentiation parameters — SDPs for the proportional family, service
// weights for the capacity family — without touching any queued packet.
//
// Contract:
//
//   - Retune validates and returns an error instead of panicking: the
//     parameter vector arrives from a runtime feedback path (or a fuzzer),
//     not from construction-time configuration.
//   - On error the scheduler is unchanged.
//   - Only parameter state changes. Queue contents, per-class FIFO order,
//     byte accounting, and any in-progress round/deficit state survive, so
//     conservation and FIFO-within-class hold across arbitrary mid-run
//     retunes (pinned by FuzzRetune).
//   - A successful Retune with an unchanged class count performs no heap
//     allocation, keeping the steady-state zero-alloc gate intact even
//     under a flapping controller.
//
// Schedulers without tunable parameters (FCFS, strict priority) do not
// implement the interface; use Retune (the package function) to dispatch
// with a typed error instead of a type assertion at every call site.
type Retuner interface {
	Retune(params []float64) error
}

// ErrNotRetunable reports a scheduler with no tunable parameter vector.
var ErrNotRetunable = errors.New("core: scheduler is not retunable")

// Retune applies params to s if it implements Retuner, and returns
// ErrNotRetunable otherwise.
func Retune(s Scheduler, params []float64) error {
	if r, ok := s.(Retuner); ok {
		return r.Retune(params)
	}
	return fmt.Errorf("%w (%s)", ErrNotRetunable, s.Name())
}

// CheckRetuneParams is CheckSDPs for the retune seam: params must also
// have exactly n entries.
func CheckRetuneParams(params []float64, n int) error {
	if len(params) != n {
		return fmt.Errorf("core: retune got %d params for %d classes", len(params), n)
	}
	return CheckSDPs(params)
}

// paramVec is a scheduler's differentiation parameter vector — SDPs,
// additive offsets or service weights — for the disciplines whose retune
// is a plain replacement of it (WTP, PAD, HPD, BPR, Additive, WFQ and PF).
// They embed it, so its Retune is theirs; each type's doc says which of its
// other state survives a retune.
type paramVec []float64

// Retune implements Retuner: the vector is replaced in place, so a
// successful retune allocates nothing.
func (v paramVec) Retune(params []float64) error {
	if err := CheckRetuneParams(params, len(v)); err != nil {
		return err
	}
	copy(v, params)
	return nil
}

// Retune implements Retuner: the per-class quanta are recomputed from the
// new weights (baseQuantum scaling as in NewDRR) while deficits, the
// active ring and the rotation position carry over, so the round in
// progress completes under the blended state and the new shares take full
// effect from the next round.
func (s *DRR) Retune(params []float64) error {
	if err := CheckRetuneParams(params, len(s.quantum)); err != nil {
		return err
	}
	for i, w := range params {
		s.quantum[i] = baseQuantum * w / params[0]
	}
	return nil
}

// Retune implements Retuner: the integer weights are recomputed in place
// (same rounding as IntWeights) and the scan position is clamped into the
// new round structure — the cycle index resets only when the new maximum
// weight no longer covers it.
func (s *IWRR) Retune(params []float64) error {
	if err := CheckRetuneParams(params, len(s.weight)); err != nil {
		return err
	}
	min := params[0]
	for _, w := range params {
		if w < min {
			min = w
		}
	}
	wmax := 0
	for i, w := range params {
		iw := int(math.Round(w / min))
		if iw < 1 {
			iw = 1
		}
		s.weight[i] = iw
		if iw > wmax {
			wmax = iw
		}
	}
	s.wmax = wmax
	if s.cycle >= s.wmax {
		s.cycle = 0
	}
	return nil
}
