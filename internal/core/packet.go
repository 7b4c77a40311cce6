// Package core contains the paper's primary contribution: the packet
// schedulers for proportional delay differentiation — WTP (Waiting-Time
// Priority, §4.2) and BPR (Backlog-Proportional Rate, §4.1 and Appendix 3) —
// together with the relative-differentiation baselines the paper discusses
// in §2.1 (FCFS, strict priority, WFQ-style capacity differentiation, and
// the additive delay scheduler).
//
// Conventions: classes are 0-indexed; class 0 is the lowest class. The
// paper's class 1..N maps to 0..N-1, and the SDP ordering s1 < s2 < ... < sN
// becomes SDP[0] < SDP[1] < ... < SDP[N-1]. Time is a float64 in arbitrary
// simulation units; packet sizes are bytes.
package core

import (
	"fmt"
	"math"
)

// Packet is a packet queued at (or traversing) a scheduler. Fields beyond
// the first four are bookkeeping filled in by the simulation harnesses.
type Packet struct {
	// ID identifies the packet within a run (assigned by the source).
	ID uint64
	// Class is the 0-based service class.
	Class int
	// Size is the packet length in bytes.
	Size int64
	// Arrival is the time the packet was enqueued at the current hop.
	Arrival float64

	// Start is the time service (transmission) began at the current hop.
	Start float64
	// Departure is the time transmission completed at the current hop.
	Departure float64

	// Flow identifies the user flow the packet belongs to (Study B);
	// zero for cross-traffic and single-link studies.
	Flow uint64
	// Birth is the time the packet was created at its source.
	Birth float64
	// QueueingDelay accumulates waiting time across all hops traversed.
	QueueingDelay float64
	// Hops counts scheduler hops traversed so far.
	Hops int

	// Payload carries the raw datagram when the scheduler fronts a real
	// network socket (internal/netio); simulations leave it nil.
	Payload []byte
}

// Wait returns the packet's queueing delay at the current hop: the time it
// spent waiting before transmission began. This is the paper's per-hop
// delay metric (transmission time itself is identical for all disciplines
// and negligible relative to queueing at the loads studied).
func (p *Packet) Wait() float64 { return p.Start - p.Arrival }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d class=%d size=%dB arr=%.3f}", p.ID, p.Class, p.Size, p.Arrival)
}

// ValidateClasses panics unless n is a sane class count. Schedulers call it
// from their constructors so misconfiguration fails fast.
func ValidateClasses(n int) {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("core: class count %d out of range [1,64]", n))
	}
}

// ValidateSDPs panics unless the scheduler differentiation parameters are
// strictly positive and nondecreasing (s1 <= s2 <= ... <= sN, with the
// paper requiring strict order for strict differentiation).
func ValidateSDPs(sdp []float64) {
	ValidateClasses(len(sdp))
	for i, s := range sdp {
		if !(s > 0) {
			panic(fmt.Sprintf("core: SDP[%d]=%g must be > 0", i, s))
		}
		if i > 0 && s < sdp[i-1] {
			panic(fmt.Sprintf("core: SDPs must be nondecreasing, got %v", sdp))
		}
	}
}

// CheckSDPs is the error-returning check New applies before building any
// discipline: 1 to 64 classes, every SDP finite and strictly positive, and
// the vector nondecreasing.
func CheckSDPs(sdp []float64) error {
	if n := len(sdp); n < 1 || n > 64 {
		return fmt.Errorf("core: class count %d out of range [1,64]", n)
	}
	for i, s := range sdp {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("core: SDP[%d]=%g must be finite and > 0", i, s)
		}
		if i > 0 && s < sdp[i-1] {
			return fmt.Errorf("core: SDPs must be nondecreasing, got %v", sdp)
		}
	}
	return nil
}
