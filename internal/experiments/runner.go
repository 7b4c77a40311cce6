package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/network"
)

// This file is the shared replication runner: every experiment driver fans
// its independent (seed, load-point, scheduler) runs out over a bounded
// worker pool through ForEach. Parallelism never reaches inside a run's
// simulation — each run owns a private engine, RNG streams and packet pool,
// so results are bit-identical to a serial sweep — and reductions always
// happen in job-index order after the pool drains, which keeps every figure
// and table deterministic regardless of worker count. The one goroutine
// inside a run, network.Run's cross-traffic drawer, only computes draws
// that are pure functions of (seed, hop, source) and hands them over in a
// fixed order, and the run fails unless the simulation uses each exactly.

// parallelism is the worker-pool width; 0 means runtime.GOMAXPROCS(0).
var parallelism atomic.Int64

// SetParallelism bounds the number of simulation runs executing
// concurrently across all experiment drivers. n < 1 restores the default
// (runtime.GOMAXPROCS(0)).
func SetParallelism(n int) {
	if n < 1 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the current worker-pool width.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most Parallelism()
// workers and returns the per-index errors joined in index order (nil when
// all succeed). Every index runs regardless of other indices' failures, so
// callers get the complete error picture — fn is responsible for wrapping
// its error with enough context (seed, operating point) to be actionable.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return errors.Join(errs...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Run and packet counters, aggregated across all drivers. cmd/pdexp resets
// them per experiment for its report.json summary; the benchmarks use them
// for the packets/sec metric.
var (
	runCount    atomic.Uint64
	packetCount atomic.Uint64
)

// ResetCounters zeroes the run and packet counters.
func ResetCounters() {
	runCount.Store(0)
	packetCount.Store(0)
}

// RunCount returns the number of simulation runs completed since the last
// ResetCounters.
func RunCount() uint64 { return runCount.Load() }

// PacketCount returns the number of packets departed across all runs since
// the last ResetCounters.
func PacketCount() uint64 { return packetCount.Load() }

// countRun records one completed run serving pkts packets.
func countRun(pkts uint64) {
	runCount.Add(1)
	packetCount.Add(pkts)
}

// runLink is link.Run plus run/packet accounting.
func runLink(cfg link.RunConfig) (*link.Result, error) {
	res, err := link.Run(cfg)
	if err != nil {
		return nil, err
	}
	countRun(res.Departed)
	return res, nil
}

// runLinkWith is link.RunWithScheduler plus run/packet accounting.
func runLinkWith(sched core.Scheduler, cfg link.RunConfig) (*link.Result, error) {
	res, err := link.RunWithScheduler(sched, cfg)
	if err != nil {
		return nil, err
	}
	countRun(res.Departed)
	return res, nil
}

// runNetwork is network.Run plus run/packet accounting (cross-traffic plus
// delivered user packets).
func runNetwork(cfg network.Config) (*network.Result, error) {
	res, err := network.Run(cfg)
	if err != nil {
		return nil, err
	}
	userPackets := uint64(cfg.Experiments) * uint64(len(cfg.SDP)) * uint64(cfg.FlowPackets)
	countRun(res.CrossPackets + userPackets)
	return res, nil
}

// seedErr wraps a run error with the seed that produced it, so one bad
// seed in a fan-out names itself instead of failing the figure opaquely.
func seedErr(index int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("seed %d (index %d): %w", BaseSeed+uint64(index), index, err)
}
