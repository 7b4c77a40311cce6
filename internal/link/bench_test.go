package link

import (
	"fmt"
	"testing"

	"pdds/internal/core"
	"pdds/internal/traffic"
)

// coldSeed numbers every BenchmarkRunCold call, across the benchmark's
// calibration rounds too, so no call repeats an earlier run's workload.
var coldSeed uint64 = 1 << 32

// BenchmarkRunCold times link.Run with a fresh seed on every call: each
// run draws its arrivals live, so this is what a memo miss costs. The
// 1000-time-unit horizon is the bench's smallest request; 2e6 is one
// sim_link_zoo run.
func BenchmarkRunCold(b *testing.B) {
	for _, horizon := range []float64{1e3, 2e6} {
		b.Run(fmt.Sprintf("horizon=%g", horizon), func(b *testing.B) {
			cfg := RunConfig{Kind: core.KindWTP, SDP: []float64{1, 2, 4, 8}, Load: traffic.PaperLoad(0.95), Horizon: horizon}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coldSeed++
				cfg.Seed = coldSeed
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
