package network

import (
	"testing"

	"pdds/internal/core"
)

// BenchmarkRun times one shortened run of the benchmark's Study B cell
// (K 8, ρ 0.95, F 100, R_u 200, seed 1999); -benchmem reports what a run
// allocates.
func BenchmarkRun(b *testing.B) {
	cfg := diffConfig(15, core.KindWTP, 1999, 5, 5)
	b.ReportAllocs()
	for range b.N {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
