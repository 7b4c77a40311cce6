// Package experiments contains one driver per table and figure of the
// paper's evaluation (Figures 1–5, Table 1, the §3 feasibility check, and
// the §2.1 baseline ablation). The drivers are shared by cmd/pdexp and the
// repository's benchmarks; a Scale selects paper-fidelity or reduced run
// sizes.
package experiments

// Scale selects run sizes for the experiment drivers.
type Scale struct {
	// Seeds is the number of independent runs averaged per point
	// (paper: 10 for Study A, 5 for Study B).
	Seeds int
	// Horizon is the Study A run length in time units (paper: 1e6).
	Horizon float64
	// Warmup is the Study A warm-up period in time units.
	Warmup float64
	// FeasHorizon is the trace length for feasibility FCFS
	// sub-simulations.
	FeasHorizon float64
	// StudyBSeeds, StudyBExperiments and StudyBWarmup configure Table 1
	// (paper: 5 seeds, M=100 experiments, 100 s warm-up).
	StudyBSeeds       int
	StudyBExperiments int
	StudyBWarmup      float64
}

// Full reproduces the paper's run sizes.
var Full = Scale{
	Seeds:             10,
	Horizon:           1e6,
	Warmup:            5e4,
	FeasHorizon:       5e5,
	StudyBSeeds:       5,
	StudyBExperiments: 100,
	StudyBWarmup:      100,
}

// Quick is a reduced scale for interactive runs; shapes match Full with
// more noise.
var Quick = Scale{
	Seeds:             3,
	Horizon:           2e5,
	Warmup:            2e4,
	FeasHorizon:       2e5,
	StudyBSeeds:       2,
	StudyBExperiments: 25,
	StudyBWarmup:      20,
}

// Bench is the smallest scale (`pdexp -scale bench`): every experiment
// finishes in well under a second.
var Bench = Scale{
	Seeds:             1,
	Horizon:           5e4,
	Warmup:            5e3,
	FeasHorizon:       5e4,
	StudyBSeeds:       1,
	StudyBExperiments: 5,
	StudyBWarmup:      5,
}

// BaseSeed is the first seed of every sweep; seed k of a sweep is
// BaseSeed+k. Recorded here so all published numbers are reproducible.
const BaseSeed uint64 = 1999

// PaperSDPx2 is the Figure 1-a/2-a/3 SDP set (ratio 2 between classes).
var PaperSDPx2 = []float64{1, 2, 4, 8}

// PaperSDPx4 is the Figure 1-b/2-b SDP set (ratio 4).
var PaperSDPx4 = []float64{1, 4, 16, 64}

// MicroSDP is the 3-class SDP set of Figures 4 and 5.
var MicroSDP = []float64{1, 2, 4}

// Utilizations is the Figure 1 sweep: 70% to 99.9%.
var Utilizations = []float64{0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.999}
