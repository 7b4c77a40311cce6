package conformance

import (
	"pdds/internal/link"
	"pdds/internal/traffic"
)

// Scenario is one seeded traffic workload a scheduler is run through. All
// randomness derives from Seed, so a scenario identifies a bit-exact packet
// arrival sequence.
type Scenario struct {
	// Name identifies the scenario in results and golden-file names.
	Name string
	// SDP are the scheduler differentiation parameters; their length sets
	// the class count.
	SDP []float64
	// Load is the offered workload (utilization, class split,
	// interarrival and size distributions).
	Load traffic.LoadSpec
	// Horizon is the simulated duration in time units.
	Horizon float64
	// Seed drives all randomness.
	Seed uint64
}

func (s Scenario) linkRate() float64 { return link.PaperLinkRate }

// Scenarios returns the standard conformance workloads. Every scheduler
// must satisfy every invariant on all of them:
//
//   - heavy-pareto: the paper's Study A operating point — bursty Pareto
//     arrivals at rho 0.95 with the default 40/30/20/10 class split.
//   - moderate-poisson: smooth arrivals at rho 0.70 with equal class
//     loads, probing the regime where WTP deviates from the proportional
//     model but must still satisfy the structural invariants.
//   - skewed-heavy: rho 0.97 with the load concentrated in the high
//     classes (10/20/30/40), stressing tie-breaking and starvation
//     resistance of the low classes.
//   - two-class-overload: a two-class link offered rho 1.05, so the
//     backlog grows without bound and the server must stay continuously
//     busy and strictly work-conserving.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:    "heavy-pareto",
			SDP:     []float64{1, 2, 4, 8},
			Load:    traffic.PaperLoad(0.95),
			Horizon: 20000,
			Seed:    1,
		},
		{
			Name: "moderate-poisson",
			SDP:  []float64{1, 2, 4, 8},
			Load: traffic.LoadSpec{
				Rho:       0.70,
				Fractions: []float64{0.25, 0.25, 0.25, 0.25},
				Sizes:     traffic.PaperSizes(),
				Poisson:   true,
			},
			Horizon: 20000,
			Seed:    2,
		},
		{
			Name: "skewed-heavy",
			SDP:  []float64{1, 2, 4, 8},
			Load: traffic.LoadSpec{
				Rho:       0.97,
				Fractions: []float64{0.10, 0.20, 0.30, 0.40},
				Sizes:     traffic.PaperSizes(),
				Alpha:     1.9,
			},
			Horizon: 20000,
			Seed:    3,
		},
		{
			Name: "two-class-overload",
			SDP:  []float64{1, 8},
			Load: traffic.LoadSpec{
				Rho:       1.05,
				Fractions: []float64{0.50, 0.50},
				Sizes:     traffic.PaperSizes(),
				Poisson:   true,
			},
			Horizon: 15000,
			Seed:    4,
		},
	}
}

// GoldenScenario is the small fixed workload whose event traces are
// committed under testdata/golden and compared byte-for-byte in CI. Keep it
// stable: changing it (or any scheduler's behaviour) requires regenerating
// the golden files with `go test ./internal/conformance -run Golden -update`.
func GoldenScenario() Scenario {
	return Scenario{
		Name:    "golden",
		SDP:     []float64{1, 2, 4, 8},
		Load:    traffic.PaperLoad(0.95),
		Horizon: 3000,
		Seed:    7,
	}
}
