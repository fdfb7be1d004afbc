package experiments

import (
	"fmt"
	"time"
)

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func() (Result, error)
}

// All returns every figure and experiment runner with default
// parameters, in presentation order.
func All() []Runner {
	const seed = 1
	return []Runner{
		{ID: "F1", Title: "Mode of operation (Figure 1)", Run: RunF1},
		{ID: "F2", Title: "Abstract device model (Figure 2)", Run: RunF2},
		{ID: "F3", Title: "Simplified state description (Figure 3)",
			Run: func() (Result, error) { return RunF3(F3Params{Seed: seed}) }},
		{ID: "E1", Title: "Pre-action checks (VI.A)",
			Run: func() (Result, error) { return RunE1(E1Params{Seed: seed}) }},
		{ID: "E2", Title: "State-space checks (VI.B)",
			Run: func() (Result, error) { return RunE2(E2Params{Seed: seed}) }},
		{ID: "E3", Title: "Break-glass rules (VI.B)",
			Run: func() (Result, error) { return RunE3(E3Params{Seed: seed}) }},
		{ID: "E4", Title: "Deactivation watchdog (VI.C)",
			Run: func() (Result, error) { return RunE4(E4Params{Seed: seed}) }},
		{ID: "E5", Title: "Collection-formation checks (VI.D)",
			Run: func() (Result, error) { return RunE5(E5Params{Seed: seed}) }},
		{ID: "E6", Title: "AI overseeing AI (VI.E)",
			Run: func() (Result, error) { return RunE6(E6Params{Seed: seed}) }},
		{ID: "E7", Title: "Ill-defined state spaces (VII)",
			Run: func() (Result, error) { return RunE7(E7Params{Seed: seed}) }},
		{ID: "E8", Title: "Generative policy scale (IV)",
			Run: func() (Result, error) { return RunE8(E8Params{Seed: seed}) }},
		{ID: "E9", Title: "Attack resilience (IV)",
			Run: func() (Result, error) { return RunE9(E9Params{Seed: seed}) }},
		{ID: "E10", Title: "Emergent cascade (VI.D)",
			Run: func() (Result, error) { return RunE10(E10Params{}) }},
		{ID: "E11", Title: "Human error containment (IV, extension)",
			Run: func() (Result, error) { return RunE11(E11Params{Seed: seed}) }},
		{ID: "E12", Title: "Chaos resilience — guards under faults (VI–VII)",
			Run: func() (Result, error) { return RunE12(E12Params{Seed: seed}) }},
		// E13/E14 are benchmark-based (see EXPERIMENTS.md); E15 is the
		// next runnable experiment.
		{ID: "E15", Title: "Deterministic parallel fleet execution (perf extension)",
			Run: func() (Result, error) { return RunE15(E15Params{Seed: seed}) }},
		{ID: "E16", Title: "Saturation — admission conservation under overload (VI, extension)",
			Run: func() (Result, error) { return RunE16(E16Params{Seed: seed}) }},
		{ID: "E17", Title: "Signed bundle distribution — fail-closed activation under chaos (IV/VI, extension)",
			Run: func() (Result, error) { return RunE17(E17Params{Seed: seed}) }},
		// The registered E18 runs a small fleet so `go test ./...` stays
		// fast; the 10^5-device differential and the 10^6-device smoke
		// run under `make bench-megafleet` (see EXPERIMENTS.md).
		{ID: "E18", Title: "Memory-compact mega-fleet state (perf extension)",
			Run: func() (Result, error) {
				return RunE18(E18Params{Seed: seed, Fleet: 1500, Horizon: 8 * time.Second})
			}},
		// E19 (serving latency) and E20 (residual snapshots) run under
		// their benchmark harnesses (see EXPERIMENTS.md).
		{ID: "E21", Title: "Coalition-scoped bundle roots — cross-boundary refusal under chaos (II–IV, extension)",
			Run: func() (Result, error) { return RunE21(E21Params{Seed: seed}) }},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("unknown experiment %q", id)
}
