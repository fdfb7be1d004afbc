package experiments

import (
	"testing"
	"time"
)

// benchE15 runs the E15 overheating fleet once per iteration at the
// given parallelism. The fleet is large enough (10k devices, 30
// virtual seconds) that a run is dominated by MAPE ticks, i.e. by the
// work the parallel engine distributes. Compare the Serial/2/4/8
// variants with
// `go test -run '^$' -bench BenchmarkE15Fleet -benchtime=1x ./internal/experiments`.
func benchE15(b *testing.B, workers int) {
	b.Helper()
	p := E15Params{Seed: 1, Fleet: 10000, Horizon: 30 * time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := RunE15Workers(p, workers)
		if err != nil {
			b.Fatal(err)
		}
		if out.Actions == 0 {
			b.Fatal("degenerate run: no actions")
		}
	}
}

func BenchmarkE15FleetSerial(b *testing.B) { benchE15(b, 1) }
func BenchmarkE15Fleet2(b *testing.B)      { benchE15(b, 2) }
func BenchmarkE15Fleet4(b *testing.B)      { benchE15(b, 4) }
func BenchmarkE15Fleet8(b *testing.B)      { benchE15(b, 8) }

// BenchmarkE18Construct measures fleet construction alone: building the
// 10k-device E18 world (devices, policy programs, guards, sensors,
// collective membership, orchestrator enrollment) without the journal
// and without running a single tick. `make alloc-gate` budgets its
// allocs/op so construction cost regressions surface in CI like
// tick-path regressions do.
func BenchmarkE18Construct(b *testing.B) {
	const fleet = 10000
	f := e18Fleet
	f.journal = false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := f.build(1, fleet, 1)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(w.collective.Devices()); got != fleet {
			b.Fatalf("built %d devices, want %d", got, fleet)
		}
	}
}
