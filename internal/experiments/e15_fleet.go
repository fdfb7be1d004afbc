package experiments

import (
	"fmt"
	"time"
)

// E15Params configures the parallel-fleet experiment.
type E15Params struct {
	// Seed varies the per-device dynamics (deterministically).
	Seed int64
	// Fleet is the number of self-managing devices.
	Fleet int
	// Horizon is the virtual duration of each run.
	Horizon time.Duration
	// Workers are the engine parallelism levels to compare; the first
	// must be 1 (the serial baseline).
	Workers []int
}

func (p *E15Params) defaults() {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Fleet <= 0 {
		p.Fleet = 2000
	}
	if p.Horizon <= 0 {
		p.Horizon = 30 * time.Second
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4, 8}
	}
}

// e15Fleet is the overheating fleet on the default state plane, with
// watchdog sweeps as barriers between the parallel tick batches.
var e15Fleet = overheatFleet{
	name: "e15-fleet", secret: "e15-quorum",
	origin:  time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC),
	idWidth: 5, sweep: true, journal: true,
}

// RunE15Workers builds the overheating fleet and runs it once at the
// given parallelism.
func RunE15Workers(p E15Params, workers int) (FleetOutcome, error) {
	p.defaults()
	return e15Fleet.run(p.Seed, p.Fleet, p.Horizon, workers)
}

// RunE15 measures conservative-parallel fleet execution: the same
// 2000-device overheating fleet runs serially and at 2/4/8 workers, and
// every run must produce a byte-identical audit journal (same tip hash
// over the same length) and identical fleet state — determinism is the
// acceptance bar, the wall-clock speedup is the payoff.
func RunE15(p E15Params) (Result, error) {
	p.defaults()
	result := Result{
		ID:    "E15",
		Title: "Deterministic parallel fleet execution",
		Headers: []string{"workers", "wall ms", "speedup", "journal", "actions",
			"denials", "tip", "identical"},
	}
	var base FleetOutcome
	for i, workers := range p.Workers {
		out, err := RunE15Workers(p, workers)
		if err != nil {
			return Result{}, err
		}
		if i == 0 {
			base = out
		}
		speedup := float64(base.Wall) / float64(out.Wall)
		result.Rows = append(result.Rows, []string{
			itoa(workers),
			fmt.Sprintf("%.1f", float64(out.Wall.Microseconds())/1000),
			fmt.Sprintf("%.2fx", speedup),
			itoa(out.JournalLen), itoa(out.Actions), itoa(out.Denials),
			shortTip(out.TipHash), identical(i, out.sameRun(base)),
		})
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("fleet=%d period=%s horizon=%s seed=%d; MAPE ticks sharded by device ID,", p.Fleet, fleetPeriod, p.Horizon, p.Seed),
		"watchdog sweeps as barriers; equal tip hash over equal length = byte-identical hash-chained journal;",
		"wall times are host-dependent — see EXPERIMENTS.md for reference numbers")
	return result, nil
}
