package experiments

import (
	"fmt"
	"time"
)

// E18Params configures the memory-compact mega-fleet experiment.
type E18Params struct {
	// Seed varies the per-device dynamics (deterministically).
	Seed int64
	// Fleet is the number of self-managing devices (default 100000 —
	// pass a smaller fleet for quick runs).
	Fleet int
	// Horizon is the virtual duration of each run.
	Horizon time.Duration
	// Workers are the engine parallelism levels to compare; the first
	// must be 1 (the serial baseline).
	Workers []int
	// NoAudit drops the shared journal (used by the 10^6-device smoke,
	// where the journal itself would dominate memory).
	NoAudit bool
}

func (p *E18Params) defaults() {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Fleet <= 0 {
		p.Fleet = 100000
	}
	if p.Horizon <= 0 {
		p.Horizon = 10 * time.Second
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4}
	}
}

// e18Fleet is E15's overheating reactor fleet rebuilt on the
// memory-compact state plane: every device's MAPE scratch draws its
// flat state vectors from one shared arena and state history is a
// bounded ring (decline detection needs DeclineWindow+1 = 4 states),
// so the marginal footprint per device is a few hundred bytes, not a
// few kilobytes per tick. Its construction path is benchmarked on its
// own (BenchmarkE18Construct) and alloc-gated, so fleet setup cost
// stays visible next to tick cost.
var e18Fleet = overheatFleet{
	name: "e18-megafleet", secret: "e18-quorum",
	origin:  time.Date(2026, 8, 3, 0, 0, 0, 0, time.UTC),
	idWidth: 6, arena: true, ring: 8, journal: true,
}

// RunE18Workers builds the mega-fleet and runs it once at the given
// parallelism.
func RunE18Workers(p E18Params, workers int) (FleetOutcome, error) {
	p.defaults()
	f := e18Fleet
	f.journal = !p.NoAudit
	return f.run(p.Seed, p.Fleet, p.Horizon, workers)
}

// RunE18 measures the memory-compact fleet state plane: the same
// overheating fleet runs serially and at 2/4 workers on flat
// arena-backed state vectors, bounded trajectory rings and pooled
// MAPE-K scratch, and every run must produce a byte-identical audit
// journal and identical fleet state.
func RunE18(p E18Params) (Result, error) {
	p.defaults()
	result := Result{
		ID:    "E18",
		Title: "Memory-compact mega-fleet (flat state vectors, interned labels, pooled scratch)",
		Headers: []string{"workers", "wall ms", "alloc MB", "journal",
			"actions", "denials", "tip", "identical"},
	}
	var base FleetOutcome
	for i, workers := range p.Workers {
		out, err := RunE18Workers(p, workers)
		if err != nil {
			return Result{}, err
		}
		if i == 0 {
			base = out
		}
		result.Rows = append(result.Rows, []string{
			itoa(out.Workers),
			fmt.Sprintf("%.1f", float64(out.Wall.Microseconds())/1000),
			fmt.Sprintf("%.1f", out.AllocMB),
			itoa(out.JournalLen), itoa(out.Actions), itoa(out.Denials),
			shortTip(out.TipHash), identical(i, out.sameRun(base)),
		})
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("fleet=%d period=%s horizon=%s seed=%d ring=%d; one shared arena backs all MAPE scratch;",
			p.Fleet, fleetPeriod, p.Horizon, p.Seed, e18Fleet.ring),
		"equal tip hash over equal length = byte-identical hash-chained journal; alloc MB is host-dependent")
	return result, nil
}
