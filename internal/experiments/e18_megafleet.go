package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
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
	// Period is the MAPE tick period.
	Period time.Duration
	// Workers are the engine parallelism levels to compare; the first
	// must be 1 (the serial baseline).
	Workers []int
	// TrajectoryBound is the per-device state-history ring size
	// (default 8; decline detection needs DeclineWindow+1 = 4).
	TrajectoryBound int
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
	if p.Period <= 0 {
		p.Period = time.Second
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4}
	}
	if p.TrajectoryBound <= 0 {
		p.TrajectoryBound = 8
	}
}

// E18Outcome is one configuration's measured result.
type E18Outcome struct {
	// Workers is the engine parallelism (1 = serial).
	Workers int
	// Wall is the host wall-clock time of the engine run.
	Wall time.Duration
	// AllocMB is the heap allocated over setup+run (host-dependent;
	// reported to show the memory-compact path at work, never compared
	// by the determinism gate).
	AllocMB float64
	// JournalLen is the number of audit entries (0 with NoAudit).
	JournalLen int
	// TipHash is the hash of the last audit entry — equal tips over
	// equal lengths mean byte-identical hash-chained journals.
	TipHash string
	// Actions and Denials are the per-kind audit entry counts.
	Actions, Denials int
	// HeatSum is the summed final heat of the fleet (a state checksum).
	HeatSum float64
}

// e18World is a fully constructed mega-fleet, ready to run. The
// construction path is benchmarked on its own (BenchmarkE18Construct)
// and alloc-gated, so fleet setup cost stays visible next to tick
// cost.
type e18World struct {
	clock      *sim.Clock
	log        *audit.Log
	collective *core.Collective
	orch       *core.Orchestrator
}

// buildE18World constructs the mega-fleet: shared arena, shared guard
// classifier, one compiled policy program adopted per device in one
// batch, and every member enrolled with the orchestrator.
func buildE18World(p E18Params, workers int) (*e18World, error) {
	clock := sim.NewClock(time.Date(2026, 8, 3, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	var log *audit.Log
	if !p.NoAudit {
		log = audit.New(audit.WithClock(clock.Now))
	}

	schema := statespace.MustSchema(statespace.Var("heat", 0, 100))
	classifier := statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
		if st.MustGet("heat") >= 80 {
			return statespace.ClassBad
		}
		return statespace.ClassGood
	})
	safeness := statespace.SafenessFunc(func(st statespace.State) float64 {
		return (100 - st.MustGet("heat")) / 100
	})

	collective, err := core.New(core.Config{
		Name:            "e18-megafleet",
		Audit:           log,
		KillSecret:      []byte("e18-quorum"),
		ExpectedMembers: p.Fleet,
	})
	if err != nil {
		return nil, err
	}
	mkGuard := func() guard.Guard {
		return core.StandardPipeline(core.SafetyConfig{
			Audit:      log,
			Classifier: classifier,
			HarmPredictor: guard.HarmPredictorFunc(func(ctx guard.ActionContext) float64 {
				if ctx.Action.Name == "vent" {
					return 1
				}
				return 0
			}),
			HarmThreshold: 0.5,
		})
	}

	const fleetSource = `
policy cool priority 5: on self-state-alert do cool effect heat -= 55
policy vent priority 4: on self-state-alert do vent category kinetic-action`
	policies, err := policylang.CompileSource(fleetSource, policy.OriginHuman)
	if err != nil {
		return nil, err
	}

	orch, err := core.NewOrchestrator(collective, engine)
	if err != nil {
		return nil, err
	}

	// One shared arena backs every device's MAPE scratch: the whole
	// fleet's live state is two contiguous float slabs. Device
	// construction is serial, so the bump allocator needs no lock.
	arena := statespace.NewArena(2 * p.Fleet * schema.Len())

	// The per-device initial state differs only in one value; reuse one
	// map for StateFromMap instead of allocating p.Fleet of them. The
	// whole fleet shares one type/org, so it shares one static profile
	// (and therefore one residual snapshot).
	initValues := make(map[string]float64, 1)
	profile := policy.DeviceProfile("reactor", "us")
	var idBuf []byte

	for i := 0; i < p.Fleet; i++ {
		idBuf = fmt.Appendf(idBuf[:0], "dev-%06d", i)
		id := string(idBuf)
		mix := (int64(i) + p.Seed) % 41
		heat := 20 + float64(mix)              // 20..60
		rate := 9 + float64((i+int(p.Seed))%7) // 9..15 per tick
		initValues["heat"] = heat
		initial, err := schema.StateFromMap(initValues)
		if err != nil {
			return nil, err
		}
		d, err := device.New(device.Config{
			ID: id, Type: "reactor", Organization: "us",
			Static:          profile,
			Initial:         initial,
			Guard:           mkGuard(),
			KillSwitch:      collective.KillSwitch(),
			Audit:           log,
			TrajectoryBound: p.TrajectoryBound,
			Arena:           arena,
		})
		if err != nil {
			return nil, err
		}
		// One lock and one snapshot invalidation for the whole program.
		if err := d.Policies().AddBatch(policies); err != nil {
			return nil, err
		}
		h := heat
		if err := d.BindSensor("heat", device.SensorFunc{Label: "thermo", Fn: func() (float64, error) {
			h += rate
			if h > 95 {
				h = 95
			}
			return h, nil
		}}); err != nil {
			return nil, err
		}
		if err := d.RegisterActuator("cool", device.ActuatorFunc{Label: "chiller",
			Fn: func(policy.Action) error {
				h -= 55
				if h < 15 {
					h = 15
				}
				return nil
			}}); err != nil {
			return nil, err
		}
		d.SetDefaultActuator(device.NopActuator{})
		if err := collective.AddDevice(d, nil); err != nil {
			return nil, err
		}
		if err := orch.Manage(id, p.Period, classifier, safeness); err != nil {
			return nil, err
		}
	}
	return &e18World{clock: clock, log: log, collective: collective, orch: orch}, nil
}

// RunE18Workers builds the mega-fleet and runs it once at the given
// parallelism. The scenario is E15's overheating reactor fleet scaled
// up and rebuilt on the memory-compact state plane: every device's
// MAPE scratch draws its flat state vectors from one shared arena,
// state history is a bounded ring, and labels on the hot path are
// interned — so the marginal footprint per device is a few hundred
// bytes, not a few kilobytes per tick.
func RunE18Workers(p E18Params, workers int) (E18Outcome, error) {
	p.defaults()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	w, err := buildE18World(p, workers)
	if err != nil {
		return E18Outcome{}, err
	}
	clock, log, collective, orch := w.clock, w.log, w.collective, w.orch

	start := time.Now()
	if err := orch.Run(clock.Now().Add(p.Horizon)); err != nil {
		return E18Outcome{}, err
	}
	wall := time.Since(start)

	out := E18Outcome{Workers: workers, Wall: wall}
	if log != nil {
		if err := log.Verify(); err != nil {
			return E18Outcome{}, fmt.Errorf("audit chain (workers=%d): %w", workers, err)
		}
		out.JournalLen = log.Len()
		out.Actions = log.CountKind(audit.KindAction)
		out.Denials = log.CountKind(audit.KindDenial)
		if entries := log.Entries(); len(entries) > 0 {
			out.TipHash = entries[len(entries)-1].Hash
		}
	}
	for _, d := range collective.Devices() {
		out.HeatSum += d.CurrentState().MustGet("heat")
	}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	out.AllocMB = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / (1 << 20)
	return out, nil
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
		Headers: []string{"variant", "workers", "wall ms", "alloc MB", "journal",
			"actions", "denials", "tip", "identical"},
	}
	var base E18Outcome
	row := func(variant string, out E18Outcome, identical string) {
		tip := out.TipHash
		if len(tip) > 12 {
			tip = tip[:12]
		}
		result.Rows = append(result.Rows, []string{
			variant, itoa(out.Workers),
			fmt.Sprintf("%.1f", float64(out.Wall.Microseconds())/1000),
			fmt.Sprintf("%.1f", out.AllocMB),
			itoa(out.JournalLen), itoa(out.Actions), itoa(out.Denials),
			tip, identical,
		})
	}
	same := func(out E18Outcome) string {
		if out.TipHash != base.TipHash || out.JournalLen != base.JournalLen ||
			out.HeatSum != base.HeatSum {
			return "NO"
		}
		return "yes"
	}
	for i, workers := range p.Workers {
		out, err := RunE18Workers(p, workers)
		if err != nil {
			return Result{}, err
		}
		if i == 0 {
			base = out
			row("compact", out, "baseline")
			continue
		}
		row("compact", out, same(out))
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("fleet=%d period=%s horizon=%s seed=%d ring=%d; one shared arena backs all MAPE scratch;",
			p.Fleet, p.Period, p.Horizon, p.Seed, p.TrajectoryBound),
		"equal tip hash over equal length = byte-identical hash-chained journal; alloc MB is host-dependent")
	return result, nil
}
