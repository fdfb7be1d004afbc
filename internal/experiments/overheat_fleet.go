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

// fleetPeriod is the MAPE tick period of the overheating fleet.
const fleetPeriod = time.Second

// overheatFleet is the overheating-reactor fleet E15 and E18 run. Every
// device climbs toward the bad region (heat ≥ 80) on its own sensor
// dynamics, the MAPE loop raises repair events, the guard stack denies
// the harmful "vent" response and allows the cooling one, and the
// shared hash-chained journal records all of it — on virtual time, so
// the journal is bit-for-bit reproducible. The fields are what the two
// experiments differ in.
type overheatFleet struct {
	// name and secret are the collective's name and kill-quorum secret.
	name, secret string
	// origin is the virtual clock's start.
	origin time.Time
	// idWidth is the zero-padded width of the device index in its ID.
	idWidth int
	// arena backs every device's MAPE scratch with one shared arena,
	// so the fleet's live state is two contiguous float slabs.
	arena bool
	// ring bounds each device's state history (0 = unbounded).
	ring int
	// sweep runs watchdog sweeps every five periods, as unkeyed
	// barriers between the parallel tick batches.
	sweep bool
	// journal keeps the shared audit journal.
	journal bool
}

// fleetWorld is a fully constructed overheating fleet, ready to run.
type fleetWorld struct {
	clock      *sim.Clock
	log        *audit.Log
	collective *core.Collective
	orch       *core.Orchestrator
}

// FleetOutcome is one overheating-fleet run's measured result: the
// host cost of the run and a digest of every deterministic output the
// differential gates compare.
type FleetOutcome struct {
	// Workers is the engine parallelism (1 = serial).
	Workers int
	// Wall is the host wall-clock time of the engine run.
	Wall time.Duration
	// AllocMB is the heap allocated over setup+run (host-dependent;
	// never compared by the determinism gates).
	AllocMB float64
	// JournalLen is the number of audit entries (0 without a journal).
	JournalLen int
	// TipHash is the hash of the last audit entry — equal tips over
	// equal lengths mean byte-identical hash-chained journals.
	TipHash string
	// Actions and Denials are the per-kind audit entry counts.
	Actions, Denials int
	// HeatSum is the summed final heat of the fleet (a state checksum).
	HeatSum float64
}

// sameRun reports whether two outcomes carry the same journal and the
// same final fleet state.
func (o FleetOutcome) sameRun(b FleetOutcome) bool {
	return o.TipHash == b.TipHash && o.JournalLen == b.JournalLen && o.HeatSum == b.HeatSum
}

// build constructs a fleet of size devices: one compiled policy
// program adopted per device in one batch, a guard stack per device
// over a shared classifier, and every member enrolled with the
// orchestrator.
func (f overheatFleet) build(seed int64, size, workers int) (*fleetWorld, error) {
	clock := sim.NewClock(f.origin)
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	var log *audit.Log
	if f.journal {
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
		Name:            f.name,
		Audit:           log,
		KillSecret:      []byte(f.secret),
		ExpectedMembers: size,
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
					return 1 // venting exhausts toward bystanders
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

	// Device construction is serial, so the shared arena's bump
	// allocator needs no lock.
	var arena *statespace.Arena
	if f.arena {
		arena = statespace.NewArena(2 * size * schema.Len())
	}

	// The per-device initial state differs only in one value; reuse one
	// map for StateFromMap instead of allocating one per device. The
	// whole fleet shares one type/org, so it shares one static profile
	// (and therefore one residual snapshot).
	initValues := make(map[string]float64, 1)
	profile := policy.DeviceProfile("reactor", "us")
	var idBuf []byte

	for i := 0; i < size; i++ {
		idBuf = fmt.Appendf(idBuf[:0], "dev-%0*d", f.idWidth, i)
		id := string(idBuf)
		// Per-device dynamics derived from seed and index only, so every
		// run of the same configuration is identical.
		mix := (int64(i) + seed) % 41
		heat := 20 + float64(mix)            // 20..60
		rate := 9 + float64((i+int(seed))%7) // 9..15 per tick
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
			TrajectoryBound: f.ring,
			Arena:           arena,
		})
		if err != nil {
			return nil, err
		}
		// One lock and one snapshot invalidation for the whole program,
		// not one per policy.
		if err := d.Policies().AddBatch(policies); err != nil {
			return nil, err
		}
		// The sensor closure is the device's physical plant: heat climbs
		// every tick, the cool actuator dumps it. Both run only on the
		// device's shard, so the closure needs no locking.
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
		if err := orch.Manage(id, fleetPeriod, classifier, safeness); err != nil {
			return nil, err
		}
	}
	if f.sweep {
		orch.SweepEvery(5*fleetPeriod, nil)
	}
	return &fleetWorld{clock: clock, log: log, collective: collective, orch: orch}, nil
}

// run builds the fleet, runs it for horizon of virtual time at the
// given parallelism, verifies the journal and digests the outcome.
func (f overheatFleet) run(seed int64, size int, horizon time.Duration, workers int) (FleetOutcome, error) {
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	w, err := f.build(seed, size, workers)
	if err != nil {
		return FleetOutcome{}, err
	}
	start := time.Now()
	if err := w.orch.Run(w.clock.Now().Add(horizon)); err != nil {
		return FleetOutcome{}, err
	}
	out := FleetOutcome{Workers: workers, Wall: time.Since(start)}

	if w.log != nil {
		if err := w.log.Verify(); err != nil {
			return FleetOutcome{}, fmt.Errorf("audit chain (workers=%d): %w", workers, err)
		}
		out.JournalLen = w.log.Len()
		out.Actions = w.log.CountKind(audit.KindAction)
		out.Denials = w.log.CountKind(audit.KindDenial)
		out.TipHash = tipOf(w.log)
	}
	for _, d := range w.collective.Devices() {
		out.HeatSum += d.CurrentState().MustGet("heat")
	}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	out.AllocMB = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / (1 << 20)
	return out, nil
}
