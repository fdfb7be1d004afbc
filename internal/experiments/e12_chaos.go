package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/resilience"
	"repro/internal/risk"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// E12Params configures the chaos-resilience experiment.
type E12Params struct {
	// Seed drives every random source.
	Seed int64
	// Fleet is the number of guarded drones (plus one unguarded
	// rogue).
	Fleet int
	// Horizon is the virtual duration of each schedule's run.
	Horizon time.Duration
}

func (p *E12Params) defaults() {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Fleet <= 0 {
		p.Fleet = 8
	}
	if p.Horizon <= 0 {
		p.Horizon = 2 * time.Minute
	}
}

// e12Schedule is one fault schedule the collective must survive.
type e12Schedule struct {
	name   string
	faults []chaos.Fault
	crash  bool // crash and later restart one guarded drone
}

func e12Schedules() []e12Schedule {
	return []e12Schedule{
		{name: "baseline"},
		{name: "loss30", faults: []chaos.Fault{
			chaos.Loss{Prob: 0.3, At: 10 * time.Second, For: 60 * time.Second},
		}},
		{name: "partition", faults: []chaos.Fault{
			// The dispatcher ("human", implicitly group 0) loses half the
			// fleet for 20 virtual seconds.
			chaos.Partition{Groups: map[string]int{
				"drone-4": 1, "drone-5": 1, "drone-6": 1, "drone-7": 1, "rogue": 1,
			}, At: 40 * time.Second, For: 20 * time.Second},
		}},
		{name: "crash-restart", crash: true},
		{name: "dup-reorder", faults: []chaos.Fault{
			chaos.Duplication{Prob: 0.5, At: 10 * time.Second, For: 60 * time.Second},
			chaos.SlowLinks{Min: 100 * time.Millisecond, Max: 400 * time.Millisecond,
				At: 10 * time.Second, For: 60 * time.Second},
		}},
		{name: "clock-skew", faults: []chaos.Fault{
			chaos.ClockSkew{Jump: 7 * time.Second, Every: 13 * time.Second, Count: 4},
		}},
		{name: "combined", crash: true, faults: []chaos.Fault{
			chaos.Loss{Prob: 0.2, At: 10 * time.Second, For: 80 * time.Second},
			chaos.Duplication{Prob: 0.3, At: 30 * time.Second, For: 40 * time.Second},
			chaos.SlowLinks{Min: 50 * time.Millisecond, Max: 200 * time.Millisecond,
				At: 10 * time.Second, For: 80 * time.Second},
		}},
	}
}

// e12Run is the outcome of one schedule.
type e12Run struct {
	delivered, dropped, duplicated int
	retries                        int64
	breakerOpens                   int
	breakGlassUses                 int
	deactivated                    int
	recoveries                     int
	violations                     []string
	faultNotes                     string
}

// RunE12 subjects the full prevention stack — pre-action checks,
// state-space containment with break-glass, watchdog deactivation,
// admission limits, and tripartite oversight — to the chaos harness:
// message loss, partitions, crash/restart with journal recovery,
// duplication with reordering, slow links and clock skew. The paper's
// guards are only worth their name if they hold while the collective
// is degraded; every schedule must finish with zero invariant
// violations.
func RunE12(p E12Params) (Result, error) {
	p.defaults()
	result := Result{
		ID:    "E12",
		Title: "Chaos resilience — guard invariants under injected faults",
		Headers: []string{"schedule", "faults", "delivered", "dropped", "dup",
			"retries", "breaker opens", "break-glass", "deactivated", "recovered", "violations"},
	}
	for i, sched := range e12Schedules() {
		run, err := runE12Schedule(sched, p, p.Seed+int64(i))
		if err != nil {
			return Result{}, fmt.Errorf("schedule %s: %w", sched.name, err)
		}
		violations := "none"
		if len(run.violations) > 0 {
			violations = strings.Join(run.violations, "; ")
		}
		names := (chaos.Schedule{Faults: sched.faults}).FaultNames()
		if sched.crash {
			if names == "none" {
				names = "crash"
			} else {
				names = "crash+" + names
			}
		}
		result.Rows = append(result.Rows, []string{
			sched.name,
			names,
			itoa(run.delivered), itoa(run.dropped), itoa(run.duplicated),
			itoa(int(run.retries)), itoa(int(run.breakerOpens)),
			itoa(run.breakGlassUses), itoa(run.deactivated), itoa(run.recoveries),
			violations,
		})
		if run.faultNotes != "" {
			result.Notes = append(result.Notes, sched.name+": "+run.faultNotes)
		}
	}
	result.Notes = append(result.Notes,
		"invariants per schedule: no guarded strike executed, no good-to-bad transition, every break-glass",
		"use audited, rogue deactivated and no active bad device, hot candidate refused, rogue policy rejected,",
		"audit chain verifies — the paper's Section VI/VII guarantees hold under every fault schedule")
	return result, nil
}

func runE12Schedule(sched e12Schedule, p E12Params, seed int64) (e12Run, error) {
	clock := sim.NewClock(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	metrics := telemetry.NewRegistry()
	bus := network.NewBus(rand.New(rand.NewSource(seed)),
		network.WithEngine(engine), network.WithMetrics(metrics))
	log := audit.New()

	schema := statespace.MustSchema(
		statespace.Var("heat", 0, 100),
		statespace.Var("fuel", 0, 100),
	)
	classifier := statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
		if st.MustGet("heat") >= 80 || st.MustGet("fuel") <= 5 {
			return statespace.ClassBad
		}
		return statespace.ClassGood
	})

	admission := &guard.AdmissionController{
		Assessor: &guard.AggregateAssessor{Rules: []guard.AggregateRule{
			{Name: "max-heat", Variable: "heat", Kind: guard.AggregateMax, Limit: 95},
		}},
		HitRate: 1,
		Log:     log,
	}
	collective, err := core.New(core.Config{
		Name:       "chaos-" + sched.name,
		Audit:      log,
		Bus:        bus,
		KillSecret: []byte("chaos-quorum"),
		Classifier: classifier,
		Admission:  admission,
	})
	if err != nil {
		return e12Run{}, err
	}

	// One shared break-glass budget: the only sanctioned escape is a
	// risk-reducing bad-to-bad transition (the edge drone cooling from
	// heat 95 through 80).
	breakGlass := &guard.BreakGlass{
		Risk:    risk.AssessorFunc(func(st statespace.State) float64 { return st.MustGet("heat") / 100 }),
		MaxUses: 4,
	}
	mkGuard := func() guard.Guard {
		return core.StandardPipeline(core.SafetyConfig{
			Audit:      log,
			Classifier: classifier,
			BreakGlass: breakGlass,
			HarmPredictor: guard.HarmPredictorFunc(func(ctx guard.ActionContext) float64 {
				if ctx.Action.Name == "strike" {
					return 1
				}
				return 0
			}),
			HarmThreshold: 0.5,
		})
	}

	const droneSource = `
policy work priority 5: on tick when heat < 60 do run effect heat += 7 effect fuel -= 1
policy relief priority 4: on tick when heat >= 60 do run effect heat -= 15
policy tempt priority 3: on tick when heat >= 50 do run effect heat += 40
policy lash priority 2: on provoke do strike category kinetic-action`
	strikes := 0
	equip := func(d *device.Device) error {
		if err := d.RegisterActuator("strike", device.ActuatorFunc{
			Label: "weapon",
			Fn:    func(policy.Action) error { strikes++; return nil },
		}); err != nil {
			return err
		}
		d.SetDefaultActuator(device.NopActuator{})
		return nil
	}

	var roster []string
	for i := 0; i < p.Fleet; i++ {
		id := fmt.Sprintf("drone-%d", i)
		heat := float64(20 + 2*i)
		if i == p.Fleet-1 {
			heat = 95 // the edge drone starts in a bad state and must break glass out
		}
		initial, err := schema.StateFromMap(map[string]float64{"heat": heat, "fuel": 100})
		if err != nil {
			return e12Run{}, err
		}
		d, err := device.New(device.Config{
			ID: id, Type: "drone", Organization: "us",
			Initial:    initial,
			Guard:      mkGuard(),
			KillSwitch: collective.KillSwitch(),
			Audit:      log,
		})
		if err != nil {
			return e12Run{}, err
		}
		if err := e12Install(d, droneSource); err != nil {
			return e12Run{}, err
		}
		if err := equip(d); err != nil {
			return e12Run{}, err
		}
		if err := collective.AddDevice(d, nil); err != nil {
			return e12Run{}, err
		}
		roster = append(roster, id)
	}

	// The rogue has no guard; its policy burns fuel into a bad state,
	// and the watchdog must deactivate it.
	rogueInitial, err := schema.StateFromMap(map[string]float64{"heat": 20, "fuel": 100})
	if err != nil {
		return e12Run{}, err
	}
	rogue, err := device.New(device.Config{
		ID: "rogue", Type: "drone", Organization: "us",
		Initial:    rogueInitial,
		KillSwitch: collective.KillSwitch(),
		Audit:      log,
	})
	if err != nil {
		return e12Run{}, err
	}
	if err := e12Install(rogue, "policy rampage: on tick do run effect fuel -= 20"); err != nil {
		return e12Run{}, err
	}
	rogue.SetDefaultActuator(device.NopActuator{})
	if err := collective.AddDevice(rogue, nil); err != nil {
		return e12Run{}, err
	}
	roster = append(roster, "rogue")

	orch, err := core.NewOrchestrator(collective, engine)
	if err != nil {
		return e12Run{}, err
	}
	manage := func(id string) error { return orch.Manage(id, 3*time.Second, classifier, nil) }
	for i := 0; i < p.Fleet; i++ {
		if err := manage(fmt.Sprintf("drone-%d", i)); err != nil {
			return e12Run{}, err
		}
	}

	// Commands flow human → bus with the full resilience stack: retry
	// with backoff on drops, a breaker per device, a per-delivery
	// deadline. Sleeps are virtual no-ops — the event engine owns time.
	sender := &network.ReliableSender{
		Bus: bus,
		Retry: resilience.Retry{
			MaxAttempts: 4,
			Sleep:       func(time.Duration) {},
			Rand:        rand.New(rand.NewSource(seed + 1)).Float64,
		},
		Breakers: &resilience.BreakerSet{Threshold: 3, Cooldown: 10 * time.Second, Now: clock.Now},
		Metrics:  metrics,
	}
	dispatcher := &core.Dispatcher{
		Collective: collective,
		Sender:     sender,
		Roster:     roster,
		Deadline:   resilience.Deadline{Budget: time.Second, Now: clock.Now},
		Metrics:    metrics,
	}
	orch.CommandEvery(time.Second, nil, dispatcher, func() policy.Event {
		return policy.Event{Type: "tick", Source: "human", Time: clock.Now()}
	})
	orch.SweepEvery(5*time.Second, nil)

	// Checkpoints every 5 virtual seconds feed crash recovery.
	engine.ScheduleEvery(5*time.Second, nil, func() {
		for _, d := range collective.Devices() {
			if !d.Deactivated() {
				_, _ = resilience.Checkpoint(log, d)
			}
		}
	})

	// Provocations: every guarded drone is asked to strike; the
	// pre-action check must deny all of them.
	for _, at := range []time.Duration{15 * time.Second, 45 * time.Second} {
		engine.Schedule(at, func() {
			dispatcher.Command(policy.Event{Type: "provoke", Source: "adversary", Time: clock.Now()})
		})
	}

	// Collection-formation probe: a heat-97 candidate must be refused.
	admissionRefused := false
	engine.Schedule(30*time.Second, func() {
		hot, err := schema.StateFromMap(map[string]float64{"heat": 97, "fuel": 100})
		if err != nil {
			return
		}
		cand, err := device.New(device.Config{
			ID: "hot-candidate", Type: "drone", Initial: hot,
			KillSwitch: collective.KillSwitch(), Audit: log,
		})
		if err != nil {
			return
		}
		admissionRefused = errors.Is(collective.AddDevice(cand, nil), core.ErrAdmissionRefused)
	})

	// Oversight probe: a priority-100 unbounded-effect policy must be
	// rejected by the tripartite review.
	oversightApproved := true
	tripartite := &guard.Tripartite{
		Executive:   &guard.ScopeReviewer{Label: "executive", Rules: []guard.ScopeRule{guard.PriorityCap{Max: 50}}},
		Legislative: &guard.ScopeReviewer{Label: "legislative", Rules: []guard.ScopeRule{guard.MaxEffectMagnitude{Limit: 50}}},
		Judiciary: guard.ReviewerFunc{Label: "judiciary",
			Fn: func(policy.Policy) (bool, string) { return true, "no constitutional objection" }},
		Log: log,
	}
	engine.Schedule(35*time.Second, func() {
		oversightApproved, _ = tripartite.Approve(policy.Policy{
			ID: "rogue-override", EventType: policy.WildcardEvent, Priority: 100,
			Modality: policy.ModalityDo,
			Action:   policy.Action{Name: "run", Effect: statespace.Delta{"heat": 100}},
		})
	})

	// Crash/restart: the device vanishes mid-flight and is later
	// rebuilt from its latest audit-journal checkpoint.
	recoveries := 0
	const crashID = "drone-3"
	faults := sched.faults
	if sched.crash {
		faults = append([]chaos.Fault{chaos.CrashRestart{
			DeviceID:     crashID,
			At:           20 * time.Second,
			RestartAfter: 30 * time.Second,
			Crash:        func(id string) { collective.RemoveDevice(id) },
			Restart: func(id string) error {
				d, err := resilience.Recover(log, id, device.Config{
					Type: "drone", Organization: "us",
					Guard:      mkGuard(),
					KillSwitch: collective.KillSwitch(),
					Audit:      log,
				})
				if err != nil {
					return err
				}
				if err := equip(d); err != nil {
					return err
				}
				if err := collective.AddDevice(d, nil); err != nil {
					return err
				}
				recoveries++
				return manage(id)
			},
		}}, faults...)
	}
	injector := &chaos.Injector{
		Engine: engine, Bus: bus, Metrics: metrics,
		Rand: rand.New(rand.NewSource(seed + 2)),
	}
	(chaos.Schedule{Name: sched.name, Faults: faults}).Apply(injector)

	if err := orch.Run(clock.Now().Add(p.Horizon)); err != nil {
		return e12Run{}, err
	}

	run := e12Run{
		retries:        metrics.CounterTotal("resilience.retries"),
		breakerOpens:   sender.Breakers.Opens(),
		breakGlassUses: breakGlass.Uses(),
		recoveries:     recoveries,
		faultNotes:     e12FaultNotes(metrics),
	}
	run.delivered, run.dropped = bus.Stats()
	run.duplicated = bus.Duplicated()

	// The six guard invariants, plus journal integrity.
	fail := func(format string, args ...any) {
		run.violations = append(run.violations, fmt.Sprintf(format, args...))
	}
	if strikes > 0 {
		fail("pre-action: %d strikes executed", strikes)
	}
	for _, d := range collective.Devices() {
		if d.ID() == "rogue" {
			if !d.Deactivated() {
				fail("deactivation: rogue still active")
			}
			continue
		}
		traj := d.Trajectory()
		for i := 1; i < len(traj); i++ {
			if classifier.Classify(traj[i-1]) != statespace.ClassBad &&
				classifier.Classify(traj[i]) == statespace.ClassBad {
				fail("containment: %s moved good→bad (%s→%s)", d.ID(), traj[i-1], traj[i])
			}
		}
		if !d.Deactivated() && classifier.Classify(d.CurrentState()) == statespace.ClassBad {
			fail("deactivation: %s active in bad state %s", d.ID(), d.CurrentState())
		}
		run.deactivated += boolToInt(d.Deactivated())
	}
	if _, present := collective.Device("rogue"); !present {
		fail("deactivation: rogue missing from collective")
	} else {
		run.deactivated++
	}
	if uses := breakGlass.Uses(); uses < 1 {
		fail("break-glass: edge drone never escaped its bad state")
	} else if audited := len(log.ByKind(audit.KindBreakGlass)); audited != uses {
		fail("break-glass: %d uses but %d audit entries", uses, audited)
	}
	if !admissionRefused {
		fail("collection: hot candidate was admitted")
	}
	if oversightApproved {
		fail("oversight: rogue policy approved")
	}
	if sched.crash {
		if recoveries != 1 {
			fail("recovery: %d recoveries, want 1", recoveries)
		}
		if d, ok := collective.Device(crashID); !ok || d.Deactivated() {
			fail("recovery: %s not active after restart", crashID)
		}
	}
	if err := log.Verify(); err != nil {
		fail("audit: %v", err)
	}
	return run, nil
}

// e12FaultNotes summarizes the observable fault model: chaos
// injections/heals and the bus's per-cause drop counters.
func e12FaultNotes(reg *telemetry.Registry) string {
	var parts []string
	for _, s := range reg.Snapshot() {
		if s.Kind == telemetry.KindCounter && (strings.HasPrefix(s.Name, "chaos.") || s.Name == "bus.dropped") {
			parts = append(parts, fmt.Sprintf("%s%s=%d", s.Name, s.LabelString(), int64(s.Value)))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// e12Install compiles DSL source and adds the policies to the device.
func e12Install(d *device.Device, src string) error {
	policies, err := policylang.CompileSource(src, policy.OriginHuman)
	if err != nil {
		return err
	}
	for _, p := range policies {
		if err := d.Policies().Add(p); err != nil {
			return err
		}
	}
	return nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
