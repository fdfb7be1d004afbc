package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// fleet-tick is E18's overheating fleet on the discrete-event engine:
// every device runs its MAPE loop once per virtual second, `cool` runs
// and `vent` is denied by the pre-action guard. It has a Registry but
// no Tracer: traced audit entries carry span IDs drawn in worker order,
// so a traced fleet at two workers journals differently run to run.
const (
	fleetWorkers = 2
	fleetPeriod  = time.Second
)

type fleetWorld struct {
	orch       *core.Orchestrator
	log        *audit.Log
	reg        *telemetry.Registry
	devices    []*device.Device
	classifier statespace.Classifier
	periods    int
	// start is the virtual time the timed periods count from; the
	// first period, which compiles every snapshot, is set-up.
	start time.Time

	sense, classify, safeness, guard, actuate *timer

	logBefore    int
	eventsBefore int64
}

func buildFleet(e env) (world, error) {
	n := e.size.fleetDevices
	rng := rand.New(rand.NewSource(e.seed))
	clock := sim.NewClock(time.Date(2026, 8, 3, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(fleetWorkers)
	w := &fleetWorld{
		log:     audit.New(audit.WithClock(clock.Now)),
		reg:     telemetry.NewRegistry(),
		periods: e.size.fleetPeriods,
	}

	schema := statespace.MustSchema(statespace.Var("heat", 0, 100))
	w.classifier = statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
		if st.MustGet("heat") >= 80 {
			return statespace.ClassBad
		}
		return statespace.ClassGood
	})
	var safeness statespace.SafenessMetric = statespace.SafenessFunc(func(st statespace.State) float64 {
		return (100 - st.MustGet("heat")) / 100
	})
	classifier := w.classifier
	if e.traced {
		w.sense, w.classify, w.safeness, w.guard, w.actuate = new(timer), new(timer), new(timer), new(timer), new(timer)
		classifier = timedClassifier{inner: classifier, t: w.classify}
		safeness = timedSafeness{inner: safeness, t: w.safeness}
	}

	collective, err := core.New(core.Config{
		Name:            "bench-fleet",
		Audit:           w.log,
		KillSecret:      []byte("bench-fleet"),
		ExpectedMembers: n,
		Telemetry:       w.reg,
	})
	if err != nil {
		return nil, err
	}
	policies, err := policylang.CompileSource(`
policy cool priority 5: on self-state-alert do cool effect heat -= 55
policy vent priority 4: on self-state-alert do vent category kinetic-action`, policy.OriginHuman)
	if err != nil {
		return nil, err
	}
	if w.orch, err = core.NewOrchestrator(collective, engine); err != nil {
		return nil, err
	}
	harm := guard.HarmPredictorFunc(func(ctx guard.ActionContext) float64 {
		if ctx.Action.Name == "vent" {
			return 1
		}
		return 0
	})
	arena := statespace.NewArena(2 * n * schema.Len())
	profile := policy.DeviceProfile("reactor", "us")
	initValues := make(map[string]float64, 1)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dev-%06d", i)
		heat := 20 + float64(rng.Intn(41))
		rate := 9 + float64(rng.Intn(7))
		initValues["heat"] = heat
		initial, err := schema.StateFromMap(initValues)
		if err != nil {
			return nil, err
		}
		g := core.StandardPipeline(core.SafetyConfig{
			Audit:         w.log,
			Classifier:    w.classifier,
			HarmPredictor: harm,
			HarmThreshold: 0.5,
			Telemetry:     w.reg,
		})
		h := heat
		var sensor device.Sensor = device.SensorFunc{Label: "thermo", Fn: func() (float64, error) {
			h += rate
			if h > 95 {
				h = 95
			}
			return h, nil
		}}
		var chiller device.Actuator = device.ActuatorFunc{Label: "chiller", Fn: func(policy.Action) error {
			h -= 55
			if h < 15 {
				h = 15
			}
			return nil
		}}
		if e.traced {
			g = timedGuard{inner: g, t: w.guard}
			sensor = timedSensor{inner: sensor, t: w.sense}
			chiller = wrapActuator(chiller, w.actuate)
		}
		d, err := device.New(device.Config{
			ID: id, Type: "reactor", Organization: "us",
			Static:          profile,
			Initial:         initial,
			Guard:           g,
			KillSwitch:      collective.KillSwitch(),
			Audit:           w.log,
			TrajectoryBound: 8,
			Arena:           arena,
			Telemetry:       w.reg,
		})
		if err != nil {
			return nil, err
		}
		if err := d.Policies().AddBatch(policies); err != nil {
			return nil, err
		}
		if err := d.BindSensor("heat", sensor); err != nil {
			return nil, err
		}
		if err := d.RegisterActuator("cool", chiller); err != nil {
			return nil, err
		}
		d.SetDefaultActuator(device.NopActuator{})
		if err := collective.AddDevice(d, nil); err != nil {
			return nil, err
		}
		if err := w.orch.Manage(id, fleetPeriod, classifier, safeness); err != nil {
			return nil, err
		}
		w.devices = append(w.devices, d)
	}

	w.start = clock.Now().Add(fleetPeriod)
	if err := w.orch.Run(w.start); err != nil {
		return nil, err
	}
	w.logBefore = w.log.Len()
	w.eventsBefore = w.reg.CounterTotal("device.events")
	if e.traced {
		for _, t := range []*timer{w.sense, w.classify, w.safeness, w.guard, w.actuate} {
			t.reset()
		}
	}
	return w, nil
}

func (w *fleetWorld) run() (phase, error) {
	var p phase
	for k := 1; k <= w.periods; k++ {
		start := time.Now()
		if err := w.orch.Run(w.start.Add(time.Duration(k) * fleetPeriod)); err != nil {
			return p, err
		}
		step := time.Since(start)
		p.wall += step
		p.lat = append(p.lat, sample{ms: ms(step), n: 1})
		p.windows = append(p.windows, window{ops: int64(len(w.devices)), wall: step})
	}
	p.ops = int64(len(w.devices) * w.periods)
	p.attempted = p.ops
	p.failed = int64(w.badDevices())
	return p, nil
}

// badDevices counts the devices whose current state is bad.
func (w *fleetWorld) badDevices() int {
	bad := 0
	for _, d := range w.devices {
		if w.classifier.Classify(d.CurrentState()) == statespace.ClassBad {
			bad++
		}
	}
	return bad
}

func (w *fleetWorld) check(c *checks) {
	c.expect(w.log.Verify() == nil, "journal does not verify")
	actions := w.log.CountKind(audit.KindAction)
	denials := w.log.CountKind(audit.KindDenial)
	c.expect(actions > 0 && actions == denials, "%d cool actions and %d vent denials, want equal and positive", actions, denials)
	c.expect(w.badDevices() == 0, "%d devices ended in a bad state", w.badDevices())
	tip := tipOf(w.log)
	c.fingerprint = fmt.Sprintf("%d entries, tip %s", w.log.Len(), tip)
	c.note("journal: %d entries, %d actions, %d denials, tip %s", w.log.Len(), actions, denials, tip)
}

func (w *fleetWorld) layers(p phase) (layerValues, error) {
	ops := float64(p.ops)
	m := layerValues{}
	var busy time.Duration
	for name, t := range map[string]*timer{
		"device.sense_us":        w.sense,
		"statespace.classify_us": w.classify,
		"statespace.safeness_us": w.safeness,
		"guard.check_us":         w.guard,
		"device.actuate_us":      w.actuate,
	} {
		s := t.read()
		m[name] = s.meanUS()
		busy += s.busy()
	}
	g := w.guard.read()
	m["guard.checks_per_op"] = ratio(float64(g.calls), ops)
	m["guard.denials_per_op"] = ratio(float64(g.hits), ops)

	d := w.devices[0]
	alert := policy.Event{Type: device.DefaultRepairEvent, Source: d.ID(),
		Attrs: map[string]float64{"class": float64(statespace.ClassBad), "safeness": 0.1}}
	var err error
	if m["policy.evaluate_us"], err = replayEvaluate(d, alert, 20000); err != nil {
		return nil, err
	}
	alerts := w.reg.CounterTotal("device.events") - w.eventsBefore

	entries := w.log.Entries()
	appended := len(entries) - w.logBefore
	m["audit.append_us"] = replayAppend(entries[w.logBefore:], len(entries))
	m["audit.entries_per_op"] = ratio(float64(appended), ops)
	m["telemetry.series"] = float64(len(w.reg.Snapshot()))

	// The wrappers, the evaluations and the journal appends do not
	// overlap; everything else the engine does — scheduling, lane
	// merges, device locking, counters — is unexplained.
	busyUS := us(busy) + m["policy.evaluate_us"]*float64(alerts) + m["audit.append_us"]*float64(appended)
	m["unexplained_share"] = 1 - busyUS/(us(p.wall)*fleetWorkers)
	return m, nil
}

func (w *fleetWorld) close() {}
