package core

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

func TestOrchestratorValidation(t *testing.T) {
	c := newCollective(t)
	engine := sim.NewEngine(sim.NewClock(time.Time{}))
	if _, err := NewOrchestrator(nil, engine); err == nil {
		t.Error("nil collective accepted")
	}
	if _, err := NewOrchestrator(c, nil); err == nil {
		t.Error("nil engine accepted")
	}
	o, err := NewOrchestrator(c, engine)
	if err != nil {
		t.Fatalf("NewOrchestrator: %v", err)
	}
	if err := o.Manage("ghost", time.Second, heatClassifier(), nil); err == nil {
		t.Error("unknown device accepted")
	}
}

// TestOrchestratorAutonomicRepair drives a device whose heat sensor
// climbs into the bad region; its MAPE loop raises a repair alert and
// the repair policy cools it down — all on the virtual clock.
func TestOrchestratorAutonomicRepair(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	clock := sim.NewClock(start)
	engine := sim.NewEngine(clock)
	c := newCollective(t)

	d := newMember(t, c, "worker", 10)
	heat := 10.0
	if err := d.BindSensor("heat", device.SensorFunc{Label: "thermo", Fn: func() (float64, error) {
		heat += 12 // the environment keeps heating the device
		return heat, nil
	}}); err != nil {
		t.Fatalf("BindSensor: %v", err)
	}
	if err := d.Policies().Add(policy.Policy{
		ID: "cool", EventType: device.DefaultRepairEvent, Modality: policy.ModalityDo,
		Action: policy.Action{Name: "cool", Effect: statespace.Delta{"heat": -60}},
	}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := d.RegisterActuator("cool", device.ActuatorFunc{Label: "fan", Fn: func(policy.Action) error {
		heat -= 60 // the fan actually cools the physical device
		if heat < 0 {
			heat = 0
		}
		return nil
	}}); err != nil {
		t.Fatalf("RegisterActuator: %v", err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}

	o, err := NewOrchestrator(c, engine)
	if err != nil {
		t.Fatalf("NewOrchestrator: %v", err)
	}
	if err := o.Manage("worker", time.Second, heatClassifier(), nil); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	if err := o.Manage("worker", time.Second, heatClassifier(), nil); err == nil {
		t.Error("duplicate management accepted")
	}
	if err := o.Manage("worker2", 0, heatClassifier(), nil); err == nil {
		t.Error("zero period accepted")
	}
	o.SweepEvery(5*time.Second, nil)

	if err := o.Run(start.Add(30 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The device self-repairs: it must still be active (never stuck in
	// the bad region long enough for the watchdog to kill it between
	// repairs is not guaranteed — but with a repair each tick and a
	// 5-tick sweep, it recovers first).
	if d.Deactivated() {
		t.Fatalf("self-repairing device was deactivated; heat=%g state=%v", heat, d.CurrentState())
	}
	// The trajectory must show repeated cooling actions.
	traj := d.Trajectory()
	if len(traj) < 3 {
		t.Errorf("trajectory too short: %d", len(traj))
	}
	if !clock.Now().After(start) {
		t.Error("virtual clock did not advance")
	}
}

// TestOrchestratorWatchdogKillsUnrepairable shows the other path: a
// device without a repair policy stays bad and the sweep removes it.
func TestOrchestratorWatchdogKillsUnrepairable(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	engine := sim.NewEngine(sim.NewClock(start))
	c := newCollective(t)

	d := newMember(t, c, "stuck", 10)
	if err := d.BindSensor("heat", device.SensorFunc{Label: "thermo", Fn: func() (float64, error) {
		return 95, nil
	}}); err != nil {
		t.Fatalf("BindSensor: %v", err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}

	o, err := NewOrchestrator(c, engine)
	if err != nil {
		t.Fatalf("NewOrchestrator: %v", err)
	}
	if err := o.Manage("stuck", time.Second, heatClassifier(), nil); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	o.SweepEvery(3*time.Second, nil)
	if err := o.Run(start.Add(10 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !d.Deactivated() {
		t.Error("unrepairable bad-state device survived the sweeps")
	}
}

// TestOrchestratorInstrumentsEngine checks that an orchestrator over a
// collective with a Registry has the engine record its segment series
// there: one observation per period of a parallel fleet tick.
func TestOrchestratorInstrumentsEngine(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	engine := sim.NewEngine(sim.NewClock(start))
	engine.SetParallelism(2)
	reg := telemetry.NewRegistry()
	c := newCollective(t, func(cfg *Config) { cfg.Telemetry = reg })
	o, err := NewOrchestrator(c, engine)
	if err != nil {
		t.Fatalf("NewOrchestrator: %v", err)
	}
	for _, id := range []string{"w1", "w2", "w3"} {
		if err := c.AddDevice(newMember(t, c, id, 10), nil); err != nil {
			t.Fatalf("AddDevice: %v", err)
		}
		if err := o.Manage(id, time.Second, heatClassifier(), nil); err != nil {
			t.Fatalf("Manage: %v", err)
		}
	}
	if err := o.Run(start.Add(3 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := reg.Histogram("engine.segment_events").Count(); got != 3 {
		t.Errorf("engine.segment_events observations = %d, want 3", got)
	}
	if got := reg.Histogram("engine.segment_ms", "phase", "merge").Count(); got != 3 {
		t.Errorf("engine.segment_ms{phase=merge} observations = %d, want 3", got)
	}
}
