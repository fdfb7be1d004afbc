package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// instrumentedFleetSeries builds n guarded, instrumented devices of
// two types in two orgs, runs their MAPE loops for a few ticks at two
// workers, and returns the registry's series count.
func instrumentedFleetSeries(t *testing.T, n int) int {
	t.Helper()
	reg := telemetry.NewRegistry()
	log := audit.New()
	c := newCollective(t, func(cfg *Config) {
		cfg.Audit = log
		cfg.Telemetry = reg
	})
	engine := sim.NewEngine(sim.NewClock(time.Time{}))
	engine.SetParallelism(2)
	orch, err := NewOrchestrator(c, engine)
	if err != nil {
		t.Fatal(err)
	}
	policies := []policy.Policy{
		{ID: "cool", EventType: device.DefaultRepairEvent, Modality: policy.ModalityDo, Priority: 5,
			Action: policy.Action{Name: "cool", Effect: statespace.Delta{"heat": -50}}},
		{ID: "vent", EventType: device.DefaultRepairEvent, Modality: policy.ModalityDo, Priority: 4,
			Action: policy.Action{Name: "vent"}},
	}
	s := coreSchema(t)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dev-%04d", i)
		heat := 40 + float64(i%30)
		initial, err := s.StateFromMap(map[string]float64{"heat": heat, "fuel": 50})
		if err != nil {
			t.Fatal(err)
		}
		d, err := device.New(device.Config{
			ID:           id,
			Type:         []string{"reactor", "drone"}[i%2],
			Organization: []string{"us", "uk"}[(i/2)%2],
			Initial:      initial,
			KillSwitch:   c.KillSwitch(),
			Audit:        log,
			Telemetry:    reg,
			Guard: StandardPipeline(SafetyConfig{
				Audit:      log,
				Classifier: heatClassifier(),
				HarmPredictor: guard.HarmPredictorFunc(func(ctx guard.ActionContext) float64 {
					if ctx.Action.Name == "vent" {
						return 1
					}
					return 0
				}),
				HarmThreshold: 0.5,
				Telemetry:     reg,
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Policies().AddBatch(policies); err != nil {
			t.Fatal(err)
		}
		if err := d.BindSensor("heat", device.SensorFunc{Label: "thermo", Fn: func() (float64, error) {
			heat += 15
			return heat, nil
		}}); err != nil {
			t.Fatal(err)
		}
		if err := d.RegisterActuator("cool", device.ActuatorFunc{Label: "fan", Fn: func(policy.Action) error {
			heat -= 50
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		if err := c.AddDevice(d, nil); err != nil {
			t.Fatal(err)
		}
		if err := orch.Manage(id, time.Second, heatClassifier(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := orch.Run(time.Time{}.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if reg.CounterTotal("device.events") == 0 || reg.CounterTotal("guard.decisions") == 0 {
		t.Fatal("the fleet handled no events: the ticks never reached the policy and guard planes")
	}
	samples := reg.Snapshot()
	if err := telemetry.CheckSamples(samples); err != nil {
		t.Error(err)
	}
	return len(samples)
}

// TestSeriesIndependentOfFleetSize: a fleet and one ten times its size
// register the same series. Labels are bounded by device types × orgs,
// so the cost of leaving telemetry on does not grow with the fleet.
func TestSeriesIndependentOfFleetSize(t *testing.T) {
	small, large := instrumentedFleetSeries(t, 20), instrumentedFleetSeries(t, 200)
	if small != large {
		t.Errorf("series: %d devices register %d, 200 register %d", 20, small, large)
	}
}
