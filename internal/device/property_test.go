package device_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/statespace"
)

// TestPropertyScratchJournalPinned drives one self-managing reactor
// through 1000 randomized MAPE ticks per seed and pins what the run
// produces: the audit journal's length and tip hash (the hash chain
// binds every field of every entry, guard verdicts included), the final
// state, and a digest of every per-tick report, state and the retained
// trajectory. The pins were recorded when a boxed
// allocation-per-transition path still existed beside the scratch path
// and both produced exactly these values, so the test holds the
// scratch path to the original State.With / State.Apply semantics. It
// runs under -race via `make test-race`.
func TestPropertyScratchJournalPinned(t *testing.T) {
	pins := []struct {
		seed    int64
		entries int
		tip     string
		final   string
		digest  string
	}{
		{1, 414, "83d7cc33e556c118e84aa48f98c43cb7abf3f7bc337ca05c945aa72f365e3785", "{heat=72.507}",
			"da8caf6f07193bd2b5afd293b0713ff40bb9f74de45f3f294e6b415cf9d8ccce"},
		{2, 414, "9a2b35638de174df3cf440f27e8e71c858458196c877c6942d13231b4fd6ff7b", "{heat=57.4458}",
			"1944b51a9a5ba7edd75bd61beca1fba767b3af23e470024e271ebd6d5c443297"},
		{7, 426, "fe84640fa378e5ebf02d42e37e3e641349865aaa6508caaeddfeb3a2f915d434", "{heat=48.4886}",
			"9892f6be313199cfd841f31a53d109c988efb48db7676e4479e4d01a77a5a753"},
	}
	for _, pin := range pins {
		pin := pin
		t.Run(fmt.Sprintf("seed-%d", pin.seed), func(t *testing.T) {
			now := time.Date(2026, 8, 3, 0, 0, 0, 0, time.UTC)
			rig := newPropertyRig(t, pin.seed, func() time.Time { return now })

			h := sha256.New()
			for i := 0; i < 1000; i++ {
				now = now.Add(time.Second)
				report, err := rig.mgr.TickWith(now, nil)
				fmt.Fprintf(h, "%d %v %v %d %v|", i, report.Class, report.Alerted, len(report.Executions), err)
				for _, e := range report.Executions {
					fmt.Fprintf(h, "%v %s %s;", e.Verdict.Decision, e.Verdict.Guard, e.Verdict.Reason)
				}
				fmt.Fprintf(h, "%s\n", rig.dev.CurrentState())
			}
			for _, st := range rig.dev.Trajectory() {
				fmt.Fprintf(h, "%s\n", st)
			}

			entries := rig.log.Entries()
			if len(entries) != pin.entries || entries[len(entries)-1].Hash != pin.tip {
				t.Errorf("journal %d entries, tip %s; want %d, %s",
					len(entries), entries[len(entries)-1].Hash, pin.entries, pin.tip)
			}
			if got := rig.dev.CurrentState().String(); got != pin.final {
				t.Errorf("final state %s, want %s", got, pin.final)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != pin.digest {
				t.Errorf("report/trajectory digest %s, want %s", got, pin.digest)
			}
		})
	}
}

type propertyRig struct {
	dev *device.Device
	mgr *device.Manager
	log *audit.Log
}

// newPropertyRig builds one self-managing reactor device whose sensor
// performs a seeded random heat walk, so a seed fixes every
// observation and their order.
func newPropertyRig(t *testing.T, seed int64, clock func() time.Time) *propertyRig {
	t.Helper()
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
	log := audit.New(audit.WithClock(clock))

	pipe := guard.NewPipeline(log,
		&guard.PreActionGuard{
			Predictor: guard.HarmPredictorFunc(func(ctx guard.ActionContext) float64 {
				if ctx.Action.Name == "vent" {
					return 1
				}
				return 0
			}),
			Threshold: 0.5,
		},
		&guard.StateSpaceGuard{Classifier: classifier},
	)

	initial, err := schema.StateFromMap(map[string]float64{"heat": 30})
	if err != nil {
		t.Fatalf("initial state: %v", err)
	}
	d, err := device.New(device.Config{
		ID: "prop-reactor", Type: "reactor", Organization: "us",
		Initial:         initial,
		Guard:           pipe,
		Audit:           log,
		TrajectoryBound: 8,
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}

	const source = `
policy cool priority 5: on self-state-alert do cool effect heat -= 40
policy vent priority 4: on self-state-alert do vent category kinetic-action`
	policies, err := policylang.CompileSource(source, policy.OriginHuman)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, pol := range policies {
		if err := d.Policies().Add(pol); err != nil {
			t.Fatalf("add policy: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	heat := 30.0
	if err := d.BindSensor("heat", device.SensorFunc{Label: "thermo", Fn: func() (float64, error) {
		heat += rng.Float64()*26 - 6 // upward-drifting random walk
		if rng.Intn(17) == 0 {
			heat += 25 // occasional spike straight into the bad region
		}
		if heat > 98 {
			heat = 98
		}
		if heat < 5 {
			heat = 5
		}
		return heat, nil
	}}); err != nil {
		t.Fatalf("bind sensor: %v", err)
	}
	if err := d.RegisterActuator("cool", device.ActuatorFunc{Label: "chiller",
		Fn: func(policy.Action) error {
			heat -= 40
			if heat < 5 {
				heat = 5
			}
			return nil
		}}); err != nil {
		t.Fatalf("register actuator: %v", err)
	}
	d.SetDefaultActuator(device.NopActuator{})

	return &propertyRig{
		dev: d,
		mgr: &device.Manager{Device: d, Classifier: classifier, Metric: safeness},
		log: log,
	}
}
