package device

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/statespace"
)

func devSchema(t *testing.T) *statespace.Schema {
	t.Helper()
	s, err := statespace.NewSchema(
		statespace.Var("fuel", 0, 100),
		statespace.Var("heat", 0, 100),
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func newDevice(t *testing.T, opts ...func(*Config)) *Device {
	t.Helper()
	s := devSchema(t)
	initial, err := s.StateFromMap(map[string]float64{"fuel": 50})
	if err != nil {
		t.Fatalf("StateFromMap: %v", err)
	}
	cfg := Config{ID: "dev-1", Type: "drone", Organization: "us", Initial: initial}
	for _, o := range opts {
		o(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func movePolicy(t *testing.T, d *Device) {
	t.Helper()
	err := d.Policies().Add(policy.Policy{
		ID: "move", EventType: "tick", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "move", Effect: statespace.Delta{"fuel": -10}},
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	s := devSchema(t)
	if _, err := New(Config{Initial: s.Origin()}); err == nil {
		t.Error("missing ID accepted")
	}
	if _, err := New(Config{ID: "x"}); err == nil {
		t.Error("missing initial state accepted")
	}
	d := newDevice(t)
	if d.ID() != "dev-1" || d.Type() != "drone" || d.Organization() != "us" {
		t.Error("accessors wrong")
	}
	if got := d.Trajectory(); len(got) != 1 {
		t.Errorf("initial trajectory = %v", got)
	}
}

func TestHandleEventExecutesAndAppliesEffect(t *testing.T) {
	d := newDevice(t)
	movePolicy(t, d)
	invoked := 0
	if err := d.RegisterActuator("move", ActuatorFunc{Label: "motor", Fn: func(policy.Action) error {
		invoked++
		return nil
	}}); err != nil {
		t.Fatalf("RegisterActuator: %v", err)
	}

	execs, err := d.HandleEvent(policy.Event{Type: "tick"})
	if err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if len(execs) != 1 || !execs[0].Executed() {
		t.Fatalf("execs = %+v", execs)
	}
	if invoked != 1 {
		t.Errorf("actuator invoked %d times", invoked)
	}
	if got := d.CurrentState().MustGet("fuel"); got != 40 {
		t.Errorf("fuel = %g, want 40", got)
	}
	if got := d.Trajectory(); len(got) != 2 {
		t.Errorf("trajectory length = %d", len(got))
	}
}

func TestHandleEventUnmatchedEvent(t *testing.T) {
	d := newDevice(t)
	movePolicy(t, d)
	execs, err := d.HandleEvent(policy.Event{Type: "unrelated"})
	if err != nil || len(execs) != 0 {
		t.Errorf("execs = %v, err = %v", execs, err)
	}
}

func TestGuardDenialBlocksActuation(t *testing.T) {
	denied := 0
	d := newDevice(t, func(c *Config) {
		c.Guard = guardDenyAll{}
	})
	movePolicy(t, d)
	if err := d.RegisterActuator("move", ActuatorFunc{Label: "motor", Fn: func(policy.Action) error {
		denied++
		return nil
	}}); err != nil {
		t.Fatalf("RegisterActuator: %v", err)
	}
	execs, err := d.HandleEvent(policy.Event{Type: "tick"})
	if err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if execs[0].Executed() || denied != 0 {
		t.Error("denied action was actuated")
	}
	if got := d.CurrentState().MustGet("fuel"); got != 50 {
		t.Errorf("state changed despite denial: fuel = %g", got)
	}
}

type guardDenyAll struct{}

func (guardDenyAll) Name() string { return "deny-all" }
func (guardDenyAll) Check(guard.ActionContext) guard.Verdict {
	return guard.Verdict{Decision: guard.DecisionDeny, Guard: "deny-all", Reason: "always"}
}

func TestActuatorErrorDoesNotChangeState(t *testing.T) {
	d := newDevice(t)
	movePolicy(t, d)
	boom := errors.New("jam")
	if err := d.RegisterActuator("move", ActuatorFunc{Label: "motor", Fn: func(policy.Action) error {
		return boom
	}}); err != nil {
		t.Fatalf("RegisterActuator: %v", err)
	}
	execs, err := d.HandleEvent(policy.Event{Type: "tick"})
	if err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if execs[0].Executed() || !errors.Is(execs[0].Err, boom) {
		t.Errorf("exec = %+v", execs[0])
	}
	if got := d.CurrentState().MustGet("fuel"); got != 50 {
		t.Errorf("state changed despite actuator failure: fuel = %g", got)
	}
}

func TestDefaultActuatorUsedWhenUnrouted(t *testing.T) {
	d := newDevice(t)
	movePolicy(t, d)
	hits := 0
	d.SetDefaultActuator(ActuatorFunc{Label: "default", Fn: func(policy.Action) error {
		hits++
		return nil
	}})
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if hits != 1 {
		t.Errorf("default actuator hits = %d", hits)
	}
}

func TestObligationsDischarged(t *testing.T) {
	var discharged []string
	d := newDevice(t, func(c *Config) {
		c.Discharger = guard.DischargerFunc(func(ob string, a policy.Action) error {
			discharged = append(discharged, ob)
			return nil
		})
	})
	err := d.Policies().Add(policy.Policy{
		ID: "dig", EventType: "order", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "dig", Obligations: []string{"post-sign", "notify"}},
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	execs, err := d.HandleEvent(policy.Event{Type: "order"})
	if err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if len(execs[0].ObligationErrs) != 0 {
		t.Errorf("ObligationErrs = %v", execs[0].ObligationErrs)
	}
	if len(discharged) != 2 || discharged[0] != "post-sign" {
		t.Errorf("discharged = %v", discharged)
	}
}

func TestObligationsWithoutDischargerReported(t *testing.T) {
	d := newDevice(t)
	err := d.Policies().Add(policy.Policy{
		ID: "dig", EventType: "order", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "dig", Obligations: []string{"post-sign"}},
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	execs, err := d.HandleEvent(policy.Event{Type: "order"})
	if err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if execs[0].ObligationErrs["post-sign"] == nil {
		t.Error("missing discharger not reported")
	}
}

func TestDeactivation(t *testing.T) {
	ks, err := guard.NewKillSwitch([]byte("secret"))
	if err != nil {
		t.Fatalf("NewKillSwitch: %v", err)
	}
	d := newDevice(t, func(c *Config) { c.KillSwitch = ks })

	if err := d.Deactivate("forged-token"); !errors.Is(err, guard.ErrBadKillToken) {
		t.Errorf("forged token error = %v", err)
	}
	if d.Deactivated() {
		t.Fatal("device deactivated by forged token")
	}
	if err := d.Deactivate(ks.TokenFor("dev-1")); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	if !d.Deactivated() {
		t.Fatal("device not deactivated")
	}
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); !errors.Is(err, ErrDeactivated) {
		t.Errorf("HandleEvent on dead device = %v", err)
	}
	if err := d.Sense(); !errors.Is(err, ErrDeactivated) {
		t.Errorf("Sense on dead device = %v", err)
	}
}

func TestDeviceWithoutKillSwitchRefusesDeactivation(t *testing.T) {
	d := newDevice(t)
	if err := d.Deactivate("anything"); !errors.Is(err, guard.ErrBadKillToken) {
		t.Errorf("Deactivate = %v", err)
	}
}

func TestSense(t *testing.T) {
	d := newDevice(t)
	reading := 33.0
	if err := d.BindSensor("heat", SensorFunc{Label: "thermo", Fn: func() (float64, error) {
		return reading, nil
	}}); err != nil {
		t.Fatalf("BindSensor: %v", err)
	}
	if err := d.Sense(); err != nil {
		t.Fatalf("Sense: %v", err)
	}
	if got := d.CurrentState().MustGet("heat"); got != 33 {
		t.Errorf("heat = %g", got)
	}
	if err := d.BindSensor("nope", SensorFunc{Label: "x"}); err == nil {
		t.Error("bound sensor to unknown variable")
	}
	if err := d.BindSensor("heat", nil); err == nil {
		t.Error("bound nil sensor")
	}
}

func TestSensePartialFailure(t *testing.T) {
	d := newDevice(t)
	if err := d.BindSensor("heat", SensorFunc{Label: "broken", Fn: func() (float64, error) {
		return 0, errors.New("dead sensor")
	}}); err != nil {
		t.Fatalf("BindSensor: %v", err)
	}
	if err := d.BindSensor("fuel", SensorFunc{Label: "gauge", Fn: func() (float64, error) {
		return 77, nil
	}}); err != nil {
		t.Fatalf("BindSensor: %v", err)
	}
	err := d.Sense()
	if err == nil {
		t.Fatal("sensor failure not reported")
	}
	if got := d.CurrentState().MustGet("fuel"); got != 77 {
		t.Errorf("healthy sensor not applied: fuel = %g", got)
	}
}

func TestAuditRecordsActions(t *testing.T) {
	log := audit.New()
	d := newDevice(t, func(c *Config) { c.Audit = log })
	movePolicy(t, d)
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	actions := log.ByKind(audit.KindAction)
	if len(actions) != 1 || actions[0].Actor != "dev-1" {
		t.Errorf("action audit = %+v", actions)
	}
}

func TestConcurrentHandleEvent(t *testing.T) {
	d := newDevice(t)
	movePolicy(t, d)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_, _ = d.HandleEvent(policy.Event{Type: "tick"})
			}
		}()
	}
	wg.Wait()
	if got := d.CurrentState().MustGet("fuel"); got != 0 {
		t.Errorf("fuel = %g, want 0 (clamped after 160 moves)", got)
	}
}

func TestSensors(t *testing.T) {
	base := SensorFunc{Label: "thermo", Fn: func() (float64, error) { return 10, nil }}
	noisy := &NoisySensor{Inner: base, Amplitude: 1, Rand: rand.New(rand.NewSource(3))}
	v, err := noisy.Read()
	if err != nil || v < 9 || v > 11 {
		t.Errorf("noisy read = %g, %v", v, err)
	}
	if noisy.Name() != "thermo+noise" {
		t.Errorf("Name = %q", noisy.Name())
	}
	quiet := &NoisySensor{Inner: base}
	if v, _ := quiet.Read(); v != 10 {
		t.Errorf("nil-rand noisy sensor = %g", v)
	}

	active := false
	deceived := &DeceivedSensor{Inner: base, Active: func() bool { return active }, FakeValue: 99}
	if v, _ := deceived.Read(); v != 10 {
		t.Errorf("inactive deception read = %g", v)
	}
	active = true
	if v, _ := deceived.Read(); v != 99 {
		t.Errorf("active deception read = %g", v)
	}
	if deceived.Name() != "thermo" {
		t.Errorf("deceived sensor name = %q (should be indistinguishable)", deceived.Name())
	}

	var broken SensorFunc
	if _, err := broken.Read(); err == nil {
		t.Error("nil sensor function read succeeded")
	}
	var nop NopActuator
	if nop.Name() != "nop" || nop.Invoke(policy.Action{}) != nil {
		t.Error("NopActuator wrong")
	}
	var brokenAct ActuatorFunc
	if brokenAct.Invoke(policy.Action{}) == nil {
		t.Error("nil actuator function succeeded")
	}
}

func TestManagerTickRepairsBadState(t *testing.T) {
	d := newDevice(t)
	// Device heat sensor reads a dangerous value.
	heat := 95.0
	if err := d.BindSensor("heat", SensorFunc{Label: "thermo", Fn: func() (float64, error) {
		return heat, nil
	}}); err != nil {
		t.Fatalf("BindSensor: %v", err)
	}
	// Repair policy: on alert, cool down.
	err := d.Policies().Add(policy.Policy{
		ID: "cool", EventType: DefaultRepairEvent, Modality: policy.ModalityDo,
		Action: policy.Action{Name: "cool", Effect: statespace.Delta{"heat": -50}},
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	m := &Manager{
		Device: d,
		Classifier: statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
			if st.MustGet("heat") >= 80 {
				return statespace.ClassBad
			}
			return statespace.ClassGood
		}),
	}
	report, err := m.Tick(time.Time{})
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if report.Class != statespace.ClassBad || !report.Alerted || len(report.Executions) != 1 {
		t.Fatalf("report = %+v", report)
	}
	if got := d.CurrentState().MustGet("heat"); got != 45 {
		t.Errorf("heat after repair = %g, want 45", got)
	}

	// Next tick: sensor still reads 95, but drop it to something safe.
	heat = 20
	report, err = m.Tick(time.Time{})
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if report.Alerted {
		t.Error("healthy device alerted")
	}
}

func TestManagerDeclineDetection(t *testing.T) {
	d := newDevice(t)
	readings := []float64{40, 50, 60, 70}
	i := 0
	if err := d.BindSensor("heat", SensorFunc{Label: "thermo", Fn: func() (float64, error) {
		v := readings[i%len(readings)]
		i++
		return v, nil
	}}); err != nil {
		t.Fatalf("BindSensor: %v", err)
	}
	// Moving policy so the trajectory records transitions.
	err := d.Policies().Add(policy.Policy{
		ID: "drift", EventType: "tick", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "drift", Effect: statespace.Delta{"fuel": -1}},
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	m := &Manager{
		Device:     d,
		Classifier: statespace.ClassifierFunc(func(statespace.State) statespace.Class { return statespace.ClassGood }),
		Metric: statespace.SafenessFunc(func(st statespace.State) float64 {
			return 1 - st.MustGet("heat")/100
		}),
		DeclineWindow: 2,
	}
	var alerted bool
	for k := 0; k < 4; k++ {
		report, err := m.Tick(time.Time{})
		if err != nil {
			t.Fatalf("Tick: %v", err)
		}
		if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
			t.Fatalf("HandleEvent: %v", err)
		}
		alerted = alerted || report.Alerted
	}
	if !alerted {
		t.Error("monotone safeness decline never alerted")
	}
}

func TestManagerDeadDevice(t *testing.T) {
	ks, err := guard.NewKillSwitch([]byte("s"))
	if err != nil {
		t.Fatalf("NewKillSwitch: %v", err)
	}
	d := newDevice(t, func(c *Config) { c.KillSwitch = ks })
	if err := d.Deactivate(ks.TokenFor("dev-1")); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	m := &Manager{
		Device:     d,
		Classifier: statespace.ClassifierFunc(func(statespace.State) statespace.Class { return statespace.ClassGood }),
	}
	if _, err := m.Tick(time.Time{}); !errors.Is(err, ErrDeactivated) {
		t.Errorf("Tick on dead device = %v", err)
	}
}

func TestPolicyEpochTracksSnapshot(t *testing.T) {
	d := newDevice(t)
	movePolicy(t, d)
	if d.PolicyEpoch() != 0 {
		t.Errorf("epoch before first event = %d", d.PolicyEpoch())
	}
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	first := d.PolicyEpoch()
	if first == 0 {
		t.Fatal("epoch not recorded after event")
	}
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if d.PolicyEpoch() != first {
		t.Errorf("epoch moved without mutation: %d -> %d", first, d.PolicyEpoch())
	}
	if err := d.Policies().Replace(policy.Policy{
		ID: "move", EventType: "tick", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "move"},
	}); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if d.PolicyEpoch() <= first {
		t.Errorf("epoch did not advance after mutation: %d", d.PolicyEpoch())
	}
}

// TestGuardSeesDecisionSnapshot checks that the guard is handed the
// same immutable snapshot the decision was evaluated under.
func TestGuardSeesDecisionSnapshot(t *testing.T) {
	capture := &guardCaptureSnapshot{}
	d := newDevice(t, func(c *Config) { c.Guard = capture })
	movePolicy(t, d)
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if capture.seen == nil {
		t.Fatal("guard did not receive the decision snapshot")
	}
	if capture.seen.Epoch() != d.PolicyEpoch() {
		t.Errorf("guard snapshot epoch %d != device epoch %d", capture.seen.Epoch(), d.PolicyEpoch())
	}
}

type guardCaptureSnapshot struct{ seen *policy.Snapshot }

func (*guardCaptureSnapshot) Name() string { return "capture" }
func (g *guardCaptureSnapshot) Check(ctx guard.ActionContext) guard.Verdict {
	g.seen = ctx.Policies
	return guard.Verdict{Decision: guard.DecisionAllow, Action: ctx.Action, Guard: "capture"}
}

// TestDeactivationStopsRestOfEvent checks the stop signal is obeyed at
// every step: a device deactivated by its own first action (here the
// halt actuator pulls the kill switch) must not actuate, commit or
// audit the event's remaining actions. Each returns not executed with
// ErrDeactivated.
func TestDeactivationStopsRestOfEvent(t *testing.T) {
	ks, err := guard.NewKillSwitch([]byte("secret"))
	if err != nil {
		t.Fatalf("NewKillSwitch: %v", err)
	}
	log := audit.New()
	s := devSchema(t)
	initial, err := s.StateFromMap(map[string]float64{"heat": 10})
	if err != nil {
		t.Fatalf("StateFromMap: %v", err)
	}
	d, err := New(Config{ID: "d", Initial: initial, KillSwitch: ks, Audit: log})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d.Policies().AddBatch([]policy.Policy{
		{ID: "halt", EventType: "alarm", Modality: policy.ModalityDo, Priority: 10,
			Action: policy.Action{Name: "halt"}},
		{ID: "strike", EventType: "alarm", Modality: policy.ModalityDo, Priority: 5,
			Action: policy.Action{Name: "strike", Effect: statespace.Delta{"heat": 50}}},
	}); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if err := d.RegisterActuator("halt", ActuatorFunc{Label: "halt", Fn: func(policy.Action) error {
		return d.Deactivate(ks.TokenFor("d"))
	}}); err != nil {
		t.Fatalf("RegisterActuator: %v", err)
	}
	struck := 0
	if err := d.RegisterActuator("strike", ActuatorFunc{Label: "strike", Fn: func(policy.Action) error {
		struck++
		return nil
	}}); err != nil {
		t.Fatalf("RegisterActuator: %v", err)
	}

	execs, err := d.HandleEvent(policy.Event{Type: "alarm"})
	if err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if len(execs) != 2 || execs[0].Action.Name != "halt" || !execs[0].Executed() {
		t.Fatalf("execs = %+v", execs)
	}
	if execs[1].Executed() || !errors.Is(execs[1].Err, ErrDeactivated) {
		t.Errorf("strike after deactivation = %+v, want not executed with ErrDeactivated", execs[1])
	}
	if struck != 0 {
		t.Errorf("strike actuated %d times after deactivation", struck)
	}
	if got := d.CurrentState().MustGet("heat"); got != 10 {
		t.Errorf("heat = %g, want 10 (strike committed after deactivation)", got)
	}
	if actions := log.ByKind(audit.KindAction); len(actions) != 1 || actions[0].Detail != "halt" {
		t.Errorf("audited actions = %+v, want only halt", actions)
	}
}
