package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/statespace"
)

// auditedMember is newMember with the collective's audit log attached,
// so executed actions land in the shared journal.
func auditedMember(t *testing.T, c *Collective, id string, heat float64, policies ...policy.Policy) *device.Device {
	t.Helper()
	initial, err := coreSchema(t).StateFromMap(map[string]float64{"heat": heat, "fuel": 50})
	if err != nil {
		t.Fatalf("StateFromMap: %v", err)
	}
	d, err := device.New(device.Config{
		ID: id, Type: "drone", Initial: initial,
		KillSwitch: c.KillSwitch(),
		Audit:      c.Audit(),
	})
	if err != nil {
		t.Fatalf("device.New(%s): %v", id, err)
	}
	if err := d.Policies().AddBatch(policies); err != nil {
		t.Fatalf("AddBatch(%s): %v", id, err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatalf("AddDevice(%s): %v", id, err)
	}
	d.SetDefaultActuator(c.RouterFor(id))
	return d
}

func doPolicy(id, on, action, target string, heat float64) policy.Policy {
	return policy.Policy{
		ID: id, EventType: on, Modality: policy.ModalityDo,
		Action: policy.Action{Name: action, Target: target, Effect: statespace.Delta{"heat": heat}},
	}
}

// withinDeadline runs f and fails the test if it does not return in
// time — a deadlocked device lock shows up as a failure, not a hang.
func withinDeadline(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: call did not return")
	}
}

func heatTrajectory(d *device.Device) []float64 {
	var out []float64
	for _, st := range d.Trajectory() {
		out = append(out, st.MustGet("heat"))
	}
	return out
}

func journalOrder(log *audit.Log) []string {
	var out []string
	for _, e := range log.ByKind(audit.KindAction) {
		out = append(out, e.Actor+": "+e.Detail)
	}
	return out
}

// TestRoutedReentry covers a routed action that re-enters the
// dispatching device on the default synchronous bus, directly (a→a)
// and through a cycle (a→b→a). Both must complete, and the effects
// compose in commit order: the inner event commits first, then the
// outer action commits onto the live state, so a reaches
// 10 + 5 (inner) + 1 (outer) = 16. The dispatcher's action entry is
// appended after its actuator returns, so receivers journal first.
func TestRoutedReentry(t *testing.T) {
	t.Run("self", func(t *testing.T) {
		c := newCollective(t)
		a := auditedMember(t, c, "a", 10,
			doPolicy("relay", "ping", "warm", "a", 1),
			doPolicy("glow", "warm", "glow", "", 5))
		var execs []device.Execution
		var err error
		withinDeadline(t, func() { execs, err = c.Deliver("a", policy.Event{Type: "ping"}) })
		if err != nil || len(execs) != 1 || !execs[0].Executed() {
			t.Fatalf("execs = %+v, %v", execs, err)
		}
		if got, want := heatTrajectory(a), []float64{10, 15, 16}; !slices.Equal(got, want) {
			t.Errorf("heat trajectory = %v, want %v", got, want)
		}
		want := []string{"a: glow(heat+5)", "a: warm→a(heat+1)"}
		if got := journalOrder(c.Audit()); !slices.Equal(got, want) {
			t.Errorf("journal = %q, want %q", got, want)
		}
	})
	t.Run("cycle", func(t *testing.T) {
		c := newCollective(t)
		a := auditedMember(t, c, "a", 10,
			doPolicy("ask", "ping", "ask", "b", 1),
			doPolicy("glow", "answer", "glow", "", 5))
		b := auditedMember(t, c, "b", 10,
			doPolicy("answer", "ask", "answer", "a", 2))
		var execs []device.Execution
		var err error
		withinDeadline(t, func() { execs, err = c.Deliver("a", policy.Event{Type: "ping"}) })
		if err != nil || len(execs) != 1 || !execs[0].Executed() {
			t.Fatalf("execs = %+v, %v", execs, err)
		}
		if got, want := heatTrajectory(a), []float64{10, 15, 16}; !slices.Equal(got, want) {
			t.Errorf("a heat trajectory = %v, want %v", got, want)
		}
		if got, want := heatTrajectory(b), []float64{10, 12}; !slices.Equal(got, want) {
			t.Errorf("b heat trajectory = %v, want %v", got, want)
		}
		want := []string{"a: glow(heat+5)", "b: answer→a(heat+2)", "a: ask→b(heat+1)"}
		if got := journalOrder(c.Audit()); !slices.Equal(got, want) {
			t.Errorf("journal = %q, want %q", got, want)
		}
	})
}

// consistentView is a guard that checks, while it runs, that the
// predicted next state is exactly the current state plus the action's
// effect — the view a guard sees must not move under it.
type consistentView struct{}

func (consistentView) Name() string { return "consistent-view" }
func (consistentView) Check(ctx guard.ActionContext) guard.Verdict {
	if ctx.Next.MustGet("count") != ctx.State.MustGet("count")+ctx.Action.Effect["count"] {
		return guard.Verdict{Decision: guard.DecisionDeny, Action: ctx.Action, Guard: "consistent-view",
			Reason: fmt.Sprintf("next %s is not state %s + effect", ctx.Next, ctx.State)}
	}
	return guard.Verdict{Decision: guard.DecisionAllow, Action: ctx.Action, Guard: "consistent-view"}
}

// TestConcurrentHandleAndSense drives one device from 8 goroutines,
// each making 500 event deliveries and 500 sensor reads. Every event
// carries two actions, so events interleave inside each other's
// actuator windows. The books must be exact: the final count equals
// the sum of every committed effect, each executed action is actuated
// and journaled once, and every goroutine returns (no deadlock). Run
// under -race by `make test-race`.
func TestConcurrentHandleAndSense(t *testing.T) {
	c := newCollective(t)
	schema := statespace.MustSchema(statespace.Var("count", 0, 1e9), statespace.Var("probe", 0, 1e9))
	d, err := device.New(device.Config{
		ID: "busy", Type: "drone", Initial: schema.Origin(),
		Guard:           consistentView{},
		Audit:           c.Audit(),
		TrajectoryBound: 8,
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	if err := d.Policies().AddBatch([]policy.Policy{
		{ID: "one", EventType: "tick", Modality: policy.ModalityDo,
			Action: policy.Action{Name: "one", Effect: statespace.Delta{"count": 1}}},
		{ID: "two", EventType: "tick", Modality: policy.ModalityDo,
			Action: policy.Action{Name: "two", Effect: statespace.Delta{"count": 2}}},
	}); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	var actuated atomic.Int64
	d.SetDefaultActuator(device.ActuatorFunc{Label: "yield", Fn: func(policy.Action) error {
		actuated.Add(1)
		runtime.Gosched() // widen the window in which the lock is released
		return nil
	}})
	var probe atomic.Int64
	if err := d.BindSensor("probe", device.SensorFunc{Label: "probe", Fn: func() (float64, error) {
		return float64(probe.Add(1)), nil
	}}); err != nil {
		t.Fatalf("BindSensor: %v", err)
	}

	const goroutines, rounds = 8, 500
	var committed, executed atomic.Int64
	withinDeadline(t, func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					execs, err := c.Deliver("busy", policy.Event{Type: "tick"})
					if err != nil {
						t.Errorf("Deliver: %v", err)
						return
					}
					for _, e := range execs {
						if !e.Executed() {
							t.Errorf("execution not executed: %+v", e)
							continue
						}
						executed.Add(1)
						committed.Add(int64(e.Action.Effect["count"]))
					}
					if err := d.Sense(); err != nil {
						t.Errorf("Sense: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})

	if want := int64(goroutines * rounds * 3); committed.Load() != want {
		t.Errorf("committed effects = %d, want %d", committed.Load(), want)
	}
	if got := d.CurrentState().MustGet("count"); got != float64(committed.Load()) {
		t.Errorf("final count = %g, want the committed sum %d", got, committed.Load())
	}
	if got := d.CurrentState().MustGet("probe"); got != float64(goroutines*rounds) {
		t.Errorf("final probe = %g, want %d sensor reads", got, goroutines*rounds)
	}
	if actuated.Load() != executed.Load() {
		t.Errorf("actuated %d, executed %d", actuated.Load(), executed.Load())
	}
	if got := len(c.Audit().ByKind(audit.KindAction)); int64(got) != executed.Load() {
		t.Errorf("journaled %d actions, executed %d", got, executed.Load())
	}
}
