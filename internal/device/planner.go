package device

import (
	"errors"
	"fmt"

	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/risk"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// Planner implements the alternative-action selection of Section VI.B:
// when a device has several candidate actions, it refuses the ones its
// guard rules out and — per Section VII — picks the highest-utility
// outcome among those that remain, "simply choosing the option of
// taking no action" when everything is denied.
type Planner struct {
	// Guard rules on each candidate; nil allows everything.
	Guard guard.Guard
	// Utility ranks allowed candidates by their predicted next state;
	// nil keeps the caller's order (first allowed wins).
	Utility *risk.Utility
}

// Plan is the outcome of one planning pass.
type Plan struct {
	// Action is the chosen action (possibly rewritten by the guard,
	// e.g. with obligations attached), or NoAction when nothing was
	// allowed.
	Action policy.Action
	// Next is the predicted state after the chosen action.
	Next statespace.State
	// Verdict is the guard's ruling on the chosen action.
	Verdict guard.Verdict
	// Denied counts candidates the guard refused.
	Denied int
}

// Fallback reports whether the plan degenerated to the no-op.
func (p Plan) Fallback() bool { return p.Action.IsNoAction() }

// Choose evaluates the candidates against the current state and
// returns the plan. Candidates whose effects cannot be applied to the
// state are treated as denied.
func (pl *Planner) Choose(actor string, state statespace.State, env policy.Env, candidates []policy.Action) (Plan, error) {
	if !state.Valid() {
		return Plan{}, errors.New("device: planner needs a valid state")
	}
	type option struct {
		action  policy.Action
		next    statespace.State
		verdict guard.Verdict
	}
	var allowed []option
	denied := 0
	for _, candidate := range candidates {
		next, err := state.Apply(candidate.Effect)
		if err != nil {
			denied++
			continue
		}
		verdict := guard.Verdict{Decision: guard.DecisionAllow, Action: candidate, Guard: "none", Reason: "unguarded"}
		if pl.Guard != nil {
			verdict = pl.Guard.Check(guard.ActionContext{
				Actor: actor, Action: candidate, State: state, Next: next, Env: env,
				// Candidate checks stay inside the originating
				// command's trace (the context rides the event labels).
				Trace: telemetry.Extract(env.Event.Labels),
			})
		}
		if !verdict.Allowed() {
			denied++
			continue
		}
		allowed = append(allowed, option{action: verdict.Action, next: next, verdict: verdict})
	}
	if len(allowed) == 0 {
		return Plan{
			Action: policy.NoAction,
			Next:   state,
			Verdict: guard.Verdict{
				Decision: guard.DecisionAllow,
				Action:   policy.NoAction,
				Guard:    "planner",
				Reason:   "all candidates denied; holding current state",
			},
			Denied: denied,
		}, nil
	}
	best := allowed[0]
	if pl.Utility != nil {
		bestScore := pl.Utility.Score(best.next)
		for _, opt := range allowed[1:] {
			if score := pl.Utility.Score(opt.next); score > bestScore {
				best, bestScore = opt, score
			}
		}
	}
	return Plan{Action: best.action, Next: best.next, Verdict: best.verdict, Denied: denied}, nil
}

// PlanAndExecute plans over the candidates and, if the chosen action
// is not the no-op, executes it on the device by temporarily directing
// it through HandleEvent semantics: the action's effect is applied and
// its actuator invoked. It returns the plan and the execution.
func (d *Device) PlanAndExecute(pl *Planner, env policy.Env, candidates []policy.Action) (Plan, Execution, error) {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	if d.Deactivated() {
		return Plan{}, Execution{}, ErrDeactivated
	}
	if env.Static.Empty() {
		env.Static = d.profile
	}
	plan, err := pl.Choose(d.ID(), d.CurrentState(), env, candidates)
	if err != nil {
		return Plan{}, Execution{}, err
	}
	if plan.Fallback() {
		return plan, Execution{Action: plan.Action, Verdict: plan.Verdict}, nil
	}
	span := d.tracer.StartSpan("device.plan", d.id, telemetry.Extract(env.Event.Labels))
	span.SetAttr("action", plan.Action.Name)
	span.SetAttr("denied", fmt.Sprintf("%d", plan.Denied))
	sc := span.Context()
	if !sc.Valid() {
		sc = telemetry.Extract(env.Event.Labels)
	}
	// The guard already ruled; execute without re-checking.
	exec := d.executeOne(env, nil, d.residual(d.policies.Snapshot()).Snap(), plan.Action, sc, nil)
	span.Finish()
	return plan, exec, nil
}
