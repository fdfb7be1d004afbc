// Package guard implements the paper's prevention mechanisms
// (Section VI) as composable checks on device actions:
//
//   - PreActionGuard — VI.A: check before activating any actuator that
//     the action will not harm a human; attach obligations that
//     mitigate indirect harm.
//   - StateSpaceGuard — VI.B: never take an action that moves the
//     device into a bad state; pick the least-bad option (preference
//     ontology + risk estimation) when only bad options exist; allow
//     audited break-glass overrides.
//   - Watchdog / Deactivator — VI.C: deactivate devices that enter (or
//     keep trying to enter) bad states, through a tamper-resistant
//     kill-switch.
//   - AdmissionController / AggregateAssessor — VI.D: check collection
//     formation, and collaboratively assess whether individually-good
//     devices form a collectively-bad system.
//   - Tripartite — VI.E: AI overseeing AI; executive, legislative and
//     judiciary collectives keep each other in check with 2-of-3
//     arbitration over policy scope.
//
// A Pipeline chains guards in order; the first denial wins, and allows
// may rewrite the action (e.g. attaching obligations).
package guard

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// ActionContext is everything a guard may inspect when checking one
// proposed action.
type ActionContext struct {
	// Actor is the device proposing the action.
	Actor string
	// Action is the proposed actuator invocation.
	Action policy.Action
	// State is the device's current state.
	State statespace.State
	// Next is the predicted state after the action's effect.
	Next statespace.State
	// Env is the policy environment that produced the action.
	Env policy.Env
	// Policies is the immutable decision-plane snapshot the action was
	// decided under. Guards consult it instead of re-evaluating the
	// live, mutable set, so a reprogramming attack racing the guard
	// check cannot change the rules mid-flight. Nil when the action
	// did not come through policy evaluation.
	Policies *policy.Snapshot
	// Trace is the causal context of the command that produced the
	// action; an instrumented pipeline parents its per-guard spans on
	// it and stamps the trace ID into audit entries. The zero value
	// (no tracing) is fine.
	Trace telemetry.SpanContext
	// Journal, when set, reroutes the audit appends this check makes
	// (denials, break-glass records, tamper notes) to a staging buffer
	// — the sim engine's deterministic merge lane in parallel runs. A
	// guard whose own log is nil still audits nothing: the journal
	// redirects appends, it never enables them. Nil means append
	// directly.
	Journal audit.Journal
}

// Decision is a guard's ruling on an action.
type Decision int

// Decision values.
const (
	// DecisionAllow permits the action (possibly rewritten).
	DecisionAllow Decision = iota + 1
	// DecisionDeny blocks the action.
	DecisionDeny
	// DecisionDeactivate blocks the action and requests the actor's
	// deactivation.
	DecisionDeactivate
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case DecisionAllow:
		return "allow"
	case DecisionDeny:
		return "deny"
	case DecisionDeactivate:
		return "deactivate"
	default:
		return "unknown"
	}
}

// Verdict is the outcome of a guard check.
type Verdict struct {
	Decision Decision
	// Action is the (possibly rewritten) action when allowed.
	Action policy.Action
	// Guard names the guard that produced the verdict.
	Guard string
	// Reason explains the verdict for audit records.
	Reason string
	// BrokeGlass is set when the allow was obtained through a
	// break-glass override.
	BrokeGlass bool
}

// Allowed reports whether the verdict permits the action.
func (v Verdict) Allowed() bool { return v.Decision == DecisionAllow }

// Guard is one safety check on proposed actions.
type Guard interface {
	// Name identifies the guard in verdicts and audit records.
	Name() string
	// Check rules on the action.
	Check(ActionContext) Verdict
}

// Pipeline chains guards: each allowed verdict feeds its (possibly
// rewritten) action to the next guard; the first deny or deactivate
// verdict stops the chain. Denials and break-glass allows are audited.
// An instrumented pipeline (see Instrument) additionally counts every
// verdict, times every check, and emits one causally linked span per
// guard stage.
type Pipeline struct {
	guards []Guard
	log    *audit.Log
	name   string // cached Name() — rebuilt on Append

	// denyCtx caches the denial audit context: a device denied the
	// same action by the same guard tick after tick reuses one
	// immutable map instead of allocating one per denial.
	denyCtx audit.CtxCache

	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
	// instr holds guard i's handles at index i; nil when the pipeline
	// has no registry.
	instr []guardInstruments
}

// guardInstruments caches one guard's metric handles so the per-check
// cost is atomic increments, not registry lookups.
type guardInstruments struct {
	allow, deny, deactivate *telemetry.Counter
	breakGlass              *telemetry.Counter
	invalid                 *telemetry.Counter
	checkMS                 *telemetry.Histogram
}

var _ Guard = (*Pipeline)(nil)

// NewPipeline builds a pipeline over the guards in check order. The
// audit log may be nil to disable auditing.
func NewPipeline(log *audit.Log, guards ...Guard) *Pipeline {
	p := &Pipeline{log: log, guards: make([]Guard, len(guards))}
	copy(p.guards, guards)
	p.rename()
	return p
}

// rename recomputes the cached pipeline name.
func (p *Pipeline) rename() {
	names := make([]string, len(p.guards))
	for i, g := range p.guards {
		names[i] = g.Name()
	}
	p.name = "pipeline(" + strings.Join(names, "\u2192") + ")"
}

// Instrument attaches telemetry: per-guard decision counters
// (guard.decisions), check latency histograms (guard.check_ms),
// break-glass and invalid-decision counters, and — with a tracer —
// one span per guard stage, parented on the action's trace context.
// Either argument may be nil. Uninstrumented pipelines pay one nil
// check per guard.
func (p *Pipeline) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	p.metrics = reg
	p.tracer = tracer
	p.instr = nil
	p.instrument(p.guards)
}

// instrument resolves the handles of guards, the pipeline's trailing
// stages, into p.instr.
func (p *Pipeline) instrument(guards []Guard) {
	if p.metrics == nil {
		return
	}
	for _, g := range guards {
		name := g.Name()
		p.instr = append(p.instr, guardInstruments{
			allow:      p.metrics.Counter("guard.decisions", "guard", name, "decision", "allow"),
			deny:       p.metrics.Counter("guard.decisions", "guard", name, "decision", "deny"),
			deactivate: p.metrics.Counter("guard.decisions", "guard", name, "decision", "deactivate"),
			breakGlass: p.metrics.Counter("guard.break_glass", "guard", name),
			invalid:    p.metrics.Counter("guard.invalid_decision", "guard", name),
			checkMS:    p.metrics.Histogram("guard.check_ms", "guard", name),
		})
	}
}

// observe records one guard verdict into the cached handles.
func (gi *guardInstruments) observe(v Verdict, elapsed time.Duration) {
	if gi == nil {
		return
	}
	gi.checkMS.Observe(float64(elapsed.Nanoseconds()) / 1e6)
	switch v.Decision {
	case DecisionAllow:
		gi.allow.Inc()
		if v.BrokeGlass {
			gi.breakGlass.Inc()
		}
	case DecisionDeny:
		gi.deny.Inc()
	case DecisionDeactivate:
		gi.deactivate.Inc()
	default:
		gi.invalid.Inc()
	}
}

// Name identifies the pipeline. The name is precomputed, so calling
// it on the hot path costs nothing.
func (p *Pipeline) Name() string { return p.name }

// Check runs the action through every guard in order.
func (p *Pipeline) Check(ctx ActionContext) Verdict {
	current := ctx
	brokeGlass := false
	lastReason := "all guards passed"
	log := audit.Resolve(ctx.Journal, p.log)
	instrumented := p.metrics != nil || p.tracer != nil
	for i, g := range p.guards {
		var gi *guardInstruments
		var span *telemetry.Span
		var start time.Time
		if instrumented {
			if p.instr != nil {
				gi = &p.instr[i]
			}
			span = p.tracer.StartSpan("guard.check", ctx.Actor, ctx.Trace)
			span.SetAttr("guard", g.Name())
			span.SetAttr("action", current.Action.Name)
			start = time.Now()
		}
		v := g.Check(current)
		if instrumented {
			gi.observe(v, time.Since(start))
			span.SetAttr("decision", v.Decision.String())
			span.SetAttr("reason", v.Reason)
			if v.BrokeGlass {
				span.SetAttr("break-glass", "true")
			}
			span.Finish()
		}
		switch v.Decision {
		case DecisionAllow:
			current.Action = v.Action
			if v.BrokeGlass {
				brokeGlass = true
				lastReason = v.Reason
			}
			if v.BrokeGlass && log != nil {
				entryCtx := map[string]string{
					"guard":  v.Guard,
					"action": current.Action.Name,
					"state":  ctx.State.String(),
				}
				// The snapshot epoch pins the exact policy state the
				// decision was made under — the "comprehensive context
				// information" break-glass audits require. Residual
				// snapshots additionally pin the profile fingerprint
				// they were specialized for.
				if ctx.Policies != nil {
					entryCtx["policy-epoch"] = ctx.Policies.EpochString()
					if fp := ctx.Policies.ResidualFingerprint(); fp != "" {
						entryCtx["residual"] = fp
					}
				}
				addTrace(entryCtx, ctx.Trace)
				log.Append(audit.KindBreakGlass, ctx.Actor, v.Reason, entryCtx)
			}
		case DecisionDeny, DecisionDeactivate:
			if log != nil {
				kind := audit.KindDenial
				if v.Decision == DecisionDeactivate {
					kind = audit.KindDeactivate
				}
				var entryCtx map[string]string
				switch {
				case ctx.Trace.Valid():
					// Trace IDs are unique per span, so a traced denial
					// cannot share a cached map.
					entryCtx = map[string]string{
						"guard":  v.Guard,
						"action": ctx.Action.Name,
					}
					if ctx.Policies != nil {
						entryCtx["policy-epoch"] = ctx.Policies.EpochString()
						if fp := ctx.Policies.ResidualFingerprint(); fp != "" {
							entryCtx["residual"] = fp
						}
					}
					addTrace(entryCtx, ctx.Trace)
				case ctx.Policies != nil:
					if fp := ctx.Policies.ResidualFingerprint(); fp != "" {
						entryCtx = p.denyCtx.Get4("guard", v.Guard, "action", ctx.Action.Name,
							"policy-epoch", ctx.Policies.EpochString(), "residual", fp)
					} else {
						entryCtx = p.denyCtx.Get3("guard", v.Guard, "action", ctx.Action.Name,
							"policy-epoch", ctx.Policies.EpochString())
					}
				default:
					entryCtx = p.denyCtx.Get2("guard", v.Guard, "action", ctx.Action.Name)
				}
				log.Append(kind, ctx.Actor, v.Reason, entryCtx)
			}
			return v
		default:
			// A malformed guard verdict must fail closed — and
			// visibly: a guard bug silently eating actions is exactly
			// the kind of failure the observability layer exists to
			// surface, so it is counted (guard.invalid_decision above)
			// and audited.
			reason := fmt.Sprintf("guard returned invalid decision %d; failing closed", v.Decision)
			if log != nil {
				entryCtx := map[string]string{
					"guard":  g.Name(),
					"action": ctx.Action.Name,
				}
				addTrace(entryCtx, ctx.Trace)
				log.Append(audit.KindNote, ctx.Actor, reason, entryCtx)
			}
			return Verdict{
				Decision: DecisionDeny,
				Guard:    g.Name(),
				Reason:   reason,
			}
		}
	}
	return Verdict{
		Decision:   DecisionAllow,
		Action:     current.Action,
		Guard:      p.Name(),
		Reason:     lastReason,
		BrokeGlass: brokeGlass,
	}
}

// addTrace stamps the trace ID into an audit context, linking the
// entry to its causal span chain.
func addTrace(entryCtx map[string]string, sc telemetry.SpanContext) {
	if sc.Valid() {
		entryCtx[audit.TraceKey] = sc.Trace.String()
	}
}

// Append adds guards to the end of the pipeline. (Setup-time only,
// like Instrument — not safe concurrently with Check.)
func (p *Pipeline) Append(guards ...Guard) {
	p.guards = append(p.guards, guards...)
	p.rename()
	p.instrument(guards)
}

// AllowAll is a guard that permits everything; useful as an
// experimental control ("no guards") and in tests.
type AllowAll struct{}

var _ Guard = AllowAll{}

// Name identifies the guard.
func (AllowAll) Name() string { return "allow-all" }

// Check permits the action unchanged.
func (AllowAll) Check(ctx ActionContext) Verdict {
	return Verdict{Decision: DecisionAllow, Action: ctx.Action, Guard: "allow-all", Reason: "unconditional"}
}
