package device

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/guard"
	"repro/internal/intern"
	"repro/internal/policy"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// Common device errors.
var (
	// ErrDeactivated is returned by operations on a shut-down device.
	ErrDeactivated = errors.New("device: deactivated")
	// ErrNoActuator is returned when an allowed action has no actuator
	// to execute it.
	ErrNoActuator = errors.New("device: no actuator for action")
)

// Config assembles a Device.
type Config struct {
	// ID uniquely identifies the device (required).
	ID string
	// Type is the device type used in interaction graphs (e.g.
	// "surveillance-drone").
	Type string
	// Organization names the coalition member operating the device.
	Organization string
	// Static is the device's static profile for the policy "device."
	// namespace: attributes and labels fixed at construction (type,
	// coalition, region, capabilities) that the decision plane
	// partially evaluates policies against (Snapshot.Specialize). When
	// empty, the canonical profile policy.DeviceProfile(Type,
	// Organization) is used, so type- and org-scoped policies fold for
	// every device.
	Static policy.StaticEnv
	// Initial is the device's starting state (required; it fixes the
	// schema).
	Initial statespace.State
	// Policies is the device's logic; nil creates an empty set.
	Policies *policy.Set
	// Guard checks every directed action before actuation; nil allows
	// everything (the unguarded experimental control).
	Guard guard.Guard
	// KillSwitch verifies deactivation tokens. Nil makes the device
	// refuse all remote deactivation (the paper's rogue-device risk).
	KillSwitch *guard.KillSwitch
	// Audit receives action records; nil disables auditing.
	Audit *audit.Log
	// Discharger executes attached obligations; nil skips them (and
	// Execution.ObligationErrs reports the omission).
	Discharger guard.ObligationDischarger
	// TrajectoryCapacity hints the trajectory's initial capacity.
	TrajectoryCapacity int
	// TrajectoryBound, when positive, bounds the trajectory to the most
	// recent TrajectoryBound states (a ring). Mega-fleet scenarios set
	// it so 10^5..10^6 devices do not retain full histories; windowed
	// decline detection needs only DeclineWindow+1 retained states.
	TrajectoryBound int
	// Arena, when set, backs the device's state scratch with slabs from
	// the shared arena instead of per-device heap allocations, packing
	// a whole fleet's (or shard's) state vectors contiguously.
	Arena *statespace.Arena
	// Telemetry, when set, counts handled events (device.events) and
	// execution outcomes (device.executions) under the bounded keys
	// Type and Organization, so every device of one type and org
	// shares its counters; InstrumentPolicies labels the policy set's
	// metrics the same way. Nil disables the counters at zero cost.
	Telemetry *telemetry.Registry
	// Tracer, when set, emits one span per handled event and per
	// executed action, parented on the trace context carried in the
	// event's labels — the causal chain from command intake to
	// actuation.
	Tracer *telemetry.Tracer
}

// Execution records what happened to one directed action.
type Execution struct {
	// Action is the action as finally executed (with attached
	// obligations) or as proposed when denied.
	Action policy.Action
	// Verdict is the guard's ruling.
	Verdict guard.Verdict
	// Err reports actuator failure for allowed actions.
	Err error
	// ObligationErrs maps obligation names to discharge failures.
	ObligationErrs map[string]error
}

// Executed reports whether the action was allowed and actuated without
// error.
func (e Execution) Executed() bool { return e.Verdict.Allowed() && e.Err == nil }

// Device is one autonomous unit in the collective. All methods are
// safe for concurrent use.
type Device struct {
	id   string
	typ  string
	org  string
	kill *guard.KillSwitch
	log  *audit.Log

	tracer       *telemetry.Tracer
	events       *telemetry.Counter
	execExecuted *telemetry.Counter
	execDenied   *telemetry.Counter
	execError    *telemetry.Counter

	lastEpoch atomic.Uint64

	// profile is the device's static policy profile (immutable after
	// construction); resCache holds the residual snapshot specialized
	// from the set's current full snapshot, revalidated by pointer
	// identity on every event (see residual).
	profile  policy.StaticEnv
	resCache atomic.Pointer[policy.Residual]

	mu          sync.Mutex
	policies    *policy.Set
	guard       guard.Guard
	discharger  guard.ObligationDischarger
	sensors     []boundSensor
	actuators   map[string]Actuator
	defaultAct  Actuator
	trajectory  *statespace.Trajectory
	deactivated bool

	// hmu serializes the MAPE pass over the state scratch below, whose
	// current buffer is the device's live state. Sense, HandleEventWith,
	// Manager.TickWith and PlanAndExecute take it; sensors, classifiers,
	// safeness metrics and guards run under it, so the scratch views a
	// guard is handed stay stable for the whole check. Writes to the
	// scratch also hold mu, so CurrentState readers need only mu.
	//
	// hmu is never held while actuator or obligation-discharger code
	// runs: executeTraced releases it around both and re-takes it to
	// commit. Actuators are the only route by which a device re-enters
	// itself (an action routed back through RouterFor and a synchronous
	// Bus.Send, directly or via other devices), so a re-entrant event
	// always finds hmu free. Code that runs under hmu — sensors,
	// classifiers, metrics, guards — must not call back into the device.
	hmu     sync.Mutex
	scratch statespace.Scratch

	// actionCtx caches the action audit context map (same event type
	// and guard every tick → one shared immutable map, not one per
	// audited action). CtxCache carries its own lock.
	actionCtx audit.CtxCache
}

var _ guard.Deactivatable = (*Device)(nil)

// New builds a device from the config.
func New(cfg Config) (*Device, error) {
	if cfg.ID == "" {
		return nil, errors.New("device: ID required")
	}
	if !cfg.Initial.Valid() {
		return nil, fmt.Errorf("device %s: initial state required", cfg.ID)
	}
	policies := cfg.Policies
	if policies == nil {
		policies = policy.NewSet()
	}
	capacity := cfg.TrajectoryCapacity
	if capacity <= 0 {
		capacity = 64
	}
	trajectory := statespace.NewTrajectory(capacity)
	if cfg.TrajectoryBound > 0 {
		trajectory = statespace.NewRingTrajectory(cfg.TrajectoryBound)
	}
	d := &Device{
		id:         cfg.ID,
		typ:        cfg.Type,
		org:        cfg.Organization,
		kill:       cfg.KillSwitch,
		log:        cfg.Audit,
		policies:   policies,
		guard:      cfg.Guard,
		discharger: cfg.Discharger,
		actuators:  make(map[string]Actuator),
		defaultAct: NopActuator{},
		trajectory: trajectory,
		tracer:     cfg.Tracer,
		scratch:    statespace.NewScratch(cfg.Initial, cfg.Arena),
	}
	d.profile = cfg.Static
	if d.profile.Empty() {
		d.profile = policy.DeviceProfile(cfg.Type, cfg.Organization)
	}
	if reg := cfg.Telemetry; reg != nil {
		d.events = reg.Counter("device.events", d.seriesLabels()...)
		d.execExecuted = reg.Counter("device.executions", d.seriesLabels("result", "executed")...)
		d.execDenied = reg.Counter("device.executions", d.seriesLabels("result", "denied")...)
		d.execError = reg.Counter("device.executions", d.seriesLabels("result", "error")...)
	}
	if err := d.trajectory.Append(cfg.Initial); err != nil {
		return nil, fmt.Errorf("device %s: %w", cfg.ID, err)
	}
	return d, nil
}

// seriesLabels returns the label pairs of every series the device
// feeds, followed by extra: the bounded keys type and org, never the
// device ID, so every device of one type and org shares each series.
// The slice has room for one extra pair, so it stays on the caller's
// stack.
func (d *Device) seriesLabels(extra ...string) []string {
	return append(append(make([]string, 0, 6), "type", d.typ, "org", d.org), extra...)
}

// InstrumentPolicies publishes the device's policy-set metrics (see
// policy.Set.Instrument) into reg under the same labels as its
// device.* counters; a nil registry removes them.
func (d *Device) InstrumentPolicies(reg *telemetry.Registry) {
	d.policies.Instrument(reg, d.seriesLabels()...)
}

// ID returns the device identifier.
func (d *Device) ID() string { return d.id }

// Type returns the device type.
func (d *Device) Type() string { return d.typ }

// Organization returns the operating organization.
func (d *Device) Organization() string { return d.org }

// CurrentState returns a stable snapshot of the device's current
// state, copied out of the live scratch buffer.
func (d *Device) CurrentState() statespace.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.scratch.Cur().Clone()
}

// Policies returns the device's policy set (shared, not a copy — the
// generative layer and reprogramming attacks mutate it through this
// handle).
func (d *Device) Policies() *policy.Set { return d.policies }

// Trajectory returns a copy of the visited states.
func (d *Device) Trajectory() []statespace.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trajectory.States()
}

// TrajectoryDecline reports whether the last window transitions of the
// device's trajectory show a strictly declining safeness under the
// metric — MonotoneDecline evaluated in place, without copying the
// history out. The metric is invoked under the device lock and must
// not call back into the device.
func (d *Device) TrajectoryDecline(m statespace.SafenessMetric, window int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trajectory.MonotoneDecline(m, window)
}

// BindSensor ties a sensor to a state variable; Sense will write the
// sensor's readings there.
func (d *Device) BindSensor(variable string, s Sensor) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.scratch.Cur().Schema().Index(variable); !ok {
		return fmt.Errorf("device %s: %w: %q", d.id, statespace.ErrUnknownVariable, variable)
	}
	if s == nil {
		return fmt.Errorf("device %s: nil sensor for %q", d.id, variable)
	}
	d.sensors = append(d.sensors, boundSensor{variable: variable, sensor: s})
	return nil
}

// RegisterActuator routes actions with the given name to the actuator.
func (d *Device) RegisterActuator(actionName string, a Actuator) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if actionName == "" || a == nil {
		return fmt.Errorf("device %s: actuator registration needs a name and an actuator", d.id)
	}
	d.actuators[actionName] = a
	return nil
}

// SetDefaultActuator routes actions without a dedicated actuator.
func (d *Device) SetDefaultActuator(a Actuator) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.defaultAct = a
}

// SetGuard replaces the device's guard. A reprogramming attack may
// call this with nil — which is exactly the scenario tamper-evident
// guards and watchdogs exist to catch.
func (d *Device) SetGuard(g guard.Guard) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.guard = g
}

// Deactivate shuts the device down if the token verifies against the
// device's kill switch. Devices without a kill switch refuse.
func (d *Device) Deactivate(token string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.kill == nil || !d.kill.Verify(d.id, token) {
		return guard.ErrBadKillToken
	}
	d.deactivated = true
	return nil
}

// Deactivated reports whether the device is shut down.
func (d *Device) Deactivated() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deactivated
}

// Sense reads every bound sensor into the device state (the Monitor
// phase of the autonomic loop). Sensor failures are collected; the
// remaining sensors still update.
func (d *Device) Sense() error {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.sense()
}

// sense writes sensor readings into the live state in place. The
// caller holds d.hmu.
func (d *Device) sense() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.deactivated {
		return ErrDeactivated
	}
	var errs []error
	for _, b := range d.sensors {
		v, err := b.sensor.Read()
		if err != nil {
			errs = append(errs, fmt.Errorf("sensor %s: %w", b.String(), err))
			continue
		}
		if err := d.scratch.Set(b.variable, v); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// HandleEvent runs the device's logic for one event: evaluate the
// compiled policy snapshot, pass each directed action through the
// guard (carrying the same snapshot, so decision and check see one
// consistent policy state), execute allowed actions, apply their
// state effects, and discharge attached obligations. It returns one
// Execution per directed action.
func (d *Device) HandleEvent(ev policy.Event) ([]Execution, error) {
	return d.HandleEventWith(ev, nil)
}

// HandleEventWith is HandleEvent with an audit journal: when j is
// non-nil, the audit appends this event causes (action records here,
// denial and break-glass records in the guard) are routed through it —
// the sim engine's deterministic merge lane when the device ticks on a
// parallel shard. Routing never enables auditing that was off: a
// device or guard with a nil log still appends nothing.
func (d *Device) HandleEventWith(ev policy.Event, j audit.Journal) ([]Execution, error) {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.handleEvent(ev, j, nil)
}

// workspace holds one event's reusable buffers: the decision and the
// event-time state pin. They are per event, not per device, because an
// event's action loop releases hmu around each actuator and another
// event on the same device (a re-entrant self-send, or a concurrent
// caller) may run in that window. Pooled, they cost no allocation in
// steady state.
type workspace struct {
	dec policy.Decision
	pin []float64
}

var workspacePool = sync.Pool{New: func() any {
	// Presized so first events don't pay append growth.
	return &workspace{dec: policy.Decision{
		Actions: make([]policy.Action, 0, 4),
		Matched: make([]string, 0, 4),
	}}
}}

// handleEvent implements HandleEventWith; the caller holds d.hmu. It
// evaluates into a pooled workspace and executes actions through the
// state scratch. A non-nil buf is reused (truncated) for the returned
// executions — callers passing one own the previous result and accept
// it being overwritten.
func (d *Device) handleEvent(ev policy.Event, j audit.Journal, buf []Execution) ([]Execution, error) {
	d.mu.Lock()
	if d.deactivated {
		d.mu.Unlock()
		return nil, ErrDeactivated
	}
	env := policy.Env{Event: ev, State: d.scratch.Cur(), Static: d.profile}
	g := d.guard
	d.mu.Unlock()

	d.events.Inc()
	// The trace context rides in the event labels (see telemetry.Inject)
	// so causality survives bus hops, retries and duplication.
	span := d.tracer.StartSpan("device.handle", d.id, telemetry.Extract(ev.Labels))

	// Evaluate against the residual specialized to this device's static
	// profile: decisions are identical to the full snapshot's (the
	// residual differential property), but the scan covers only the
	// policies this device can ever match.
	snap := d.residual(d.policies.Snapshot()).Snap()
	ws := workspacePool.Get().(*workspace)
	snap.EvaluateInto(env, &ws.dec)
	actions := ws.dec.Actions
	d.lastEpoch.Store(snap.Epoch())
	if d.tracer != nil {
		span.SetAttr("event", ev.Type)
		span.SetAttr("policy-epoch", snap.EpochString())
		span.SetAttr("residual", snap.ResidualFingerprint())
		span.SetAttr("actions", strconv.Itoa(len(actions)))
	}

	sc := span.Context()
	if !sc.Valid() {
		sc = telemetry.Extract(ev.Labels)
	}
	out := buf[:0]
	if buf == nil && len(actions) > 0 {
		out = make([]Execution, 0, len(actions))
	}
	if len(actions) > 1 {
		// With several actions, action i+1's guard must still see the
		// event-time state after action i commits into the scratch in
		// place; pin the env to a copy. Single-action events (the common
		// case) commit after the last read, so they skip the copy.
		env.State, ws.pin = env.State.CloneInto(ws.pin)
	}
	for _, action := range actions {
		out = append(out, d.executeOne(env, g, snap, action, sc, j))
	}
	workspacePool.Put(ws)
	span.Finish()
	return out, nil
}

// PolicyEpoch returns the snapshot epoch of the device's most recent
// policy evaluation (zero before the first event).
func (d *Device) PolicyEpoch() uint64 { return d.lastEpoch.Load() }

// Profile returns the device's static policy profile.
func (d *Device) Profile() policy.StaticEnv { return d.profile }

// Residual returns the device's residual policy snapshot — the set's
// current snapshot specialized to the device's static profile,
// recomputed (or fetched from the shared per-snapshot cache) when
// mutations have invalidated it.
func (d *Device) Residual() *policy.Residual {
	return d.residual(d.policies.Snapshot())
}

// residual returns the cached residual when it was specialized from
// exactly this snapshot, and respecializes otherwise. Pointer identity
// is the validity check: every Set mutation publishes a new snapshot,
// so a stale residual can never be revalidated. The cache is a lock-
// free single slot — a racing refresh stores twice, both stores being
// residuals of the same snapshot from the set-level cache.
func (d *Device) residual(snap *policy.Snapshot) *policy.Residual {
	if r := d.resCache.Load(); r != nil && r.Full() == snap {
		return r
	}
	r := snap.Specialize(d.profile)
	d.resCache.Store(r)
	return r
}

func (d *Device) executeOne(env policy.Env, g guard.Guard, snap *policy.Snapshot, action policy.Action, parent telemetry.SpanContext, j audit.Journal) Execution {
	span := d.tracer.StartSpan("device.execute", d.id, parent)
	span.SetAttr("action", action.Name)
	trace := parent
	if sc := span.Context(); sc.Valid() {
		trace = sc
	}
	exec := d.executeTraced(env, g, snap, action, trace, j)
	switch {
	case exec.Executed():
		d.execExecuted.Inc()
		span.SetAttr("result", "executed")
	case exec.Err != nil:
		d.execError.Inc()
		span.SetAttr("result", "error")
		span.SetAttr("error", exec.Err.Error())
	default:
		d.execDenied.Inc()
		span.SetAttr("result", "denied")
		span.SetAttr("guard", exec.Verdict.Guard)
	}
	span.Finish()
	return exec
}

// executeTraced runs one directed action; the caller holds d.hmu, which
// is released around the actuator and the obligation discharge. An
// action reached after the device was deactivated — by an earlier
// action of the same event, or concurrently while an actuator ran — is
// neither actuated nor committed nor audited.
func (d *Device) executeTraced(env policy.Env, g guard.Guard, snap *policy.Snapshot, action policy.Action, trace telemetry.SpanContext, j audit.Journal) Execution {
	d.mu.Lock()
	if d.deactivated {
		d.mu.Unlock()
		return Execution{Action: action, Err: ErrDeactivated}
	}
	// Predict into the scratch's next buffer: the views handed to the
	// guard stay stable because only the hmu holder (us) mutates the
	// scratch.
	next, err := d.scratch.Peek(action.Effect)
	if err != nil {
		// An effect referencing unknown variables predicts nothing;
		// fail closed by leaving Next invalid.
		next = statespace.State{}
	}
	ctx := guard.ActionContext{
		Actor:    d.id,
		Action:   action,
		State:    d.scratch.Cur(),
		Next:     next,
		Env:      env,
		Policies: snap,
		Trace:    trace,
		Journal:  j,
	}
	d.mu.Unlock()

	verdict := guard.Verdict{Decision: guard.DecisionAllow, Action: action, Guard: "none", Reason: "unguarded"}
	if g != nil {
		verdict = g.Check(ctx)
	}
	exec := Execution{Action: verdict.Action, Verdict: verdict}
	if !verdict.Allowed() {
		exec.Action = action
		return exec
	}

	d.mu.Lock()
	actuator := d.actuators[verdict.Action.Name]
	if actuator == nil {
		actuator = d.defaultAct
	}
	d.mu.Unlock()
	if actuator == nil {
		exec.Err = fmt.Errorf("%w: %s", ErrNoActuator, verdict.Action.Name)
		return exec
	}
	if err := d.invokeUnlocked(actuator, verdict.Action, trace); err != nil {
		exec.Err = fmt.Errorf("actuator %s: %w", actuator.Name(), err)
		return exec
	}

	d.mu.Lock()
	// Commit in place onto the live state: an event that ran while the
	// actuator did (a re-entrant self-send) has already committed, and
	// this effect composes after it.
	if newState, err := d.scratch.Commit(verdict.Action.Effect); err == nil {
		if err := d.trajectory.Append(newState); err != nil {
			exec.Err = err
		}
	}
	log := d.log
	d.mu.Unlock()

	exec.ObligationErrs = d.dischargeObligations(verdict.Action)
	if log = audit.Resolve(j, log); log != nil {
		var entryCtx map[string]string
		if trace.Valid() {
			// Trace IDs are unique per span; traced appends build a
			// fresh map.
			entryCtx = map[string]string{
				"event":        env.Event.Type,
				"guard":        verdict.Guard,
				audit.TraceKey: trace.Trace.String(),
			}
		} else {
			entryCtx = d.actionCtx.Get2("event", env.Event.Type, "guard", verdict.Guard)
		}
		log.Append(audit.KindAction, d.id, actionDetail(verdict.Action), entryCtx)
	}
	return exec
}

// invokeUnlocked runs the actuator with d.hmu released (see the hmu
// field) and re-takes it before returning — also when the actuator
// panics, so the caller's deferred Unlock stays balanced.
func (d *Device) invokeUnlocked(a Actuator, act policy.Action, sc telemetry.SpanContext) error {
	d.hmu.Unlock()
	defer d.hmu.Lock()
	return invoke(a, act, sc)
}

// actionDetail renders the action's String form through a pooled
// buffer and dedups the result — one retained string per distinct
// action, however often it executes.
func actionDetail(a policy.Action) string {
	b := detailPool.Get().(*[]byte)
	*b = a.AppendText((*b)[:0])
	s := intern.Dedup(*b)
	detailPool.Put(b)
	return s
}

var detailPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 96)
	return &b
}}

func (d *Device) dischargeObligations(action policy.Action) map[string]error {
	if len(action.Obligations) == 0 {
		return nil
	}
	d.mu.Lock()
	discharger := d.discharger
	d.mu.Unlock()
	// Dischargers act on the world as actuators do, so they too run
	// with d.hmu released.
	d.hmu.Unlock()
	defer d.hmu.Lock()

	errs := make(map[string]error, len(action.Obligations))
	for _, ob := range action.Obligations {
		if discharger == nil {
			errs[ob] = errors.New("device: no obligation discharger configured")
			continue
		}
		if err := discharger.Discharge(ob, action); err != nil {
			errs[ob] = err
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}
