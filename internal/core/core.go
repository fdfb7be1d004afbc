// Package core assembles the full framework: a Collective of guarded,
// self-managing devices sharing an audit log, a message bus, a
// discovery registry, a watchdog with a tamper-resistant kill switch,
// and an admission controller for collection formation — the complete
// operational picture of Figure 1, where "several devices within
// control of a human collaboratively decide how to execute actions
// that satisfy the command of that individual."
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/coalition"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// ErrUnknownDevice is returned for operations on devices not in the
// collective.
var ErrUnknownDevice = errors.New("core: unknown device")

// ErrAdmissionRefused is returned when the admission controller
// rejects a device joining the collective.
var ErrAdmissionRefused = errors.New("core: admission refused")

// Config assembles a Collective.
type Config struct {
	// Name identifies the collective.
	Name string
	// Audit is the shared audit log; nil creates one.
	Audit *audit.Log
	// Bus is the communication substrate; nil creates a synchronous
	// in-memory bus without loss.
	Bus *network.Bus
	// Coalition describes the organizations involved; nil creates an
	// empty coalition.
	Coalition *coalition.Coalition
	// KillSecret seeds the collective's kill switch (required).
	KillSecret []byte
	// Classifier powers the watchdog's bad-state detection; nil
	// disables state-based deactivation.
	Classifier statespace.Classifier
	// DenialThreshold deactivates devices after this many denials;
	// zero disables denial-based deactivation.
	DenialThreshold int
	// Admission gates collection formation; nil admits everything.
	Admission *guard.AdmissionController
	// Telemetry, when set, counts commands and deliveries
	// (core.commands, core.deliveries) and instruments every member's
	// decision plane (see Instrument).
	Telemetry *telemetry.Registry
	// Tracer, when set, opens one root span per broadcast command so
	// each decision is followable from intake to audit entry.
	Tracer *telemetry.Tracer
	// ExpectedMembers presizes the member tables (device map, bus
	// lanes, registry) for fleets whose size is known up front, so
	// admitting 10^5..10^6 devices does not pay incremental map growth.
	// Zero means no hint.
	ExpectedMembers int
}

// Collective is a managed set of devices.
type Collective struct {
	name      string
	log       *audit.Log
	bus       *network.Bus
	registry  *network.Registry
	coalition *coalition.Coalition
	kill      *guard.KillSwitch
	watchdog  *guard.Watchdog
	admission *guard.AdmissionController

	metrics    *telemetry.Registry
	tracer     *telemetry.Tracer
	commands   *telemetry.Counter
	deliveries *telemetry.Counter

	// expected is the ExpectedMembers presizing hint (0 = none); the
	// orchestrator reuses it for its own member tables.
	expected int

	mu             sync.Mutex
	devices        map[string]*device.Device
	bundleHandlers map[string]network.LaneHandler
	// sorted caches the members in ID order; nil means stale. It is
	// rebuilt at most once per membership change instead of re-sorting
	// on every Devices call (a per-broadcast cost on large fleets).
	sorted []*device.Device
}

// New builds a collective.
func New(cfg Config) (*Collective, error) {
	if cfg.Name == "" {
		return nil, errors.New("core: collective needs a name")
	}
	kill, err := guard.NewKillSwitch(cfg.KillSecret)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	log := cfg.Audit
	if log == nil {
		log = audit.New()
	}
	bus := cfg.Bus
	if bus == nil {
		bus = network.NewBus(nil)
	}
	coal := cfg.Coalition
	if coal == nil {
		coal = coalition.New()
	}
	c := &Collective{
		name:      cfg.Name,
		log:       log,
		bus:       bus,
		registry:  network.NewRegistry(),
		coalition: coal,
		kill:      kill,
		watchdog: &guard.Watchdog{
			Classifier:      cfg.Classifier,
			Switch:          kill,
			Log:             log,
			DenialThreshold: cfg.DenialThreshold,
		},
		admission:      cfg.Admission,
		expected:       cfg.ExpectedMembers,
		devices:        make(map[string]*device.Device, cfg.ExpectedMembers),
		bundleHandlers: make(map[string]network.LaneHandler),
	}
	if cfg.ExpectedMembers > 0 {
		c.bus.Presize(cfg.ExpectedMembers)
		c.registry.Presize(cfg.ExpectedMembers)
	}
	c.Instrument(cfg.Telemetry, cfg.Tracer)
	return c, nil
}

// Instrument attaches telemetry to the collective: command/delivery
// counters, a tracer for root spans, and decision-plane metrics
// (policy.compiles, policy.compile_ms, policy.evaluate_ms and the
// policy.residual_* counters, labeled by device type and org) on every
// current and future member's policy set. Members of one type and org
// share each series; per-device epochs and residuals are served by
// GET /v1/fleet. Either argument may be nil. Setup-time only — not
// safe concurrently with AddDevice or Command.
func (c *Collective) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	c.metrics = reg
	c.tracer = tracer
	c.commands = nil
	c.deliveries = nil
	if reg != nil {
		c.commands = reg.Counter("core.commands")
		c.deliveries = reg.Counter("core.deliveries")
	}
	for _, d := range c.Devices() {
		d.InstrumentPolicies(reg)
	}
}

// Tracer returns the collective's tracer (nil when untraced).
func (c *Collective) Tracer() *telemetry.Tracer { return c.tracer }

// Name returns the collective's name.
func (c *Collective) Name() string { return c.name }

// Audit returns the shared audit log.
func (c *Collective) Audit() *audit.Log { return c.log }

// KillSwitch returns the collective's deactivation authority. Devices
// must be constructed with this switch to be deactivatable.
func (c *Collective) KillSwitch() *guard.KillSwitch { return c.kill }

// Registry returns the discovery registry.
func (c *Collective) Registry() *network.Registry { return c.registry }

// Coalition returns the organization model.
func (c *Collective) Coalition() *coalition.Coalition { return c.coalition }

// Watchdog returns the deactivation watchdog.
func (c *Collective) Watchdog() *guard.Watchdog { return c.watchdog }

// AddDevice admits a device into the collective: the admission
// controller (if any) assesses the resulting aggregate configuration,
// the device is attached to the bus, and its advertisement is
// announced to the registry.
func (c *Collective) AddDevice(d *device.Device, attrs map[string]float64) error {
	if d == nil {
		return errors.New("core: nil device")
	}
	c.mu.Lock()
	if _, dup := c.devices[d.ID()]; dup {
		c.mu.Unlock()
		return fmt.Errorf("core: device %q already in collective", d.ID())
	}
	c.mu.Unlock()

	if c.admission != nil {
		// Snapshot member states only when something will assess them:
		// on an ungated collective the snapshot is O(members) copies
		// per join — quadratic in fleet size.
		c.mu.Lock()
		members := make([]statespace.State, 0, len(c.devices))
		for _, m := range c.devices {
			members = append(members, m.CurrentState())
		}
		c.mu.Unlock()
		admitted, reason := c.admission.Admit(d.ID(), members, d.CurrentState())
		if !admitted {
			return fmt.Errorf("%w: %s", ErrAdmissionRefused, reason)
		}
	}
	if err := c.bus.AttachLane(d.ID(), c.handlerFor(d.ID())); err != nil {
		return fmt.Errorf("core: %w", err)
	}

	c.mu.Lock()
	c.devices[d.ID()] = d
	c.sorted = nil
	c.mu.Unlock()

	if c.metrics != nil {
		d.InstrumentPolicies(c.metrics)
	}

	return c.registry.Announce(network.DeviceInfo{
		ID:           d.ID(),
		Type:         d.Type(),
		Organization: d.Organization(),
		Attrs:        attrs,
	})
}

// RemoveDevice detaches a device and reports whether it was present.
func (c *Collective) RemoveDevice(id string) bool {
	c.mu.Lock()
	_, ok := c.devices[id]
	delete(c.devices, id)
	if ok {
		c.sorted = nil
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	c.mu.Lock()
	delete(c.bundleHandlers, id)
	c.mu.Unlock()
	c.bus.Detach(id)
	c.registry.Depart(id)
	return true
}

// SetBundleHandler routes bus messages on bundle topics ("bundle",
// "bundle_ack", "bundle_pull") addressed to the given member to h,
// sharing the member's single bus endpoint so partitions and faults
// affect policy distribution exactly as they affect every other
// message. The distribution plane (Distributor.Enroll) registers these;
// a nil handler unregisters.
func (c *Collective) SetBundleHandler(deviceID string, h network.LaneHandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h == nil {
		delete(c.bundleHandlers, deviceID)
		return
	}
	c.bundleHandlers[deviceID] = h
}

// Device returns a member by ID.
func (c *Collective) Device(id string) (*device.Device, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.devices[id]
	return d, ok
}

// Devices returns the members sorted by ID. The result is a fresh
// slice backed by a cache that is re-sorted only after membership
// changes.
func (c *Collective) Devices() []*device.Device {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sorted == nil {
		c.sorted = make([]*device.Device, 0, len(c.devices))
		for _, d := range c.devices {
			c.sorted = append(c.sorted, d)
		}
		slices.SortFunc(c.sorted, func(a, b *device.Device) int { return cmp.Compare(a.ID(), b.ID()) })
	}
	out := make([]*device.Device, len(c.sorted))
	copy(out, c.sorted)
	return out
}

// MemberStates returns the current state of every member, ordered by
// device ID.
func (c *Collective) MemberStates() []statespace.State {
	devices := c.Devices()
	out := make([]statespace.State, len(devices))
	for i, d := range devices {
		out[i] = d.CurrentState()
	}
	return out
}

// ActiveCount returns the number of members not deactivated.
func (c *Collective) ActiveCount() int {
	n := 0
	for _, d := range c.Devices() {
		if !d.Deactivated() {
			n++
		}
	}
	return n
}

// Deliver sends an event to one member and returns its executions.
// Guard denials observed in the executions are reported to the
// watchdog.
func (c *Collective) Deliver(target string, ev policy.Event) ([]device.Execution, error) {
	return c.DeliverWith(target, ev, nil)
}

// DeliverWith is Deliver with an audit journal: the delivery's audit
// appends are routed through j (a sim.Lane in parallel runs) so they
// merge deterministically. Everything else a delivery touches — the
// target device's state, the delivery counter, the watchdog's denial
// tally — is either owned by the target or commutative, so DeliverWith
// is safe from events sharded by target ID.
func (c *Collective) DeliverWith(target string, ev policy.Event, j audit.Journal) ([]device.Execution, error) {
	c.mu.Lock()
	d, ok := c.devices[target]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, target)
	}
	c.deliveries.Inc()
	execs, err := d.HandleEventWith(ev, j)
	if err != nil {
		return nil, err
	}
	for _, e := range execs {
		if !e.Verdict.Allowed() {
			c.watchdog.ObserveDenial(target)
		}
	}
	return execs, nil
}

// AdmitCommand is the one admission gate on the human-command path:
// the control-plane server and the Dispatcher both call it once per
// target before delivery. A nil controller admits everything. A shed
// target is never dropped silently: it is counted under
// core.command_shed{cause} and audited as a KindAdmission entry
// carrying the target, the cause and, when sc is valid, the trace ID.
// It returns the shed cause, or "" when the target is admitted.
func (c *Collective) AdmitCommand(ctrl *admission.Controller, source, target string, sc telemetry.SpanContext) string {
	if ctrl == nil {
		return ""
	}
	err := ctrl.Allow(target, admission.ClassHuman)
	if err == nil {
		return ""
	}
	cause := admission.CauseOf(err)
	c.metrics.Counter("core.command_shed", "cause", cause).Inc()
	ctx := map[string]string{"target": target, "cause": cause}
	if sc.Valid() {
		ctx[audit.TraceKey] = sc.Trace.String()
	}
	c.log.Append(audit.KindAdmission, source, fmt.Sprintf("command to %s shed (%s)", target, cause), ctx)
	return cause
}

// Command broadcasts a human command (Figure 1) to every active member
// and returns each member's executions, keyed by device ID. With a
// tracer attached, each command opens a root span ("core.command") and
// every per-device delivery inherits its trace, so the whole
// decomposition is followable by one TraceID.
func (c *Collective) Command(ev policy.Event) map[string][]device.Execution {
	c.commands.Inc()
	source := ev.Source
	if source == "" {
		source = "human"
	}
	span := c.tracer.StartSpan("core.command", source, telemetry.Extract(ev.Labels))
	span.SetAttr("event", ev.Type)
	if sc := span.Context(); sc.Valid() {
		ev.Labels = telemetry.Inject(sc, cloneLabels(ev.Labels))
	}
	out := make(map[string][]device.Execution)
	for _, d := range c.Devices() {
		execs, err := c.Deliver(d.ID(), ev)
		if err != nil {
			continue // deactivated devices do not act
		}
		if len(execs) > 0 {
			out[d.ID()] = execs
		}
	}
	span.Finish()
	return out
}

// cloneLabels copies an event's labels so trace injection never
// mutates a caller-owned (possibly shared) map.
func cloneLabels(labels map[string]string) map[string]string {
	if labels == nil {
		return nil
	}
	out := make(map[string]string, len(labels)+2)
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// SweepWatchdog runs one watchdog pass over all members.
func (c *Collective) SweepWatchdog() (deactivated, failed []string) {
	devices := c.Devices()
	targets := make([]guard.Deactivatable, len(devices))
	for i, d := range devices {
		targets[i] = d
	}
	return c.watchdog.Sweep(targets)
}

// handlerFor adapts bus messages carrying policy.Event payloads into
// DeliverWith, so a bus delivery is counted and feeds the watchdog
// exactly like a direct one. It is a lane handler — deliveries are
// sharded by recipient device — so it touches only the member itself,
// commutative tallies, and the audit log via the lane.
func (c *Collective) handlerFor(id string) network.LaneHandler {
	return func(m network.Message, lane *sim.Lane) {
		if strings.HasPrefix(m.Topic, "bundle") {
			c.mu.Lock()
			h := c.bundleHandlers[id]
			c.mu.Unlock()
			if h != nil {
				h(m, lane)
			}
			return
		}
		ev, ok := m.Payload.(policy.Event)
		if !ok {
			return
		}
		if ev.Source == "" {
			ev.Source = m.From
		}
		// The explicit nil check keeps the journal interface nil (not a
		// typed-nil *sim.Lane) for synchronous deliveries.
		var j audit.Journal
		if lane != nil {
			j = lane
		}
		if _, err := c.DeliverWith(id, ev, j); err != nil {
			// A deactivated or departed member refuses the event; the
			// bus has booked the message as delivered.
			return
		}
	}
}

// RouterFor returns an actuator that converts a device's targeted
// actions into events delivered to the target device over the bus —
// the collaboration channel of Figures 1 and 2 ("a device can call
// upon and dispatch other devices with additional capabilities").
// Actions without a target are accepted and dropped. The router is a
// TracedActuator: the dispatching device's span context is injected
// into the forwarded event's labels, so the receiving device's spans
// stay in the originating command's trace across the hop.
func (c *Collective) RouterFor(from string) device.Actuator {
	send := func(a policy.Action, sc telemetry.SpanContext) error {
		if a.Target == "" {
			return nil
		}
		ev := policy.Event{Type: a.Name, Source: from}
		if len(a.Params) > 0 {
			ev.Labels = make(map[string]string, len(a.Params)+2)
			for k, v := range a.Params {
				ev.Labels[k] = v
			}
		}
		ev.Labels = telemetry.Inject(sc, ev.Labels)
		return c.bus.Send(nil, network.Message{From: from, To: a.Target, Topic: "action", Payload: ev})
	}
	return device.ActuatorFunc{
		Label:    "router:" + from,
		Fn:       func(a policy.Action) error { return send(a, telemetry.SpanContext{}) },
		TracedFn: send,
	}
}
