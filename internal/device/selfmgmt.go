package device

import (
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/statespace"
)

// DefaultRepairEvent is the event type a Manager raises when the
// device needs attention.
const DefaultRepairEvent = "self-state-alert"

// Manager runs the autonomic self-management loop for one device —
// the paper's requirement that devices "repair themselves ... and deal
// in an autonomous manner with failures" (Section II). Each Tick is
// one MAPE pass:
//
//	Monitor  — read sensors into the state,
//	Analyze  — classify the state (good / neutral / bad),
//	Plan     — if the state is bad (or safeness is in monotone
//	           decline), raise a repair event,
//	Execute  — let the device's policies handle the event, through
//	           its guard.
type Manager struct {
	// Device is the managed device (required).
	Device *Device
	// Classifier analyzes the device state (required).
	Classifier statespace.Classifier
	// Metric enables cumulative-decline detection; nil disables it.
	Metric statespace.SafenessMetric
	// DeclineWindow is the number of consecutive declining transitions
	// that triggers a repair event (default 3, used only with Metric).
	DeclineWindow int
	// RepairEventType overrides DefaultRepairEvent.
	RepairEventType string

	// attrs and execBuf are the tick's reused event-attribute map and
	// execution slice; the Executions of a Report are valid only until
	// the next tick. They live on the Manager, not under the device's
	// lock — hmu is released while actuators run — so ticks of one
	// Manager must not overlap. The orchestrator runs each device's
	// ticks on that device's own shard, which guarantees this.
	attrs   map[string]float64
	execBuf []Execution
}

// TickReport summarizes one MAPE pass.
type TickReport struct {
	// Class is the analyzed state class.
	Class statespace.Class
	// Alerted reports whether a repair event was raised.
	Alerted bool
	// Executions are the actions taken in response.
	Executions []Execution
	// SenseErr carries sensor failures (the loop continues past
	// them).
	SenseErr error
}

// Tick runs one MAPE pass at the given time.
func (m *Manager) Tick(now time.Time) (TickReport, error) {
	return m.TickWith(now, nil)
}

// TickWith is Tick with an audit journal, making the pass shard-safe
// for the engine's parallel mode (one shard per device ID). A tick
// touches only:
//
//   - the device's own state, trajectory, sensors and actuators
//     (serialized by the device mutex; exclusive because at most one
//     event per shard runs at a time),
//   - the device's compiled policy snapshot (immutable, lock-free),
//   - telemetry counters and device-labeled gauges (atomic and
//     commutative, so snapshots stay deterministic at any worker
//     count),
//   - the shared audit log — only through the journal, which buffers
//     appends for the engine's deterministic (time, seq) merge.
//
// Ticks must not mutate other devices, un-labeled gauges, or shared
// maps/slices; anything outside this list belongs in a barrier
// (unkeyed) event.
func (m *Manager) TickWith(now time.Time, j audit.Journal) (TickReport, error) {
	d := m.Device
	d.hmu.Lock()
	defer d.hmu.Unlock()
	var report TickReport
	report.SenseErr = d.sense()
	if report.SenseErr == ErrDeactivated {
		return report, ErrDeactivated
	}
	// Analyze the live view in place: we hold hmu, so the scratch it
	// aliases is not mutated under the classifier.
	st := d.scratch.Cur()
	report.Class = m.Classifier.Classify(st)

	alert := report.Class == statespace.ClassBad
	if !alert && m.Metric != nil {
		window := m.DeclineWindow
		if window <= 0 {
			window = 3
		}
		alert = d.TrajectoryDecline(m.Metric, window)
	}
	if !alert {
		return report, nil
	}

	report.Alerted = true
	eventType := m.RepairEventType
	if eventType == "" {
		eventType = DefaultRepairEvent
	}
	if m.attrs == nil {
		m.attrs = make(map[string]float64, 2)
	}
	clear(m.attrs)
	m.attrs["class"] = float64(report.Class)
	if m.Metric != nil {
		m.attrs["safeness"] = m.Metric.Safeness(st)
	}
	ev := policy.Event{
		Type:   eventType,
		Source: d.ID(),
		Time:   now,
		Attrs:  m.attrs,
	}
	if m.execBuf == nil {
		m.execBuf = make([]Execution, 0, 4)
	}
	execs, err := d.handleEvent(ev, j, m.execBuf)
	if execs != nil {
		m.execBuf = execs
	}
	report.Executions = execs
	return report, err
}
