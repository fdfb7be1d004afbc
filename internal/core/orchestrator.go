package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statespace"
)

// Orchestrator drives a collective on the discrete-event engine: each
// device's autonomic (MAPE-K) loop ticks on its own period, the
// watchdog sweeps on another, and scripted events arrive at their
// scheduled times — the runtime shape of the paper's self-managing
// fleet ("the devices would need to be self-managing", Section II).
type Orchestrator struct {
	collective *Collective
	engine     *sim.Engine

	mu       sync.Mutex
	managers map[string]*device.Manager
}

// NewOrchestrator builds an orchestrator over the collective and
// engine. When the collective has a telemetry Registry, the engine
// records its parallel-segment series there (sim.Engine.Instrument).
func NewOrchestrator(collective *Collective, engine *sim.Engine) (*Orchestrator, error) {
	if collective == nil || engine == nil {
		return nil, errors.New("core: orchestrator needs a collective and an engine")
	}
	if collective.metrics != nil {
		engine.Instrument(collective.metrics)
	}
	return &Orchestrator{
		collective: collective,
		engine:     engine,
		managers:   make(map[string]*device.Manager, collective.expected),
	}, nil
}

// Manage schedules a device's autonomic loop every period. The
// classifier drives the Analyze phase; the optional metric enables
// decline detection.
func (o *Orchestrator) Manage(deviceID string, period time.Duration,
	classifier statespace.Classifier, metric statespace.SafenessMetric) error {
	d, ok := o.collective.Device(deviceID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, deviceID)
	}
	o.mu.Lock()
	if _, dup := o.managers[deviceID]; dup {
		o.mu.Unlock()
		return fmt.Errorf("core: device %q already managed", deviceID)
	}
	if period <= 0 {
		o.mu.Unlock()
		return fmt.Errorf("core: management period must be positive, got %v", period)
	}
	m := &device.Manager{Device: d, Classifier: classifier, Metric: metric}
	o.managers[deviceID] = m
	o.mu.Unlock()
	// The tick is sharded by device ID: each device's MAPE loop owns
	// its own state and its audit appends route through the lane — so a
	// parallel engine runs different devices' ticks concurrently without
	// losing determinism.
	o.engine.ScheduleEveryShard(period, deviceID,
		func() bool {
			// The loop dies when the device deactivates, crashes out of
			// the collective, or was replaced by a restarted instance;
			// freeing the manager slot lets the recovered instance be
			// managed under the same ID.
			current, present := o.collective.Device(deviceID)
			if !present || current != d || d.Deactivated() {
				o.unmanage(deviceID, m)
				return false
			}
			return true
		},
		func(lane *sim.Lane) {
			// A deactivated device simply stops ticking; other errors
			// surface through the device's audit trail.
			_, _ = m.TickWith(o.engine.Clock().Now(), lane)
		})
	return nil
}

// unmanage frees the manager slot if it still belongs to m.
func (o *Orchestrator) unmanage(deviceID string, m *device.Manager) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.managers[deviceID] == m {
		delete(o.managers, deviceID)
	}
}

// CommandEvery dispatches the event returned by next through the
// resilient dispatcher on the given period, until the predicate
// (nil = forever within the horizon) returns false — the command
// decomposition of Figure 1 running on the same engine as the
// autonomic loops, with retries, breakers and deadlines applied per
// delivery.
func (o *Orchestrator) CommandEvery(period time.Duration, while func() bool,
	d *Dispatcher, next func() policy.Event) {
	o.engine.ScheduleEvery(period, while, func() {
		d.Command(next())
	})
}

// SweepEvery schedules watchdog sweeps on the given period, until the
// predicate (nil = forever within the horizon) returns false.
func (o *Orchestrator) SweepEvery(period time.Duration, while func() bool) {
	o.engine.ScheduleEvery(period, while, func() {
		o.collective.SweepWatchdog()
	})
}

// Run processes scheduled work until the horizon.
func (o *Orchestrator) Run(horizon time.Time) error {
	return o.engine.Run(horizon)
}
