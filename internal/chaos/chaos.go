// Package chaos is a deterministic fault-injection harness for the
// collective: it drives the bus's loss/partition/duplication/latency
// knobs, crashes and restarts devices, and skews the simulation clock,
// all on the discrete-event engine so runs stay reproducible given a
// seed. Experiments use it to show the paper's guard invariants
// (Sections VI–VII) hold while the collective is degraded, not just
// while it is healthy.
//
// Every injected fault and every heal is counted in the metrics
// registry under chaos.<fault>_injected / chaos.<fault>_healed, making
// the fault model observable alongside the bus's own delivery
// accounting.
package chaos

import (
	"strings"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Injector carries the handles faults act on.
type Injector struct {
	// Engine schedules fault onset and healing (required).
	Engine *sim.Engine
	// Bus is the message substrate network faults manipulate; required
	// by Loss, Partition, Duplication and SlowLinks.
	Bus *network.Bus
	// Metrics counts injections and heals; may be nil.
	Metrics *telemetry.Registry
}

// Count increments a chaos metric. Fault-local names like
// "loss.injected" land in the registry as chaos.loss_injected — one
// dot, per the subsystem.name convention.
func (inj *Injector) Count(name string) {
	inj.Metrics.Counter("chaos." + strings.ReplaceAll(name, ".", "_")).Inc()
}

// Fault is one injectable failure mode. Inject schedules the fault's
// onset (and healing, for transient faults) on the injector's engine.
type Fault interface {
	// Name labels the fault in metrics and experiment tables.
	Name() string
	// Inject schedules the fault.
	Inject(inj *Injector)
}

// Loss raises the bus loss probability at At and restores lossless
// delivery after For (0 = for the rest of the run).
type Loss struct {
	Prob float64
	At   time.Duration
	For  time.Duration
}

// Name labels the fault.
func (Loss) Name() string { return "loss" }

// Inject schedules the loss window.
func (f Loss) Inject(inj *Injector) {
	inj.Engine.Schedule(f.At, func() {
		inj.Bus.SetLoss(f.Prob)
		inj.Count("loss.injected")
	})
	if f.For > 0 {
		inj.Engine.Schedule(f.At+f.For, func() {
			inj.Bus.SetLoss(0)
			inj.Count("loss.healed")
		})
	}
}

// Partition splits the bus into groups at At and heals after For
// (0 = never heals).
type Partition struct {
	Groups map[string]int
	At     time.Duration
	For    time.Duration
}

// Name labels the fault.
func (Partition) Name() string { return "partition" }

// Inject schedules the partition window.
func (f Partition) Inject(inj *Injector) {
	inj.Engine.Schedule(f.At, func() {
		inj.Bus.Partition(f.Groups)
		inj.Count("partition.injected")
	})
	if f.For > 0 {
		inj.Engine.Schedule(f.At+f.For, func() {
			inj.Bus.Heal()
			inj.Count("partition.healed")
		})
	}
}

// OneWayPartition blocks messages from the From nodes to the To nodes
// — but not the reverse — at At, healing after For (0 = never heals).
// Symmetric partitions hide the push-succeeded/ack-lost case: a
// distribution push can arrive while the acknowledgement dies on the
// return path, leaving the sender convinced the receiver is stale (or,
// with the directions swapped, leaving the receiver stranded while the
// sender believes it converged). Anti-entropy repair exists for exactly
// this asymmetry, so the harness must be able to inject it.
type OneWayPartition struct {
	From, To []string
	At       time.Duration
	For      time.Duration
}

// Name labels the fault.
func (OneWayPartition) Name() string { return "oneway" }

// Inject schedules the one-way block window.
func (f OneWayPartition) Inject(inj *Injector) {
	inj.Engine.Schedule(f.At, func() {
		inj.Bus.PartitionOneWay(f.From, f.To)
		inj.Count("oneway.injected")
	})
	if f.For > 0 {
		inj.Engine.Schedule(f.At+f.For, func() {
			inj.Bus.HealOneWay()
			inj.Count("oneway.healed")
		})
	}
}

// Duplication makes the bus deliver messages twice (with independent
// latency, so duplicates also reorder) between At and At+For.
type Duplication struct {
	Prob float64
	At   time.Duration
	For  time.Duration
}

// Name labels the fault.
func (Duplication) Name() string { return "duplication" }

// Inject schedules the duplication window.
func (f Duplication) Inject(inj *Injector) {
	inj.Engine.Schedule(f.At, func() {
		inj.Bus.SetDuplication(f.Prob)
		inj.Count("duplication.injected")
	})
	if f.For > 0 {
		inj.Engine.Schedule(f.At+f.For, func() {
			inj.Bus.SetDuplication(0)
			inj.Count("duplication.healed")
		})
	}
}

// SlowLinks stretches bus delivery latency to [Min, Max] between At
// and At+For, then restores instant delivery.
type SlowLinks struct {
	Min, Max time.Duration
	At       time.Duration
	For      time.Duration
}

// Name labels the fault.
func (SlowLinks) Name() string { return "slowlinks" }

// Inject schedules the slow window.
func (f SlowLinks) Inject(inj *Injector) {
	inj.Engine.Schedule(f.At, func() {
		inj.Bus.SetLatency(f.Min, f.Max)
		inj.Count("slowlinks.injected")
	})
	if f.For > 0 {
		inj.Engine.Schedule(f.At+f.For, func() {
			inj.Bus.SetLatency(0, 0)
			inj.Count("slowlinks.healed")
		})
	}
}

// ClockSkew jumps the virtual clock forward by Jump every Every,
// Count times — events already queued at earlier timestamps then fire
// "late", the discrete-event analogue of a drifting clock. Guard
// decisions and the audit chain must be insensitive to it.
type ClockSkew struct {
	Jump  time.Duration
	Every time.Duration
	Count int
}

// Name labels the fault.
func (ClockSkew) Name() string { return "skew" }

// Inject schedules the clock jumps.
func (f ClockSkew) Inject(inj *Injector) {
	for i := 1; i <= f.Count; i++ {
		inj.Engine.Schedule(f.Every*time.Duration(i), func() {
			inj.Engine.Clock().Advance(f.Jump)
			inj.Count("skew.injected")
		})
	}
}

// CrashRestart abruptly removes a device at At and restarts it
// RestartAfter later (0 = never restarts). The hooks keep the package
// decoupled from the collective: Crash typically removes the device
// from the collective (detaching it from the bus mid-flight), and
// Restart rebuilds it from its latest audit-journal checkpoint via
// resilience.Recover.
type CrashRestart struct {
	DeviceID     string
	At           time.Duration
	RestartAfter time.Duration
	// Crash kills the device (required).
	Crash func(id string)
	// Restart recovers the device; an error counts as a failed
	// recovery in the metrics.
	Restart func(id string) error
}

// Name labels the fault.
func (CrashRestart) Name() string { return "crash" }

// Inject schedules the crash and the restart.
func (f CrashRestart) Inject(inj *Injector) {
	inj.Engine.Schedule(f.At, func() {
		f.Crash(f.DeviceID)
		inj.Count("crash.injected")
	})
	if f.RestartAfter > 0 && f.Restart != nil {
		inj.Engine.Schedule(f.At+f.RestartAfter, func() {
			if err := f.Restart(f.DeviceID); err != nil {
				inj.Count("crash.restart.failed")
				return
			}
			inj.Count("crash.restarted")
		})
	}
}
