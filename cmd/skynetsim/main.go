// Command skynetsim runs a JSON scenario through the full framework: a
// collective of guarded devices receives a scripted event stream while
// the watchdog sweeps, and the tool reports safety metrics and the
// audit trail summary.
//
// Usage:
//
//	skynetsim [flags] scenario.json
//
// Flags:
//
//	--metrics-addr addr   serve /metrics, /traces and /healthz on addr
//	                      (e.g. :9090) for the duration of the run
//	--trace-out file      write the span ring buffer as JSONL on exit
//	--linger d            keep the process (and metrics server) alive
//	                      for d after the scenario completes
//	--parallelism n       run the event stream on the discrete-event
//	                      engine with n workers: deliveries are sharded
//	                      per target device, watchdog sweeps are serial
//	                      barriers, and the audit journal is stamped
//	                      with virtual time. The summary is the same at
//	                      any worker count, but the journal is not yet
//	                      reproducible: traced entries carry span IDs
//	                      taken in the order workers reach the Tracer
//	                      (see "Determinism by construction" in
//	                      ROADMAP.md). Incompatible with a chaos block,
//	                      whose fault sampling is
//	                      delivery-order-dependent.
//
// Scenario format:
//
//	{
//	  "name": "demo",
//	  "badHeatAt": 80,
//	  "denialThreshold": 3,
//	  "sweepEvery": 2,
//	  "devices": [
//	    {"id": "d1", "type": "drone", "org": "us", "heat": 20,
//	     "policies": "policy work: on tick do run effect heat += 15"}
//	  ],
//	  "events": [
//	    {"type": "tick", "target": "d1", "repeat": 10}
//	  ]
//	}
//
// Targets may be "*" (all devices). Guards are the standard pipeline
// with a state-space check at badHeatAt.
//
// An optional "chaos" block degrades delivery: events then flow over
// the in-memory bus with the configured loss/duplication and the
// resilience stack (bounded retries, per-device circuit breakers),
// and one device can crash mid-run and be recovered from its latest
// audit-journal checkpoint:
//
//	"chaos": {"loss": 0.3, "duplication": 0.1, "maxAttempts": 4,
//	          "crashDevice": "d1", "crashAtStep": 3, "restartAtStep": 8}
//
// An optional "saturation" block puts the admission controller in
// front of delivery: events then flow over the bus into bounded,
// rate-limited per-device intake queues, overload is shed with typed
// causes instead of lost, and the run reports the exact conservation
// accounting (sent == delivered + dropped + shed). The scenario runs
// on the discrete-event engine even at --parallelism 1 (queues drain
// in batched engine events), and the block is incompatible with
// "chaos", whose serial crash/restart path bypasses the engine:
//
//	"saturation": {"queueCapacity": 8, "rate": 2, "burst": 2,
//	               "drainBatch": 4, "drainIntervalMs": 100}
//
// An optional "bundle" block distributes the fleet's policies as
// signed, versioned bundles before the event stream runs: every device
// enrolls with the distributor, each listed revision is compiled,
// published and repaired to convergence over a (possibly lossy) bus,
// and tampered pushes injected afterwards must all be refused
// fail-closed with the fleet unmoved. Incompatible with "chaos" and
// "saturation", which own the bus differently:
//
//	"bundle": {"revisions": ["policy work: on tick do run ..."],
//	           "loss": 0.3, "corruptPushes": 2}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

type scenario struct {
	Name            string  `json:"name"`
	BadHeatAt       float64 `json:"badHeatAt"`
	DenialThreshold int     `json:"denialThreshold"`
	SweepEvery      int     `json:"sweepEvery"`
	// Variables optionally defines a custom state schema; empty keeps
	// the default heat/fuel schema with the badHeatAt classifier.
	Variables []statespace.VariableSpec `json:"variables"`
	// BadWhen optionally defines the bad region as a disjunction of
	// threshold conditions over the custom schema.
	BadWhen []badCondition `json:"badWhen"`
	Devices []deviceSpec   `json:"devices"`
	Events  []eventSpec    `json:"events"`
	// Chaos optionally injects faults; nil keeps direct, lossless
	// delivery.
	Chaos *chaosSpec `json:"chaos"`
	// Saturation optionally bounds intake behind the admission
	// controller; nil keeps unbounded delivery.
	Saturation *saturationSpec `json:"saturation"`
	// Bundle optionally distributes policies as signed bundles before
	// the event stream; nil keeps per-device policy sources.
	Bundle *bundleSpec `json:"bundle"`
}

type bundleSpec struct {
	// Revisions are policylang sources; revision i+1 is compiled and
	// published as one signed bundle that replaces revision i's set.
	Revisions []string `json:"revisions"`
	// Loss is the per-message drop probability on the distribution bus;
	// anti-entropy repair sweeps close the resulting gaps.
	Loss float64 `json:"loss"`
	// Seed drives the fault randomness (default 1).
	Seed int64 `json:"seed"`
	// MaxSweeps bounds repair sweeps per revision (default 16).
	MaxSweeps int `json:"maxSweeps"`
	// CorruptPushes injects that many tampered pushes after
	// distribution; every one must be rejected fail-closed.
	CorruptPushes int `json:"corruptPushes"`
}

type saturationSpec struct {
	// QueueCapacity bounds each device's intake queue (default 64).
	QueueCapacity int `json:"queueCapacity"`
	// Rate is the per-device token refill in tokens per (virtual)
	// second; 0 disables rate limiting.
	Rate float64 `json:"rate"`
	// Burst is the token bucket capacity (default max(rate, 1)).
	Burst float64 `json:"burst"`
	// DrainBatch bounds how many queued events one drain pass delivers
	// (default 32).
	DrainBatch int `json:"drainBatch"`
	// DrainIntervalMs is the redrain period in virtual milliseconds
	// (default 1).
	DrainIntervalMs int `json:"drainIntervalMs"`
}

type chaosSpec struct {
	// Loss and Duplication are per-message probabilities on the bus.
	Loss        float64 `json:"loss"`
	Duplication float64 `json:"duplication"`
	// MaxAttempts bounds delivery retries (default 3).
	MaxAttempts int `json:"maxAttempts"`
	// Seed drives the fault randomness (default 1).
	Seed int64 `json:"seed"`
	// CrashDevice is removed at CrashAtStep and, when RestartAtStep is
	// set, recovered from its latest checkpoint at that step.
	CrashDevice   string `json:"crashDevice"`
	CrashAtStep   int    `json:"crashAtStep"`
	RestartAtStep int    `json:"restartAtStep"`
}

type badCondition struct {
	Variable string  `json:"variable"`
	Op       string  `json:"op"` // one of < <= > >= == !=
	Value    float64 `json:"value"`
}

type deviceSpec struct {
	ID   string  `json:"id"`
	Type string  `json:"type"`
	Org  string  `json:"org"`
	Heat float64 `json:"heat"`
	// State sets initial values by variable name (custom schemas).
	State    map[string]float64 `json:"state"`
	Policies string             `json:"policies"`
	// Unguarded disables the device's guard (an experimental control
	// or a compromised device).
	Unguarded bool `json:"unguarded"`
}

type eventSpec struct {
	Type   string             `json:"type"`
	Target string             `json:"target"`
	Attrs  map[string]float64 `json:"attrs"`
	Repeat int                `json:"repeat"`
}

func main() {
	args := os.Args[1:]
	cmd := run
	if len(args) > 0 && args[0] == "serve" {
		cmd = runServe
		args = args[1:]
	}
	if err := cmd(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "skynetsim:", err)
		os.Exit(1)
	}
}

// loadScenario reads, parses and defaults a scenario file.
func loadScenario(path string) (scenario, error) {
	var sc scenario
	data, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	if err := json.Unmarshal(data, &sc); err != nil {
		return sc, fmt.Errorf("parse scenario: %w", err)
	}
	if sc.BadHeatAt <= 0 {
		sc.BadHeatAt = 80
	}
	if sc.SweepEvery <= 0 {
		sc.SweepEvery = 1
	}
	return sc, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("skynetsim", flag.ContinueOnError)
	fs.SetOutput(out)
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /traces and /healthz on this address")
	traceOut := fs.String("trace-out", "", "write finished spans as JSONL to this file on exit")
	linger := fs.Duration("linger", 0, "keep the process (and metrics server) alive this long after the run")
	parallelism := fs.Int("parallelism", 1, "engine workers for sharded event delivery (1 = serial, no engine)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: skynetsim [flags] <scenario.json>")
	}
	sc, err := loadScenario(fs.Arg(0))
	if err != nil {
		return err
	}

	// One registry and one tracer back everything: framework telemetry,
	// experiment tallies, the exposition endpoint and the JSONL export.
	registry := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.WithTracerMetrics(registry))

	var server *telemetry.Server
	if *metricsAddr != "" {
		server, err = telemetry.Serve(*metricsAddr, registry, tracer)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer server.Close()
		fmt.Fprintf(out, "serving metrics on http://%s/metrics\n", server.Addr())
	}

	schema, classifier, err := buildStateModel(sc)
	if err != nil {
		return err
	}
	if *parallelism > 1 && sc.Chaos != nil {
		return fmt.Errorf("--parallelism cannot be combined with a chaos block: bus fault sampling is delivery-order-dependent")
	}
	if sc.Saturation != nil && sc.Chaos != nil {
		return fmt.Errorf("a saturation block cannot be combined with a chaos block: admission drains on the engine, chaos crash/restart runs serially")
	}
	if sc.Bundle != nil && (sc.Chaos != nil || sc.Saturation != nil) {
		return fmt.Errorf("a bundle block cannot be combined with a chaos or saturation block: each configures the bus differently")
	}
	if sc.Bundle != nil && *parallelism > 1 {
		return fmt.Errorf("--parallelism cannot be combined with a bundle block: bus fault sampling is delivery-order-dependent")
	}
	// In parallel mode — and under a saturation block, whose intake
	// queues drain in batched engine events — the scenario runs on the
	// discrete-event engine and the journal is stamped with virtual
	// time. Its hash chain is still not reproducible at two or more
	// workers: the tracer below hands traced entries span IDs from one
	// counter, in whatever order the workers reach it (see
	// "Determinism by construction" in ROADMAP.md).
	var (
		clock  *sim.Clock
		engine *sim.Engine
	)
	var logOpts []audit.Option
	if *parallelism > 1 || sc.Saturation != nil {
		clock = sim.NewClock(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC))
		engine = sim.NewEngine(clock)
		engine.SetParallelism(*parallelism)
		logOpts = append(logOpts, audit.WithClock(clock.Now))
	}
	log := audit.New(logOpts...)
	coreCfg := core.Config{
		Name:            sc.Name,
		Audit:           log,
		KillSecret:      []byte("skynetsim-" + sc.Name),
		Classifier:      classifier,
		DenialThreshold: sc.DenialThreshold,
		Telemetry:       registry,
		Tracer:          tracer,
	}

	// With a chaos block, events travel over a lossy bus behind the
	// resilience stack instead of being delivered directly.
	var (
		bus    *network.Bus
		sender *network.ReliableSender
	)
	if sc.Chaos != nil {
		seed := sc.Chaos.Seed
		if seed == 0 {
			seed = 1
		}
		attempts := sc.Chaos.MaxAttempts
		if attempts <= 0 {
			attempts = 3
		}
		bus = network.NewBus(rand.New(rand.NewSource(seed)),
			network.WithLoss(sc.Chaos.Loss),
			network.WithDuplication(sc.Chaos.Duplication),
			network.WithMetrics(registry))
		sender = &network.ReliableSender{
			Bus: bus,
			Retry: resilience.Retry{
				MaxAttempts: attempts,
				Sleep:       func(time.Duration) {},
				Rand:        rand.New(rand.NewSource(seed + 1)).Float64,
			},
			Breakers: &resilience.BreakerSet{Threshold: 3, Cooldown: time.Minute},
			Metrics:  registry,
		}
		coreCfg.Bus = bus
	}

	// With a bundle block, policy distribution travels over a lossy bus
	// while the event stream itself stays on direct delivery — the bus
	// carries only bundle pushes, acks and pulls.
	if sc.Bundle != nil {
		seed := sc.Bundle.Seed
		if seed == 0 {
			seed = 1
		}
		bus = network.NewBus(rand.New(rand.NewSource(seed)),
			network.WithLoss(sc.Bundle.Loss),
			network.WithMetrics(registry))
		coreCfg.Bus = bus
	}

	// With a saturation block, events travel over an admission-bounded
	// bus: each device gets a bounded, rate-limited intake queue that
	// drains in batched engine events, and overload is shed with typed
	// causes — never lost silently.
	var intake *admission.Controller
	if sat := sc.Saturation; sat != nil {
		intake, err = admission.New(admission.Config{
			QueueCapacity: sat.QueueCapacity,
			Rate:          sat.Rate,
			Burst:         sat.Burst,
			Now:           clock.Now,
			DrainBatch:    sat.DrainBatch,
			DrainInterval: time.Duration(sat.DrainIntervalMs) * time.Millisecond,
			Metrics:       registry,
		})
		if err != nil {
			return err
		}
		bus = network.NewBus(nil,
			network.WithEngine(engine),
			network.WithMetrics(registry),
			network.WithAdmission(intake))
	}
	collective, err := core.New(coreCfg)
	if err != nil {
		return err
	}

	guardFor := func(spec deviceSpec) guard.Guard {
		if spec.Unguarded {
			return nil
		}
		return core.StandardPipeline(core.SafetyConfig{
			Audit:      log,
			Classifier: classifier,
			Telemetry:  registry,
			Tracer:     tracer,
		})
	}

	specByID := make(map[string]deviceSpec, len(sc.Devices))
	if err := buildFleet(sc, schema, collective, guardFor, log, registry, tracer, specByID); err != nil {
		return err
	}

	// The bundle distribution phase runs before the event stream so the
	// fleet acts on distributor-activated policies, not per-device
	// sources.
	var bundleResult *bundleSummary
	if sc.Bundle != nil {
		bundleResult, err = runBundlePhase(sc, collective, bus, registry, out)
		if err != nil {
			return err
		}
	}

	executed, denied := 0, 0
	sendFailures, recoveries := 0, 0
	if sc.Saturation != nil {
		executed, denied, sendFailures, err = runSaturationEvents(sc, collective, engine, clock, bus, out)
		if err != nil {
			return err
		}
	} else if engine != nil {
		executed, denied, err = runShardedEvents(sc, collective, engine, clock, out)
		if err != nil {
			return err
		}
	} else {
		executed, denied, sendFailures, recoveries = runSerialEvents(
			sc, collective, specByID, guardFor, log, tracer, registry, sender, out)
	}
	if sc.Chaos != nil {
		executed = len(log.ByKind(audit.KindAction))
		denied = len(log.ByKind(audit.KindDenial))
	}

	fmt.Fprintf(out, "scenario %q complete\n", sc.Name)
	fmt.Fprintf(out, "  actions executed: %d\n", executed)
	fmt.Fprintf(out, "  actions denied:   %d\n", denied)
	fmt.Fprintf(out, "  active devices:   %d/%d\n", collective.ActiveCount(), len(collective.Devices()))
	for _, d := range collective.Devices() {
		status := "active"
		if d.Deactivated() {
			status = "DEACTIVATED"
		}
		fmt.Fprintf(out, "  %s: %s state=%s\n", d.ID(), status, d.CurrentState())
	}
	if sc.Chaos != nil {
		delivered, dropped := bus.Stats()
		fmt.Fprintf(out, "  chaos: delivered=%d dropped=%d duplicated=%d retries=%d breaker-opens=%d send-failures=%d recoveries=%d\n",
			delivered, dropped, bus.Duplicated(),
			registry.CounterTotal("resilience.retries"), sender.Breakers.Opens(),
			sendFailures, recoveries)
	}
	if sc.Saturation != nil {
		if err := bus.CheckConservation(); err != nil {
			return err
		}
		delivered, dropped := bus.Stats()
		fmt.Fprintf(out, "  saturation: sent=%d delivered=%d shed=%d dropped=%d pending=%d (conservation exact)\n",
			bus.Sent(), delivered, bus.Shed(), dropped, bus.PendingAdmitted())
	}
	if sc.Bundle != nil {
		r := bundleResult
		fmt.Fprintf(out, "  bundle: revision=%d converged=%v activated{full=%d delta=%d} repairs=%d pulls=%d corrupt-rejected=%d/%d\n",
			r.dist.RootRevision(""), r.dist.Converged(),
			registry.Counter("bundle.activated", "kind", "full").Value(),
			registry.Counter("bundle.activated", "kind", "delta").Value(),
			registry.Counter("bundle.repairs").Value(),
			registry.Counter("bundle.pulls").Value(),
			r.corruptRejected, r.corruptDelivered)
		if err := r.dist.RootLedger("").Verify(); err != nil {
			return fmt.Errorf("activation ledger broken: %w", err)
		}
		fmt.Fprintf(out, "  bundle ledger: %d entries, chain verified\n", r.dist.RootLedger("").Len())
	}
	if err := log.Verify(); err != nil {
		return fmt.Errorf("audit chain broken: %w", err)
	}
	fmt.Fprintf(out, "  audit: %d entries, chain verified\n", log.Len())

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := tracer.WriteJSONL(f); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  traces: %d spans written to %s\n", len(tracer.Spans()), *traceOut)
	}
	if *linger > 0 {
		fmt.Fprintf(out, "  lingering %s\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// runShardedEvents runs the scenario's event stream on the engine:
// step s fires at s virtual seconds, each target's delivery is an
// event sharded by device ID (so the fleet fans out across the worker
// pool with per-device ordering intact), and the periodic watchdog
// sweep is an unkeyed barrier sequenced after the step's deliveries.
// Tallies are atomics — commutative, hence identical at any worker
// count — and audit appends merge through the delivery lanes in
// deterministic (time, seq) order.
func runShardedEvents(sc scenario, collective *core.Collective, engine *sim.Engine,
	clock *sim.Clock, out io.Writer) (executed, denied int, err error) {
	var execN, denyN atomic.Int64
	step := 0
	for _, ev := range sc.Events {
		repeat := ev.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		for r := 0; r < repeat; r++ {
			step++
			at := time.Duration(step) * time.Second
			event := policy.Event{Type: ev.Type, Source: "scenario", Attrs: ev.Attrs}
			targets := []string{ev.Target}
			if ev.Target == "*" || ev.Target == "" {
				targets = targets[:0]
				for _, d := range collective.Devices() {
					targets = append(targets, d.ID())
				}
			}
			for _, id := range targets {
				id := id
				engine.ScheduleShard(at, id, func(lane *sim.Lane) {
					execs, err := collective.DeliverWith(id, event, lane)
					if err != nil {
						return // removed or deactivated devices do not act
					}
					for _, e := range execs {
						if e.Executed() {
							execN.Add(1)
						} else if !e.Verdict.Allowed() {
							denyN.Add(1)
						}
					}
				})
			}
			if step%sc.SweepEvery == 0 {
				s := step
				engine.Schedule(at, func() {
					if deactivated, _ := collective.SweepWatchdog(); len(deactivated) > 0 {
						fmt.Fprintf(out, "step %d: watchdog deactivated %v\n", s, deactivated)
					}
				})
			}
		}
	}
	if err := engine.Run(clock.Now().Add(time.Duration(step+1) * time.Second)); err != nil {
		return 0, 0, err
	}
	return int(execN.Load()), int(denyN.Load()), nil
}

// runSaturationEvents runs the event stream through the
// admission-bounded bus: step s fires at s virtual seconds as a
// barrier event whose sends are admitted, shed with a typed cause, or
// queued; queues drain in engine events sharded per device, so the
// run is deterministic at any --parallelism. A shed send counts as a
// send failure in the summary — the conservation line reports the
// exact books.
func runSaturationEvents(sc scenario, collective *core.Collective, engine *sim.Engine,
	clock *sim.Clock, bus *network.Bus, out io.Writer) (executed, denied, shed int, err error) {
	var execN, denyN, shedN atomic.Int64
	for _, d := range collective.Devices() {
		id := d.ID()
		if err := bus.AttachLane(id, func(msg network.Message, lane *sim.Lane) {
			ev, ok := msg.Payload.(policy.Event)
			if !ok {
				return
			}
			execs, err := collective.DeliverWith(id, ev, lane)
			if err != nil {
				return // removed or deactivated devices do not act
			}
			for _, e := range execs {
				if e.Executed() {
					execN.Add(1)
				} else if !e.Verdict.Allowed() {
					denyN.Add(1)
				}
			}
		}); err != nil {
			return 0, 0, 0, err
		}
	}
	step := 0
	for _, ev := range sc.Events {
		repeat := ev.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		for r := 0; r < repeat; r++ {
			step++
			at := time.Duration(step) * time.Second
			event := policy.Event{Type: ev.Type, Source: "scenario", Attrs: ev.Attrs}
			targets := []string{ev.Target}
			if ev.Target == "*" || ev.Target == "" {
				targets = targets[:0]
				for _, d := range collective.Devices() {
					targets = append(targets, d.ID())
				}
			}
			targets = append([]string(nil), targets...)
			s := step
			// The step is a barrier: sends happen serially, so admission
			// decisions (and any future fault sampling) are ordered.
			engine.Schedule(at, func() {
				for _, id := range targets {
					if err := bus.Send(network.Message{
						From: "scenario", To: id, Topic: "command", Payload: event,
					}); err != nil {
						shedN.Add(1)
						fmt.Fprintf(out, "step %d: %s: %v\n", s, id, err)
					}
				}
			})
			if step%sc.SweepEvery == 0 {
				engine.Schedule(at, func() {
					if deactivated, _ := collective.SweepWatchdog(); len(deactivated) > 0 {
						fmt.Fprintf(out, "step %d: watchdog deactivated %v\n", s, deactivated)
					}
				})
			}
		}
	}
	// Two extra virtual seconds give the drain events room to empty the
	// intake queues before the books are checked.
	if err := engine.Run(clock.Now().Add(time.Duration(step+2) * time.Second)); err != nil {
		return 0, 0, 0, err
	}
	return int(execN.Load()), int(denyN.Load()), int(shedN.Load()), nil
}

// runSerialEvents is the original synchronous event loop: direct (or
// chaos-bus) delivery step by step, with checkpointing, scripted
// crash/restart and inline watchdog sweeps.
func runSerialEvents(sc scenario, collective *core.Collective, specByID map[string]deviceSpec,
	guardFor func(deviceSpec) guard.Guard, log *audit.Log, tracer *telemetry.Tracer,
	registry *telemetry.Registry, sender *network.ReliableSender,
	out io.Writer) (executed, denied, sendFailures, recoveries int) {
	step := 0
	for _, ev := range sc.Events {
		repeat := ev.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		for r := 0; r < repeat; r++ {
			step++
			event := policy.Event{Type: ev.Type, Source: "scenario", Attrs: ev.Attrs}
			if sc.Chaos != nil {
				// Chaos path: per-device bus deliveries through retries
				// and breakers; execution counts come from the audit
				// trail afterwards. Each scenario event opens one root
				// span so every delivery — including retried and
				// duplicated ones — stays in one trace.
				span := tracer.StartSpan("scenario.command", "scenario", telemetry.SpanContext{})
				span.SetAttr("event", ev.Type)
				event.Labels = telemetry.Inject(span.Context(), event.Labels)
				targets := []string{ev.Target}
				if ev.Target == "*" || ev.Target == "" {
					targets = targets[:0]
					for _, d := range collective.Devices() {
						targets = append(targets, d.ID())
					}
				}
				for _, id := range targets {
					if err := sender.Send(network.Message{
						From: "scenario", To: id, Topic: "command", Payload: event,
					}); err != nil {
						sendFailures++
					}
				}
				span.Finish()
			} else {
				var results map[string][]device.Execution
				if ev.Target == "*" || ev.Target == "" {
					results = collective.Command(event)
				} else {
					execs, err := collective.Deliver(ev.Target, event)
					if err != nil {
						fmt.Fprintf(out, "step %d: %v\n", step, err)
						continue
					}
					results = map[string][]device.Execution{ev.Target: execs}
				}
				for _, execs := range results {
					for _, e := range execs {
						if e.Executed() {
							executed++
						} else if !e.Verdict.Allowed() {
							denied++
						}
					}
				}
			}
			if sc.Chaos != nil {
				// Checkpoint active devices so a crash is recoverable,
				// then apply the scripted crash/restart.
				for _, d := range collective.Devices() {
					if !d.Deactivated() {
						_, _ = resilience.Checkpoint(log, d)
					}
				}
				if sc.Chaos.CrashDevice != "" && step == sc.Chaos.CrashAtStep {
					if collective.RemoveDevice(sc.Chaos.CrashDevice) {
						fmt.Fprintf(out, "step %d: chaos crashed %s\n", step, sc.Chaos.CrashDevice)
					}
				}
				if sc.Chaos.CrashDevice != "" && sc.Chaos.RestartAtStep > 0 && step == sc.Chaos.RestartAtStep {
					spec := specByID[sc.Chaos.CrashDevice]
					d, err := resilience.Recover(log, sc.Chaos.CrashDevice, device.Config{
						Type:         spec.Type,
						Organization: spec.Org,
						Guard:        guardFor(spec),
						KillSwitch:   collective.KillSwitch(),
						Audit:        log,
						Telemetry:    registry,
						Tracer:       tracer,
					})
					if err != nil {
						fmt.Fprintf(out, "step %d: recovery failed: %v\n", step, err)
					} else if err := collective.AddDevice(d, nil); err != nil {
						fmt.Fprintf(out, "step %d: readmission failed: %v\n", step, err)
					} else {
						recoveries++
						fmt.Fprintf(out, "step %d: chaos recovered %s from checkpoint (state=%s)\n",
							step, d.ID(), d.CurrentState())
					}
				}
			}
			if step%sc.SweepEvery == 0 {
				if deactivated, _ := collective.SweepWatchdog(); len(deactivated) > 0 {
					fmt.Fprintf(out, "step %d: watchdog deactivated %v\n", step, deactivated)
				}
			}
		}
	}
	return executed, denied, sendFailures, recoveries
}

// bundleSummary carries the distribution phase's books into the run
// summary.
type bundleSummary struct {
	dist             *core.Distributor
	corruptDelivered int64
	corruptRejected  int64
}

// runBundlePhase distributes the scenario's policy revisions as signed
// bundles: every device enrolls with a distributor sharing one HMAC
// key, each revision is published and repaired to convergence over the
// (possibly lossy) bus, and the scripted tampered pushes afterwards
// must all be refused fail-closed with every device still on the
// published revision.
func runBundlePhase(sc scenario, collective *core.Collective, bus *network.Bus,
	registry *telemetry.Registry, out io.Writer) (*bundleSummary, error) {
	spec := sc.Bundle
	maxSweeps := spec.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 16
	}
	key := bundle.HMACKey{ID: "skynetsim", Secret: []byte("skynetsim-bundle-" + sc.Name)}
	dist, err := core.NewDistributor(core.DistributorConfig{
		Collective: collective, Roots: []core.RootConfig{{Signer: key}}, Telemetry: registry,
	})
	if err != nil {
		return nil, err
	}
	devices := collective.Devices()
	if len(devices) == 0 {
		return nil, fmt.Errorf("bundle: no devices to enroll")
	}
	for _, d := range devices {
		if err := dist.EnrollRoots(d.ID(), key, ""); err != nil {
			return nil, err
		}
	}
	for i, src := range spec.Revisions {
		pols, err := policylang.CompileSource(src, policy.OriginHuman)
		if err != nil {
			return nil, fmt.Errorf("bundle revision %d: %w", i+1, err)
		}
		rev, err := dist.PublishRoot("", pols)
		if err != nil {
			return nil, fmt.Errorf("bundle revision %d: %w", i+1, err)
		}
		sweeps := 0
		for !dist.Converged() && sweeps < maxSweeps {
			dist.RepairSweep()
			sweeps++
		}
		if !dist.Converged() {
			return nil, fmt.Errorf("bundle revision %d: fleet not converged after %d repair sweeps; lagging %v",
				rev, sweeps, dist.LaggingRoot(""))
		}
		fmt.Fprintf(out, "bundle revision %d: %d policies converged after %d repair sweeps\n",
			rev, len(pols), sweeps)
	}

	// Tampered pushes alternate a rogue-signed full bundle with
	// structural garbage. Each is retried past the loss until the bus
	// actually delivers it, so the fail-closed books are exact: every
	// delivered corruption must be rejected, and no device may move.
	rejected := func() int64 {
		return registry.Counter("bundle.rejected", "cause", "signature").Value() +
			registry.Counter("bundle.rejected", "cause", "decode").Value()
	}
	before := rejected()
	var delivered int64
	if spec.CorruptPushes > 0 {
		rogue := bundle.NewPublisher(bundle.HMACKey{ID: "rogue", Secret: []byte("rogue")})
		pols, err := policylang.CompileSource(
			"policy hijack priority 9:\n    on tick\n    do exfiltrate target all category surveillance\n",
			policy.OriginHuman)
		if err != nil {
			return nil, err
		}
		full, _, err := rogue.Publish(pols)
		if err != nil {
			return nil, err
		}
		rogueWire, err := bundle.Encode(full)
		if err != nil {
			return nil, err
		}
		for i := 0; i < spec.CorruptPushes; i++ {
			payload := rogueWire
			if i%2 == 1 {
				payload = []byte("!! not a bundle !!")
			}
			target := devices[i%len(devices)].ID()
			for attempt := 0; ; attempt++ {
				err := bus.Send(network.Message{
					From: "attacker", To: target, Topic: core.TopicBundle, Payload: payload,
				})
				if err == nil {
					delivered++
					break
				}
				if !errors.Is(err, network.ErrDropped) || attempt >= 10000 {
					return nil, fmt.Errorf("bundle: corrupt push %d undeliverable: %w", i, err)
				}
			}
		}
	}
	summary := &bundleSummary{dist: dist, corruptDelivered: delivered, corruptRejected: rejected() - before}
	if summary.corruptRejected != delivered {
		return nil, fmt.Errorf("bundle: fail-closed violated: %d corrupt pushes delivered, only %d rejected",
			delivered, summary.corruptRejected)
	}
	for _, d := range devices {
		if got := d.Policies().Revision(); got != dist.RootRevision("") {
			return nil, fmt.Errorf("bundle: %s at revision %d after corrupt pushes, want %d",
				d.ID(), got, dist.RootRevision(""))
		}
	}
	return summary, nil
}

// buildFleet constructs the scenario's devices — initial state, guard
// stack, compiled policies — and registers them with the collective.
// specByID, when non-nil, is filled with each device's spec for later
// lookups (the chaos crash/restart path needs them).
func buildFleet(sc scenario, schema *statespace.Schema, collective *core.Collective,
	guardFor func(deviceSpec) guard.Guard, log *audit.Log,
	registry *telemetry.Registry, tracer *telemetry.Tracer,
	specByID map[string]deviceSpec) error {
	for _, spec := range sc.Devices {
		if specByID != nil {
			specByID[spec.ID] = spec
		}
		values := map[string]float64{}
		if len(sc.Variables) == 0 {
			values["heat"] = spec.Heat
			values["fuel"] = 100
		}
		for k, v := range spec.State {
			values[k] = v
		}
		initial, err := schema.StateFromMap(values)
		if err != nil {
			return fmt.Errorf("device %s: %w", spec.ID, err)
		}
		cfg := device.Config{
			ID:           spec.ID,
			Type:         spec.Type,
			Organization: spec.Org,
			Initial:      initial,
			Guard:        guardFor(spec),
			KillSwitch:   collective.KillSwitch(),
			Audit:        log,
			Telemetry:    registry,
			Tracer:       tracer,
		}
		d, err := device.New(cfg)
		if err != nil {
			return err
		}
		if spec.Policies != "" {
			policies, err := policylang.CompileSource(spec.Policies, policy.OriginHuman)
			if err != nil {
				return fmt.Errorf("device %s policies: %w", spec.ID, err)
			}
			for _, p := range policies {
				if err := d.Policies().Add(p); err != nil {
					return fmt.Errorf("device %s: %w", spec.ID, err)
				}
			}
		}
		if err := collective.AddDevice(d, nil); err != nil {
			return err
		}
	}
	return nil
}

// buildStateModel derives the schema and classifier from the scenario:
// the default heat/fuel model with a badHeatAt threshold, or a custom
// variable list with a disjunction of bad conditions.
func buildStateModel(sc scenario) (*statespace.Schema, statespace.Classifier, error) {
	if len(sc.Variables) == 0 {
		schema, err := statespace.NewSchema(
			statespace.Var("heat", 0, 100),
			statespace.Var("fuel", 0, 100),
		)
		if err != nil {
			return nil, nil, err
		}
		classifier := statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
			if st.MustGet("heat") >= sc.BadHeatAt {
				return statespace.ClassBad
			}
			return statespace.ClassGood
		})
		return schema, classifier, nil
	}

	schema, err := statespace.SchemaFromSpec(sc.Variables)
	if err != nil {
		return nil, nil, err
	}
	conds := make([]func(statespace.State) bool, 0, len(sc.BadWhen))
	for _, bc := range sc.BadWhen {
		bc := bc
		if _, ok := schema.Index(bc.Variable); !ok {
			return nil, nil, fmt.Errorf("badWhen references unknown variable %q", bc.Variable)
		}
		cmp, err := comparator(bc.Op)
		if err != nil {
			return nil, nil, err
		}
		conds = append(conds, func(st statespace.State) bool {
			return cmp(st.MustGet(bc.Variable), bc.Value)
		})
	}
	classifier := statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
		for _, c := range conds {
			if c(st) {
				return statespace.ClassBad
			}
		}
		return statespace.ClassGood
	})
	return schema, classifier, nil
}

func comparator(op string) (func(a, b float64) bool, error) {
	switch op {
	case "<":
		return func(a, b float64) bool { return a < b }, nil
	case "<=":
		return func(a, b float64) bool { return a <= b }, nil
	case ">":
		return func(a, b float64) bool { return a > b }, nil
	case ">=":
		return func(a, b float64) bool { return a >= b }, nil
	case "==":
		return func(a, b float64) bool { return a == b }, nil
	case "!=":
		return func(a, b float64) bool { return a != b }, nil
	default:
		return nil, fmt.Errorf("badWhen: unknown operator %q", op)
	}
}
