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
//	--parallelism n       engine workers (default 1, the serial engine):
//	                      deliveries to different devices may run
//	                      concurrently. The output, journal and ledger
//	                      tips included, is the same at any n.
//
// Every scenario runs on the discrete-event engine over one bus built
// from all of its blocks, and the audit journal is stamped with virtual
// time. Step s of the event stream fires at s virtual seconds as a
// serial barrier: it opens one scenario.command root span and sends the
// event over the bus to every target, reporting each failed send. A
// second barrier, queued behind those deliveries, applies the chaos
// block's checkpoints, crash and restart, then sweeps the watchdog.
//
// Scenario format:
//
//	{
//	  "name": "demo",
//	  "seed": 1,
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
// Unknown fields are rejected. Targets may be "*" (all devices). Guards
// are the standard pipeline with a state-space check at badHeatAt. The
// seed (default 1) drives every fault the bus injects.
//
// The optional blocks below combine freely. The chaos and saturation
// summary lines report the whole bus, bundle traffic included.
//
// A "chaos" block degrades the event stream: the bus loses and
// duplicates messages, sends go through the resilience stack (bounded
// retries, per-device circuit breakers), and one device can crash
// mid-run and be recovered from its latest audit-journal checkpoint:
//
//	"chaos": {"loss": 0.3, "duplication": 0.1, "maxAttempts": 4,
//	          "crashDevice": "d1", "crashAtStep": 3, "restartAtStep": 8}
//
// A "saturation" block puts the admission controller in front of
// delivery: every bus message flows into bounded, rate-limited
// per-recipient intake queues that drain in batched engine events,
// overload is shed with typed causes instead of lost, and the run
// reports the exact conservation accounting (sent == delivered +
// dropped + shed):
//
//	"saturation": {"queueCapacity": 8, "rate": 2, "burst": 2,
//	               "drainBatch": 4, "drainIntervalMs": 100}
//
// A "bundle" block distributes the fleet's policies as signed,
// versioned bundles before the event stream runs: every device enrolls
// with the distributor, each listed revision is published in a barrier
// and repaired, one sweep per virtual second, to convergence over the
// bus at the block's loss, and tampered pushes injected afterwards must
// all be refused fail-closed with the fleet unmoved:
//
//	"bundle": {"revisions": ["policy work: on tick do run ..."],
//	           "loss": 0.3, "corruptPushes": 2}
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
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
	Name string `json:"name"`
	// Seed drives the bus's fault randomness (default 1).
	Seed            int64   `json:"seed"`
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
	// Chaos optionally injects faults into the event stream; nil keeps
	// lossless delivery.
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
	// Loss is the per-message drop probability on the bus while the
	// bundles are distributed; anti-entropy repair sweeps close the
	// resulting gaps.
	Loss float64 `json:"loss"`
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

// loadScenario reads, strictly parses and defaults a scenario file: an
// unknown field (a typo, a setting the format no longer has) is an
// error, not a silent no-op.
func loadScenario(path string) (scenario, error) {
	var sc scenario
	data, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("parse scenario: %w", err)
	}
	// Decode stops after the first value; refuse anything after it.
	if _, err := dec.Token(); err != io.EOF {
		return sc, errors.New("parse scenario: trailing data after the scenario object")
	}
	if sc.Seed == 0 {
		sc.Seed = 1
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
	parallelism := fs.Int("parallelism", 1, "engine workers delivering to different devices concurrently (1 = serial engine)")
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
	// The run is deterministic at any worker count because the bus keys
	// every fault draw by the send's position, and every traced journal
	// entry carries the trace ID of a root span opened in a barrier.
	clock := sim.NewClock(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(*parallelism)
	log := audit.New(audit.WithClock(clock.Now))
	busOpts := []network.BusOption{network.WithEngine(engine), network.WithMetrics(registry)}
	if sat := sc.Saturation; sat != nil {
		intake, err := admission.New(admission.Config{
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
		busOpts = append(busOpts, network.WithAdmission(intake))
	}
	bus := network.NewBus(rand.New(rand.NewSource(sc.Seed)), busOpts...)
	collective, err := core.New(core.Config{
		Name:            sc.Name,
		Audit:           log,
		Bus:             bus,
		KillSecret:      []byte("skynetsim-" + sc.Name),
		Classifier:      classifier,
		DenialThreshold: sc.DenialThreshold,
		Telemetry:       registry,
		Tracer:          tracer,
	})
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

	// The bundle phase runs first, so the fleet acts on
	// distributor-activated policies, not per-device sources.
	var (
		dist     *core.Distributor
		rejected int64
	)
	if sc.Bundle != nil {
		if dist, rejected, err = runBundlePhase(sc, collective, engine, bus, registry, out); err != nil {
			return err
		}
	}

	// The event stream sees the chaos block's faults, not the bundle
	// block's. Under a chaos block it sends through the resilience
	// stack, and each step's second barrier checkpoints every active
	// device, so a crash is recoverable, then applies the scripted crash
	// or restart, reporting whether a device was recovered.
	send := func(m network.Message) error { return bus.Send(nil, m) }
	var (
		sender    *network.ReliableSender
		chaosStep func(s int) bool
	)
	if ch := sc.Chaos; ch != nil {
		bus.SetLoss(ch.Loss)
		bus.SetDuplication(ch.Duplication)
		sender = &network.ReliableSender{
			Bus:      bus,
			Retry:    resilience.Retry{MaxAttempts: ch.MaxAttempts},
			Breakers: &resilience.BreakerSet{Threshold: 3, Cooldown: time.Minute, Now: clock.Now},
			Metrics:  registry,
		}
		send = sender.Send
		chaosStep = func(s int) bool {
			for _, d := range collective.Devices() {
				if !d.Deactivated() {
					// A failed checkpoint leaves the device's previous one
					// in place; a restart that finds none reports it.
					_ = resilience.Checkpoint(log, d)
				}
			}
			if ch.CrashDevice != "" && s == ch.CrashAtStep && collective.RemoveDevice(ch.CrashDevice) {
				fmt.Fprintf(out, "step %d: chaos crashed %s\n", s, ch.CrashDevice)
			}
			if ch.CrashDevice == "" || ch.RestartAtStep <= 0 || s != ch.RestartAtStep {
				return false
			}
			spec := specByID[ch.CrashDevice]
			d, err := resilience.Recover(log, ch.CrashDevice, device.Config{
				Type:         spec.Type,
				Organization: spec.Org,
				Guard:        guardFor(spec),
				KillSwitch:   collective.KillSwitch(),
				Audit:        log,
				Telemetry:    registry,
				Tracer:       tracer,
			})
			if err != nil {
				fmt.Fprintf(out, "step %d: recovery failed: %v\n", s, err)
				return false
			}
			if err := collective.AddDevice(d, nil); err != nil {
				fmt.Fprintf(out, "step %d: readmission failed: %v\n", s, err)
				return false
			}
			fmt.Fprintf(out, "step %d: chaos recovered %s from checkpoint (state=%s)\n", s, d.ID(), d.CurrentState())
			return true
		}
	}
	sendFailures, recoveries, err := runEvents(sc, engine, collective, tracer, send, chaosStep, out)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "scenario %q complete\n", sc.Name)
	fmt.Fprintf(out, "  actions executed: %d\n", log.CountKind(audit.KindAction))
	fmt.Fprintf(out, "  actions denied:   %d\n", log.CountKind(audit.KindDenial))
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
	if dist != nil {
		fmt.Fprintf(out, "  bundle: revision=%d converged=%v activated{full=%d delta=%d} repairs=%d pulls=%d corrupt-rejected=%d/%d\n",
			dist.RootRevision(""), dist.Converged(),
			registry.Counter("bundle.activated", "kind", "full").Value(),
			registry.Counter("bundle.activated", "kind", "delta").Value(),
			registry.Counter("bundle.repairs").Value(),
			registry.Counter("bundle.pulls").Value(),
			rejected, sc.Bundle.CorruptPushes)
		ledger := dist.RootLedger("")
		if err := ledger.Verify(); err != nil {
			return fmt.Errorf("activation ledger broken: %w", err)
		}
		_, tip := ledger.EntriesSince(ledger.Len())
		fmt.Fprintf(out, "  bundle ledger: %d entries, chain verified, tip %s\n", ledger.Len(), tip)
	}
	if err := log.Verify(); err != nil {
		return fmt.Errorf("audit chain broken: %w", err)
	}
	_, tip := log.EntriesSince(log.Len())
	fmt.Fprintf(out, "  audit: %d entries, chain verified, tip %s\n", log.Len(), tip)

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

// runEvents plays the event stream on the engine. Step s is a serial
// barrier at s virtual seconds from now: it opens one scenario.command
// root span, injects it into the event and sends the event to every
// target, reporting each failed send. A second barrier, queued after the
// deliveries those sends scheduled, runs chaosStep (when set) and sweeps
// the watchdog. It returns the failed sends and the recoveries.
func runEvents(sc scenario, engine *sim.Engine, collective *core.Collective, tracer *telemetry.Tracer,
	send func(network.Message) error, chaosStep func(s int) bool, out io.Writer) (failures, recoveries int, err error) {
	step := 0
	for _, ev := range sc.Events {
		for r := 0; r < max(ev.Repeat, 1); r++ {
			step++
			s := step
			engine.Schedule(time.Duration(s)*time.Second, func() {
				span := tracer.StartSpan("scenario.command", "scenario", telemetry.SpanContext{})
				span.SetAttr("event", ev.Type)
				event := policy.Event{Type: ev.Type, Source: "scenario", Attrs: ev.Attrs,
					Labels: telemetry.Inject(span.Context(), nil)}
				targets := []string{ev.Target}
				if ev.Target == "*" || ev.Target == "" {
					targets = targets[:0]
					for _, d := range collective.Devices() {
						targets = append(targets, d.ID())
					}
				}
				for _, id := range targets {
					if err := send(network.Message{From: "scenario", To: id, Topic: "command", Payload: event}); err != nil {
						failures++
						fmt.Fprintf(out, "step %d: %s: %v\n", s, id, err)
					}
				}
				span.Finish()
				engine.Schedule(0, func() {
					if chaosStep != nil && chaosStep(s) {
						recoveries++
					}
					if s%sc.SweepEvery == 0 {
						if deactivated, _ := collective.SweepWatchdog(); len(deactivated) > 0 {
							fmt.Fprintf(out, "step %d: watchdog deactivated %v\n", s, deactivated)
						}
					}
				})
			})
		}
	}
	// Two extra virtual seconds give admission drains room to empty the
	// intake queues before the books are checked.
	err = engine.Run(engine.Clock().Now().Add(time.Duration(step+2) * time.Second))
	return failures, recoveries, err
}

// barrier runs fn as a serial barrier one virtual second from now, then
// runs the engine up to that instant, so everything fn sets off there —
// deliveries, acks, repairs — lands before the caller reads the books.
func barrier(engine *sim.Engine, fn func()) error {
	engine.Schedule(time.Second, fn)
	return engine.Run(engine.Clock().Now().Add(time.Second))
}

// runBundlePhase distributes the scenario's policy revisions as signed
// bundles at the bundle block's loss: every device enrolls with a
// distributor sharing one HMAC key, each revision is published in a
// barrier and repaired to convergence with one sweep per virtual
// second, and every scripted tampered push afterwards must be refused
// fail-closed with every device still on the published revision. It
// returns the distributor and how many tampered pushes were refused.
func runBundlePhase(sc scenario, collective *core.Collective, engine *sim.Engine, bus *network.Bus,
	registry *telemetry.Registry, out io.Writer) (*core.Distributor, int64, error) {
	spec := sc.Bundle
	maxSweeps := spec.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 16
	}
	key := bundle.HMACKey{ID: "skynetsim", Secret: []byte("skynetsim-bundle-" + sc.Name)}
	dist, err := core.NewDistributor(core.DistributorConfig{
		Collective: collective, Roots: []core.RootConfig{{Signer: key}}, Telemetry: registry,
		Clock: engine.Clock().Now, Engine: engine,
	})
	if err != nil {
		return nil, 0, err
	}
	devices := collective.Devices()
	if len(devices) == 0 {
		return nil, 0, fmt.Errorf("bundle: no devices to enroll")
	}
	for _, d := range devices {
		if err := dist.EnrollRoots(d.ID(), key, ""); err != nil {
			return nil, 0, err
		}
	}
	bus.SetLoss(spec.Loss)
	defer bus.SetLoss(0)
	for i, src := range spec.Revisions {
		pols, err := policylang.CompileSource(src, policy.OriginHuman)
		if err != nil {
			return nil, 0, fmt.Errorf("bundle revision %d: %w", i+1, err)
		}
		var rev uint64
		var perr error
		if err := barrier(engine, func() { rev, perr = dist.PublishRoot("", pols) }); err != nil {
			return nil, 0, err
		}
		if perr != nil {
			return nil, 0, fmt.Errorf("bundle revision %d: %w", i+1, perr)
		}
		sweeps := 0
		for !dist.Converged() && sweeps < maxSweeps {
			if err := barrier(engine, func() { dist.RepairSweep() }); err != nil {
				return nil, 0, err
			}
			sweeps++
		}
		if !dist.Converged() {
			return nil, 0, fmt.Errorf("bundle revision %d: fleet not converged after %d repair sweeps; lagging %v",
				rev, sweeps, dist.LaggingRoot(""))
		}
		fmt.Fprintf(out, "bundle revision %d: %d policies converged after %d repair sweeps\n",
			rev, len(pols), sweeps)
	}

	// Tampered pushes alternate a rogue-signed full bundle with
	// structural garbage. A push the bus loses or admission sheds is
	// retried one virtual second later until it is delivered, so the
	// fail-closed books are exact: every corruption must be rejected,
	// and no device may move.
	rejected := func() int64 {
		return registry.Counter("bundle.rejected", "cause", "signature").Value() +
			registry.Counter("bundle.rejected", "cause", "decode").Value()
	}
	before := rejected()
	if spec.CorruptPushes > 0 {
		rogue := bundle.NewPublisher(bundle.HMACKey{ID: "rogue", Secret: []byte("rogue")})
		pols, err := policylang.CompileSource(
			"policy hijack priority 9:\n    on tick\n    do exfiltrate target all category surveillance\n",
			policy.OriginHuman)
		if err != nil {
			return nil, 0, err
		}
		full, _, err := rogue.Publish(pols)
		if err != nil {
			return nil, 0, err
		}
		rogueWire, err := bundle.Encode(full)
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < spec.CorruptPushes; i++ {
			payload := rogueWire
			if i%2 == 1 {
				payload = []byte("!! not a bundle !!")
			}
			msg := network.Message{
				From: "attacker", To: devices[i%len(devices)].ID(), Topic: core.TopicBundle, Payload: payload,
			}
			for attempt := 0; ; attempt++ {
				var serr error
				if err := barrier(engine, func() { serr = bus.Send(nil, msg) }); err != nil {
					return nil, 0, err
				}
				if serr == nil {
					break
				}
				undelivered := errors.Is(serr, network.ErrDropped) || admission.CauseOf(serr) != ""
				if !undelivered || attempt >= 10000 {
					return nil, 0, fmt.Errorf("bundle: corrupt push %d undeliverable: %w", i, serr)
				}
			}
		}
		// Admitted pushes may still wait in an intake queue.
		for engine.Pending() > 0 {
			if err := barrier(engine, func() {}); err != nil {
				return nil, 0, err
			}
		}
	}
	refused := rejected() - before
	if refused != int64(spec.CorruptPushes) {
		return nil, 0, fmt.Errorf("bundle: fail-closed violated: %d corrupt pushes delivered, only %d rejected",
			spec.CorruptPushes, refused)
	}
	for _, d := range devices {
		if got := d.Policies().Revision(); got != dist.RootRevision("") {
			return nil, 0, fmt.Errorf("bundle: %s at revision %d after corrupt pushes, want %d",
				d.ID(), got, dist.RootRevision(""))
		}
	}
	return dist, refused, nil
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
