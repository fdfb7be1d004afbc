package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/chaos"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// mustCompileOne compiles a single-policy policylang source.
func mustCompileOne(t *testing.T, src string) policy.Policy {
	t.Helper()
	pols, err := policylang.CompileSource(src, policy.OriginHuman)
	if err != nil || len(pols) != 1 {
		t.Fatalf("CompileSource: %v (%d policies)", err, len(pols))
	}
	return pols[0]
}

// TestMetricNamesUnified drives every instrumented subsystem against
// one registry and asserts each registered metric name follows the
// subsystem.name convention and appears in the telemetry taxonomy — a
// misspelled or unregistered name at any call site fails here instead
// of silently forking a new time series. The server.* and loadgen.*
// families register above core in the import graph; their real call
// sites get the same CheckNames audit in internal/server
// (TestServerMetricsAndNames) and cmd/loadgen (TestLoadgenMetricNames).
func TestMetricNamesUnified(t *testing.T) {
	log := audit.New()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.WithTracerMetrics(reg))
	bus := network.NewBus(rand.New(rand.NewSource(1)),
		network.WithLoss(0.4), network.WithDuplication(0.2),
		network.WithMetrics(reg))

	c := newCollective(t, func(cfg *Config) {
		cfg.Audit = log
		cfg.Bus = bus
		cfg.Telemetry = reg
		cfg.Tracer = tracer
	})
	s := coreSchema(t)
	initial, err := s.StateFromMap(map[string]float64{"heat": 10, "fuel": 50})
	if err != nil {
		t.Fatal(err)
	}
	pipe := guard.NewPipeline(log, guard.AllowAll{})
	pipe.Instrument(reg, tracer)
	d, err := device.New(device.Config{
		ID: "d1", Type: "drone", Initial: initial,
		KillSwitch: c.KillSwitch(), Guard: pipe, Audit: log,
		Telemetry: reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Policies().Add(policy.Policy{
		ID: "work", EventType: "task", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "work"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatal(err)
	}

	// Dispatch through the resilience stack so dispatch.*,
	// resilience.* and the guard/device/policy/trace families all
	// register; the direct Command path registers core.*.
	dispatcher := &Dispatcher{
		Collective: c,
		Sender: &network.ReliableSender{
			Bus: bus,
			Retry: resilience.Retry{
				MaxAttempts: 4,
				Sleep:       func(time.Duration) {},
				Rand:        rand.New(rand.NewSource(2)).Float64,
			},
			Breakers: &resilience.BreakerSet{Threshold: 2, Cooldown: time.Minute},
			Metrics:  reg,
		},
		Metrics: reg,
		Tracer:  tracer,
	}
	for i := 0; i < 20; i++ {
		dispatcher.Command(policy.Event{Type: "task", Source: "human"})
	}
	c.Command(policy.Event{Type: "task", Source: "human"})
	// A send to a detached node feeds the breaker until it opens, so
	// resilience.breaker_rejected registers too.
	for i := 0; i < 5; i++ {
		_ = dispatcher.Sender.Send(network.Message{From: "x", To: "ghost", Topic: "t"})
	}

	// Partition drops, so bus.dropped{cause="partition"} registers.
	bus.Partition(map[string]int{"d1": 1})
	_ = bus.Send(nil, network.Message{From: "x", To: "d1", Topic: "t"})
	bus.Heal()

	// Gossip accounting, with and without a dropping link (plus retry).
	g := network.NewGossip(rand.New(rand.NewSource(3)), 1)
	g.SetMetrics(reg)
	g.Join("a").Put(network.Item{Key: "k", Version: 1})
	g.Join("b")
	g.SetRetry(resilience.Retry{MaxAttempts: 2, Sleep: func(time.Duration) {}})
	g.SetLink(func(from, to string) bool { return false })
	g.RunRound()
	g.SetLink(nil)
	g.RunRound()

	// Chaos fault accounting: every fault-local name the injector
	// emits must land under a registered chaos.* name.
	inj := &chaos.Injector{Metrics: reg}
	for _, name := range []string{
		"loss.injected", "loss.healed",
		"partition.injected", "partition.healed",
		"oneway.injected", "oneway.healed",
		"duplication.injected", "duplication.healed",
		"slowlinks.injected", "slowlinks.healed",
		"skew.injected",
		"crash.injected", "crash.restarted", "crash.restart.failed",
	} {
		inj.Count(name)
	}

	// One-way partition drops register bus.dropped{cause="oneway"}.
	bus.PartitionOneWay([]string{"x"}, []string{"d1"})
	_ = bus.Send(nil, network.Message{From: "x", To: "d1", Topic: "t"})
	bus.HealOneWay()

	// The bundle distribution plane: a publish/activate round trip, a
	// tampered push, a repair sweep against a lagging device, and a pull
	// exercise every bundle.* name at its real call site.
	key := bundle.HMACKey{ID: "names", Secret: []byte("names-secret")}
	dist, err := NewDistributor(DistributorConfig{
		Collective: c, Roots: []RootConfig{{Signer: key}}, Telemetry: reg, StuckThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.EnrollRoots("d1", key, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := dist.PublishRoot("", []policy.Policy{mustCompileOne(t,
		"policy pd priority 1:\n    on task\n    when intensity > 0\n    do work target d1 category surveillance\n")}); err != nil {
		t.Fatal(err)
	}
	// Tampered push → bundle.rejected registers.
	bad, _ := dist.roots[0].pub.Full()
	bad.Sig = "00"
	data, _ := bundle.Encode(bad)
	_ = bus.Send(nil, network.Message{From: dist.id, To: "d1", Topic: TopicBundle, Payload: data})
	// A scope-violating push — valid signature, foreign org — registers
	// bundle.scope_rejected at its real call site.
	scoped := bad
	scoped.Manifest.Org = "foreign"
	scoped.Manifest.Root = bundle.ComputeRoot(scoped.Manifest)
	scoped.SignWith(key)
	data, _ = bundle.Encode(scoped)
	_ = bus.Send(nil, network.Message{From: dist.id, To: "d1", Topic: TopicBundle, Payload: data})
	// Forged and malformed reports register bundle.forged_report and
	// bundle.bad_payload.
	_ = bus.Send(nil, network.Message{From: "x", To: dist.id, Topic: TopicBundleAck,
		Payload: BundleAck{Device: "d1", Revision: 1, Applied: true}})
	_ = bus.Send(nil, network.Message{From: "x", To: dist.id, Topic: TopicBundlePull, Payload: "junk"})
	// Detach the device so a second publish goes unacked, then sweep
	// past the stuck threshold → bundle.repairs and bundle.lagging.
	bus.Detach("d1")
	if _, err := dist.PublishRoot("", nil); err != nil {
		t.Fatal(err)
	}
	dist.RepairSweep()
	dist.RepairSweep()
	// A pull request exercises bundle.pulls.
	_ = bus.Send(nil, network.Message{From: "d1", To: dist.id, Topic: TopicBundlePull,
		Payload: BundlePull{Device: "d1", Have: 0}})

	// The residual specialization counters must have moved at their
	// real call site: every dispatched command above decided through
	// the device's residual, so at least one specialization compiled.
	if v := reg.Counter("policy.residual_compiles", "device", "d1").Value(); v == 0 {
		t.Error("policy.residual_compiles never incremented: commands did not decide through a residual")
	}

	// An orchestrator registers the engine's segment series.
	engine := sim.NewEngine(sim.NewClock(time.Time{}))
	engine.SetParallelism(2)
	if _, err := NewOrchestrator(c, engine); err != nil {
		t.Fatal(err)
	}

	if err := telemetry.CheckNames(reg.Names()); err != nil {
		t.Errorf("metric name audit failed:\n%v", err)
	}
}
