package chaos

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func newHarness(t *testing.T) (*Injector, *sim.Engine, *network.Bus, *telemetry.Registry) {
	t.Helper()
	clock := sim.NewClock(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	metrics := telemetry.NewRegistry()
	bus := network.NewBus(rand.New(rand.NewSource(1)),
		network.WithEngine(engine), network.WithMetrics(metrics))
	return &Injector{Engine: engine, Bus: bus, Metrics: metrics},
		engine, bus, metrics
}

func horizonOf(e *sim.Engine, d time.Duration) time.Time {
	return e.Clock().Now().Add(d)
}

func TestLossWindow(t *testing.T) {
	inj, engine, bus, metrics := newHarness(t)
	if err := bus.AttachLane("a", func(network.Message, *sim.Lane) {}); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	Loss{Prob: 1, At: 10 * time.Second, For: 10 * time.Second}.Inject(inj)

	var before, during, after error
	engine.Schedule(5*time.Second, func() { before = bus.Send(nil, network.Message{From: "x", To: "a"}) })
	engine.Schedule(15*time.Second, func() { during = bus.Send(nil, network.Message{From: "x", To: "a"}) })
	engine.Schedule(25*time.Second, func() { after = bus.Send(nil, network.Message{From: "x", To: "a"}) })
	if err := engine.Run(horizonOf(engine, time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if before != nil {
		t.Errorf("send before window failed: %v", before)
	}
	if !errors.Is(during, network.ErrDropped) {
		t.Errorf("send during window = %v, want dropped", during)
	}
	if after != nil {
		t.Errorf("send after heal failed: %v", after)
	}
	if metrics.CounterTotal("chaos.loss_injected") != 1 || metrics.CounterTotal("chaos.loss_healed") != 1 {
		t.Errorf("loss metrics = %d/%d", metrics.CounterTotal("chaos.loss_injected"), metrics.CounterTotal("chaos.loss_healed"))
	}
}

func TestPartitionWindow(t *testing.T) {
	inj, engine, bus, _ := newHarness(t)
	for _, id := range []string{"a", "b"} {
		if err := bus.AttachLane(id, func(network.Message, *sim.Lane) {}); err != nil {
			t.Fatalf("AttachLane: %v", err)
		}
	}
	Partition{Groups: map[string]int{"a": 0, "b": 1}, At: 10 * time.Second, For: 10 * time.Second}.Inject(inj)
	var during, after error
	engine.Schedule(15*time.Second, func() { during = bus.Send(nil, network.Message{From: "a", To: "b"}) })
	engine.Schedule(25*time.Second, func() { after = bus.Send(nil, network.Message{From: "a", To: "b"}) })
	if err := engine.Run(horizonOf(engine, time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(during, network.ErrDropped) {
		t.Errorf("cross-partition send = %v, want dropped", during)
	}
	if after != nil {
		t.Errorf("post-heal send failed: %v", after)
	}
}

func TestDuplicationWindow(t *testing.T) {
	inj, engine, bus, metrics := newHarness(t)
	got := 0
	if err := bus.AttachLane("a", func(network.Message, *sim.Lane) { got++ }); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	Duplication{Prob: 1, At: 0}.Inject(inj)
	engine.Schedule(time.Second, func() {
		if err := bus.Send(nil, network.Message{From: "x", To: "a"}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := engine.Run(horizonOf(engine, time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 2 {
		t.Errorf("deliveries = %d, want 2 (original + duplicate)", got)
	}
	if bus.Duplicated() != 1 || metrics.CounterTotal("bus.duplicated") != 1 {
		t.Errorf("duplicated = %d, metric = %d", bus.Duplicated(), metrics.CounterTotal("bus.duplicated"))
	}
	delivered, dropped := bus.Stats()
	if delivered != 1 || dropped != 0 {
		t.Errorf("stats = %d,%d — duplicates must not distort accounting", delivered, dropped)
	}
}

func TestSlowLinksWindow(t *testing.T) {
	inj, engine, bus, _ := newHarness(t)
	start := engine.Clock().Now()
	var deliveredAt time.Time
	if err := bus.AttachLane("a", func(network.Message, *sim.Lane) { deliveredAt = engine.Clock().Now() }); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	SlowLinks{Min: 2 * time.Second, Max: 2 * time.Second, At: 0, For: time.Minute}.Inject(inj)
	engine.Schedule(time.Second, func() {
		if err := bus.Send(nil, network.Message{From: "x", To: "a"}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := engine.Run(horizonOf(engine, time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lat := deliveredAt.Sub(start.Add(time.Second)); lat != 2*time.Second {
		t.Errorf("latency = %v, want 2s", lat)
	}
}

func TestClockSkewJumpsClock(t *testing.T) {
	inj, engine, _, metrics := newHarness(t)
	start := engine.Clock().Now()
	ClockSkew{Jump: 30 * time.Second, Every: 10 * time.Second, Count: 3}.Inject(inj)
	if err := engine.Run(horizonOf(engine, time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The first tick fires at 10s; each jump pushes the clock past the
	// later ticks' timestamps, so they fire "late" without moving the
	// clock themselves: 10s + 3×30s.
	if got := engine.Clock().Now().Sub(start); got != 100*time.Second {
		t.Errorf("clock advanced %v, want 1m40s", got)
	}
	if metrics.CounterTotal("chaos.skew_injected") != 3 {
		t.Errorf("skew count = %d", metrics.CounterTotal("chaos.skew_injected"))
	}
}

func TestCrashRestart(t *testing.T) {
	inj, engine, _, metrics := newHarness(t)
	var events []string
	CrashRestart{
		DeviceID:     "d1",
		At:           10 * time.Second,
		RestartAfter: 20 * time.Second,
		Crash:        func(id string) { events = append(events, "crash:"+id) },
		Restart:      func(id string) error { events = append(events, "restart:"+id); return nil },
	}.Inject(inj)
	if err := engine.Run(horizonOf(engine, time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(events) != 2 || events[0] != "crash:d1" || events[1] != "restart:d1" {
		t.Errorf("events = %v", events)
	}
	if metrics.CounterTotal("chaos.crash_injected") != 1 || metrics.CounterTotal("chaos.crash_restarted") != 1 {
		t.Errorf("crash metrics = %d/%d",
			metrics.CounterTotal("chaos.crash_injected"), metrics.CounterTotal("chaos.crash_restarted"))
	}
}

func TestScheduleApplyAndNames(t *testing.T) {
	inj, engine, bus, metrics := newHarness(t)
	if err := bus.AttachLane("a", func(network.Message, *sim.Lane) {}); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	s := Schedule{Name: "combo", Faults: []Fault{
		Loss{Prob: 1, At: time.Second, For: time.Second},
		Duplication{Prob: 1, At: time.Second, For: time.Second},
		Loss{Prob: 0.5, At: 5 * time.Second, For: time.Second},
	}}
	if got := s.FaultNames(); got != "loss+duplication" {
		t.Errorf("FaultNames = %q", got)
	}
	if got := (Schedule{Name: "baseline"}).FaultNames(); got != "none" {
		t.Errorf("empty FaultNames = %q", got)
	}
	s.Apply(inj)
	if err := engine.Run(horizonOf(engine, time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if metrics.CounterTotal("chaos.loss_injected") != 2 {
		t.Errorf("loss injections = %d, want 2", metrics.CounterTotal("chaos.loss_injected"))
	}
}

func TestLossyLink(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	link := LossyLink(rng, 0.3)
	drops := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if !link("a", "b") {
			drops++
		}
	}
	rate := float64(drops) / trials
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("drop rate = %.3f, want ≈0.3", rate)
	}
}
