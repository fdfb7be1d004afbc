package network

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestBusSynchronousDelivery(t *testing.T) {
	b := NewBus(rand.New(rand.NewSource(1)))
	var got []Message
	if err := b.AttachLane("a", func(m Message, _ *sim.Lane) { got = append(got, m) }); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	if err := b.Send(nil, Message{From: "b", To: "a", Topic: "t", Payload: 42}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if len(got) != 1 || got[0].Payload != 42 {
		t.Errorf("got = %+v", got)
	}
	delivered, dropped := b.Stats()
	if delivered != 1 || dropped != 0 {
		t.Errorf("stats = %d,%d", delivered, dropped)
	}
}

func TestBusAttachValidation(t *testing.T) {
	b := NewBus(nil)
	if err := b.AttachLane("", func(Message, *sim.Lane) {}); err == nil {
		t.Error("empty id attached")
	}
	if err := b.AttachLane("a", nil); err == nil {
		t.Error("nil handler attached")
	}
	if err := b.AttachLane("a", func(Message, *sim.Lane) {}); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	if err := b.AttachLane("a", func(Message, *sim.Lane) {}); err == nil {
		t.Error("duplicate attached")
	}
	if !b.Detach("a") || b.Detach("a") {
		t.Error("Detach semantics wrong")
	}
}

func TestBusUnknownNode(t *testing.T) {
	b := NewBus(nil)
	err := b.Send(nil, Message{To: "ghost"})
	if !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
}

func TestBusPartition(t *testing.T) {
	b := NewBus(rand.New(rand.NewSource(1)))
	delivered := 0
	for _, id := range []string{"a", "b", "c"} {
		if err := b.AttachLane(id, func(Message, *sim.Lane) { delivered++ }); err != nil {
			t.Fatalf("AttachLane: %v", err)
		}
	}
	b.Partition(map[string]int{"a": 0, "b": 1, "c": 0})

	if err := b.Send(nil, Message{From: "a", To: "b"}); !errors.Is(err, ErrDropped) {
		t.Errorf("cross-partition send = %v", err)
	}
	if err := b.Send(nil, Message{From: "a", To: "c"}); err != nil {
		t.Errorf("same-partition send = %v", err)
	}
	b.Heal()
	if err := b.Send(nil, Message{From: "a", To: "b"}); err != nil {
		t.Errorf("post-heal send = %v", err)
	}
	if delivered != 2 {
		t.Errorf("delivered = %d", delivered)
	}
}

func TestBusLoss(t *testing.T) {
	b := NewBus(rand.New(rand.NewSource(2)), WithLoss(0.5))
	if err := b.AttachLane("a", func(Message, *sim.Lane) {}); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	losses := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if err := b.Send(nil, Message{From: "b", To: "a"}); errors.Is(err, ErrDropped) {
			losses++
		}
	}
	rate := float64(losses) / trials
	if rate < 0.45 || rate > 0.55 {
		t.Errorf("loss rate = %.3f, want ≈0.5", rate)
	}
}

func TestBusLatencyViaEngine(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	clock := sim.NewClock(start)
	engine := sim.NewEngine(clock)
	b := NewBus(rand.New(rand.NewSource(3)),
		WithEngine(engine),
		WithLatency(10*time.Millisecond, 20*time.Millisecond),
	)
	var deliveredAt time.Time
	if err := b.AttachLane("a", func(Message, *sim.Lane) { deliveredAt = clock.Now() }); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	if err := b.Send(nil, Message{From: "b", To: "a"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !deliveredAt.IsZero() {
		t.Fatal("delivered synchronously despite engine")
	}
	if err := engine.Run(start.Add(time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	lat := deliveredAt.Sub(start)
	if lat < 10*time.Millisecond || lat > 20*time.Millisecond {
		t.Errorf("latency = %v", lat)
	}
}

func TestRegistryAnnounceAndWatch(t *testing.T) {
	r := NewRegistry()
	var announced []string
	var departed []string
	r.Watch(WatcherFuncs{
		OnAnnounced: func(info DeviceInfo) { announced = append(announced, info.ID) },
		OnDeparted:  func(id string) { departed = append(departed, id) },
	})

	if err := r.Announce(DeviceInfo{ID: "d1", Type: "drone", Attrs: map[string]float64{"range": 5}}); err != nil {
		t.Fatalf("Announce: %v", err)
	}
	if err := r.Announce(DeviceInfo{ID: "m1", Type: "mule"}); err != nil {
		t.Fatalf("Announce: %v", err)
	}
	if err := r.Announce(DeviceInfo{}); err == nil {
		t.Error("empty announcement accepted")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if got := r.ByType("drone"); len(got) != 1 || got[0].ID != "d1" {
		t.Errorf("ByType = %v", got)
	}
	info, ok := r.Get("d1")
	if !ok || info.Attrs["range"] != 5 {
		t.Errorf("Get = %+v,%v", info, ok)
	}
	if len(r.All()) != 2 {
		t.Errorf("All = %v", r.All())
	}
	if !r.Depart("d1") || r.Depart("d1") {
		t.Error("Depart semantics wrong")
	}
	if len(announced) != 2 || len(departed) != 1 || departed[0] != "d1" {
		t.Errorf("watch: announced=%v departed=%v", announced, departed)
	}
}

func TestRegistryCopiesAttrs(t *testing.T) {
	r := NewRegistry()
	attrs := map[string]float64{"x": 1}
	if err := r.Announce(DeviceInfo{ID: "d", Attrs: attrs}); err != nil {
		t.Fatalf("Announce: %v", err)
	}
	attrs["x"] = 99
	info, _ := r.Get("d")
	if info.Attrs["x"] != 1 {
		t.Error("registry aliased caller's map")
	}
}

func TestStoreVersioning(t *testing.T) {
	s := NewStore()
	if !s.Put(Item{Key: "k", Version: 1, Payload: "a"}) {
		t.Error("initial put rejected")
	}
	if s.Put(Item{Key: "k", Version: 1, Payload: "b"}) {
		t.Error("same-version put accepted")
	}
	if !s.Put(Item{Key: "k", Version: 2, Payload: "c"}) {
		t.Error("newer put rejected")
	}
	item, ok := s.Get("k")
	if !ok || item.Payload != "c" {
		t.Errorf("Get = %+v,%v", item, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if n := s.Merge([]Item{{Key: "k", Version: 9}, {Key: "j", Version: 1}}); n != 2 {
		t.Errorf("Merge = %d", n)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Key != "j" {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestGossipConvergence(t *testing.T) {
	g := NewGossip(rand.New(rand.NewSource(4)), 2)
	const nodes = 16
	for i := 0; i < nodes; i++ {
		g.Join(nodeName(i))
	}
	// Seed one node with an item.
	seed, _ := g.Store(nodeName(0))
	seed.Put(Item{Key: "policy:p1", Version: 1, Payload: "rule"})

	rounds := g.RunUntilConverged(50)
	if rounds >= 50 {
		t.Fatalf("gossip did not converge in %d rounds", rounds)
	}
	for i := 0; i < nodes; i++ {
		s, _ := g.Store(nodeName(i))
		if _, ok := s.Get("policy:p1"); !ok {
			t.Errorf("node %d missing item after convergence", i)
		}
	}
}

func TestGossipSmallGroups(t *testing.T) {
	g := NewGossip(rand.New(rand.NewSource(1)), 1)
	if g.RunRound() != 0 {
		t.Error("empty gossip round did updates")
	}
	g.Join("solo")
	if g.RunRound() != 0 {
		t.Error("single-node gossip round did updates")
	}
	g.Join("solo") // rejoin returns same store
	s1, _ := g.Store("solo")
	s2 := g.Join("solo")
	if s1 != s2 {
		t.Error("rejoin created a new store")
	}
	g.Leave("solo")
	if _, ok := g.Store("solo"); ok {
		t.Error("store present after leave")
	}
}

func nodeName(i int) string { return string(rune('a'+i%26)) + "-node" }
