package network

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/sim"
)

// TestBusLaneHandlerSharded verifies that deliveries to lane handlers
// are sharded per recipient: on a parallel engine each recipient's
// deliveries stay ordered while the fleet is fanned out, and the lane
// reaches the handler.
func TestBusLaneHandlerSharded(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	clock := sim.NewClock(start)
	engine := sim.NewEngine(clock)
	engine.SetParallelism(4)
	b := NewBus(nil, WithEngine(engine))

	const nodes = 8
	got := make([][]string, nodes) // per-node slices: shard-owned
	for i := 0; i < nodes; i++ {
		i := i
		id := fmt.Sprintf("n%d", i)
		if err := b.AttachLane(id, func(m Message, lane *sim.Lane) {
			if lane == nil {
				t.Errorf("%s: nil lane on engine delivery", id)
			}
			got[i] = append(got[i], m.Payload.(string))
		}); err != nil {
			t.Fatalf("AttachLane(%s): %v", id, err)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < nodes; i++ {
			msg := Message{From: "src", To: fmt.Sprintf("n%d", i), Payload: fmt.Sprintf("r%d", round)}
			if err := b.Send(nil, msg); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
	}
	if err := engine.Run(start.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < nodes; i++ {
		if len(got[i]) != 3 || got[i][0] != "r0" || got[i][1] != "r1" || got[i][2] != "r2" {
			t.Errorf("node %d deliveries = %v, want ordered r0..r2", i, got[i])
		}
	}
}

// TestBusLaneHandlerSynchronous verifies the engine-less path: lane
// handlers are called inline with a nil lane (which sim.Lane treats as
// direct).
func TestBusLaneHandlerSynchronous(t *testing.T) {
	b := NewBus(nil)
	delivered := 0
	if err := b.AttachLane("a", func(m Message, lane *sim.Lane) {
		if lane != nil {
			t.Error("synchronous delivery carried a lane")
		}
		delivered++
	}); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	if err := b.AttachLane("", func(Message, *sim.Lane) {}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := b.AttachLane("b", nil); err == nil {
		t.Error("nil lane handler accepted")
	}
	if err := b.Send(nil, Message{From: "x", To: "a"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d", delivered)
	}
}

// TestBusConcurrentSends hammers Send from many goroutines to prove the
// accounting stays race-safe and exact (run under -race).
func TestBusConcurrentSends(t *testing.T) {
	b := NewBus(nil)
	var mu sync.Mutex
	received := 0
	if err := b.AttachLane("sink", func(Message, *sim.Lane) {
		mu.Lock()
		received++
		mu.Unlock()
	}); err != nil {
		t.Fatalf("AttachLane: %v", err)
	}
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := fmt.Sprintf("src%d", s)
			for i := 0; i < per; i++ {
				if err := b.Send(nil, Message{From: from, To: "sink"}); err != nil {
					t.Errorf("Send: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()
	delivered, dropped := b.Stats()
	if received != senders*per || delivered != senders*per || dropped != 0 {
		t.Errorf("received=%d delivered=%d dropped=%d, want %d/%d/0",
			received, delivered, dropped, senders*per, senders*per)
	}
}

// TestBusShardedSendersDeterministic is the differential for keyed
// fault draws and lane sends: 200 senders, eight at each millisecond,
// each sending three messages from its own sharded event, reach one
// sink over a bus with loss, duplication and a latency spread, and
// again behind an admission queue small enough to shed. The sink's deliveries, with their virtual times, and the
// bus's books must be the same at 1, 2 and 4 workers on every run.
func TestBusShardedSendersDeterministic(t *testing.T) {
	for _, admit := range []bool{false, true} {
		t.Run(fmt.Sprint("admission=", admit), func(t *testing.T) {
			want := shardedSendersRun(t, admit, 1)
			for run := 0; run < 20; run++ {
				for _, workers := range []int{2, 4} {
					if got := shardedSendersRun(t, admit, workers); got != want {
						t.Fatalf("run %d at %d workers diverged from the serial run:\n got %s\nwant %s",
							run, workers, got, want)
					}
				}
			}
		})
	}
}

// shardedSendersRun plays the sharded-senders scenario once and
// renders what the sink saw, then the bus's books.
func shardedSendersRun(t *testing.T, admit bool, workers int) string {
	t.Helper()
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	clock := sim.NewClock(start)
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	// A spread of four latencies makes arrivals tie, so the sink's order
	// also depends on the sequence numbers the deliveries got.
	opts := []BusOption{WithEngine(engine), WithLoss(0.2), WithDuplication(0.2),
		WithLatency(time.Millisecond, time.Millisecond+3)}
	if admit {
		ctrl, err := admission.New(admission.Config{QueueCapacity: 16, DrainBatch: 4, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithAdmission(ctrl))
	}
	b := NewBus(rand.New(rand.NewSource(7)), opts...)
	var seen strings.Builder // touched only on the sink's shard
	if err := b.AttachLane("sink", func(m Message, _ *sim.Lane) {
		fmt.Fprintf(&seen, "%s@%v ", m.Payload, clock.Now().Sub(start))
	}); err != nil {
		t.Fatal(err)
	}
	topics := []string{"command", "guard", "gossip"}
	for i := 0; i < 200; i++ {
		from := fmt.Sprintf("s%03d", i)
		engine.ScheduleShard(time.Second+time.Duration(i%25)*time.Millisecond, from, func(lane *sim.Lane) {
			for k, topic := range topics {
				msg := Message{From: from, To: "sink", Topic: topic, Payload: fmt.Sprintf("%s.%d", from, k)}
				if err := b.Send(lane, msg); err != nil && !errors.Is(err, ErrDropped) {
					t.Errorf("Send: %v", err)
				}
			}
		})
	}
	if err := engine.Run(start.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	delivered, dropped := b.Stats()
	if dropped == 0 || b.Duplicated() == 0 || (admit && b.Shed() == 0) {
		t.Fatalf("degenerate run: dropped %d, duplicated %d, shed %d", dropped, b.Duplicated(), b.Shed())
	}
	return fmt.Sprintf("%s| delivered %d dropped %d shed %d duplicated %d",
		seen.String(), delivered, dropped, b.Shed(), b.Duplicated())
}
