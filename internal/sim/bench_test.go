package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
)

// BenchmarkEngineSchedule measures the schedule→run cycle of the event
// queue: each iteration queues one event and drains it. Recycling the
// drained run shows up here as 0 B/op and allocs/op. The horizon is a
// fixed far future: one of b.N hours would overflow time.Duration past
// ~2.5M iterations and leave the events undrained.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(NewClock(t0))
	fn := func() {}
	horizon := t0.AddDate(100, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Second, fn)
		if err := e.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
	if e.Pending() != 0 {
		b.Fatalf("Pending = %d after the loop, want 0", e.Pending())
	}
}

// BenchmarkEngineScheduleBurst queues 1024 events then drains them all,
// amortizing Run's loop overhead across a full queue.
func BenchmarkEngineScheduleBurst(b *testing.B) {
	e := NewEngine(NewClock(t0))
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			e.Schedule(time.Duration(j)*time.Millisecond, fn)
		}
		if err := e.Run(t0.Add(time.Duration(i+2) * time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSegment measures one warm period of a sharded fleet on
// two workers: 10k shards at one timestamp, each event appending one
// entry through its lane and rescheduling itself a second later. An op
// is the whole period — the parallel segment, the merge that chains
// 10k staged entries and re-queues 10k ticks, and the pop of the next
// batch — into a journal of its own, so the op's allocations are the
// 10k chain hashes, the journal's growth and whatever the engine adds.
// `make alloc-gate` budgets it.
func BenchmarkEngineSegment(b *testing.B) {
	const shards = 10000
	clock := NewClock(t0)
	e := NewEngine(clock)
	e.SetParallelism(2)
	var log *audit.Log
	for i := 0; i < shards; i++ {
		shard := fmt.Sprintf("dev-%05d", i)
		var tick func(*Lane)
		tick = func(lane *Lane) {
			lane.Route(log).Append(audit.KindAction, shard, "tick", nil)
			lane.ScheduleShard(time.Second, shard, tick)
		}
		e.ScheduleShard(time.Second, shard, tick)
	}
	period := func(k int) {
		log = audit.New(audit.WithClock(clock.Now))
		if err := e.Run(t0.Add(time.Duration(k) * time.Second)); err != nil {
			b.Fatal(err)
		}
		if log.Len() != shards {
			b.Fatalf("period %d journaled %d entries, want %d", k, log.Len(), shards)
		}
	}
	period(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		period(i + 2)
	}
}
