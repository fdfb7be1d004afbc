package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/audit"
)

// The queue-order test runs one random program of events on the engine
// and on a reference (time, seq) heap kept here, and requires the
// engine's journal — one entry per event run, in merge order — to list
// the events in exactly the reference's order at 1, 2 and 4 workers.
//
// A program is a forest of events. Each event's behaviour is a pure
// function of the seed and its ID (a path like "r3.1.0"), so it is the
// same however workers interleave: when it runs it journals its ID and
// schedules its children, with zero, equal and distinct delays, as
// barriers (Schedule, or a lane's unkeyed ScheduleShard), sharded
// events (ScheduleShard, from the engine or a lane) or periodic
// sharded loops (ScheduleEveryShard), and a barrier may Stop the run.
// Sharded events schedule only through their lane, so their children
// are staged and merged after their segment; the reference assigns
// every push its seq at call time, as a serial run does, and the
// engine must agree.

// progKind is what an event is: how it was scheduled and so what it
// may schedule.
type progKind int

const (
	progBarrier progKind = iota // e.Schedule, or a lane's ScheduleShard with no shard
	progShard                   // ScheduleShard with a shard key
	progEvery                   // ScheduleEveryShard; only barriers start loops
	progStop                    // a barrier that stops the run, then schedules a zero-delay barrier
)

// progChild is one scheduling call an event makes.
type progChild struct {
	kind  progKind
	delay time.Duration
	shard string
	ticks int // progEvery: how many times the loop fires
}

// program derives every event's calls from the seed.
type program struct {
	seed     uint64
	maxDepth int
}

// mix is SplitMix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// children returns the calls event id of kind k makes when it runs at
// the given depth.
func (p program) children(id string, k progKind, depth int) []progChild {
	if depth >= p.maxDepth {
		return nil
	}
	h := p.seed
	for i := 0; i < len(id); i++ {
		h = mix(h ^ uint64(id[i]))
	}
	draw := func(n int) int {
		h = mix(h)
		return int(h % uint64(n))
	}
	delays := []time.Duration{0, 0, time.Second, time.Second, 2 * time.Second, 500 * time.Millisecond}
	shards := []string{"a", "b", "c", "d", "e"}
	n := draw(4)
	out := make([]progChild, 0, n)
	for i := 0; i < n; i++ {
		c := progChild{delay: delays[draw(len(delays))], shard: shards[draw(len(shards))]}
		switch r := draw(10); {
		case r < 3:
			c.kind = progBarrier
		case r < 8:
			c.kind = progShard
		case r < 9 && k != progShard:
			c.kind, c.delay, c.ticks = progEvery, time.Second*time.Duration(1+draw(2)), 1+draw(3)
		case k != progShard && depth > 0:
			c.kind = progStop
		default:
			c.kind = progShard
		}
		out = append(out, c)
	}
	return out
}

// refEvent is one event on the reference heap.
type refEvent struct {
	at  time.Duration
	seq int
	run func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refOrder runs the program on the reference heap and returns the IDs
// in the order their events ran.
func refOrder(p program, roots []progChild) []string {
	var (
		q     refHeap
		now   time.Duration
		seq   int
		order []string
	)
	push := func(delay time.Duration, fn func()) {
		if delay < 0 {
			delay = 0
		}
		seq++
		heap.Push(&q, refEvent{at: now + delay, seq: seq, run: fn})
	}
	var spawn func(id string, c progChild, depth int)
	var act func(id string, k progKind, depth int) func()
	act = func(id string, k progKind, depth int) func() {
		return func() {
			order = append(order, id)
			for i, c := range p.children(id, k, depth) {
				spawn(id+"."+strconv.Itoa(i), c, depth+1)
			}
		}
	}
	spawn = func(id string, c progChild, depth int) {
		switch c.kind {
		case progBarrier, progShard:
			push(c.delay, act(id, c.kind, depth))
		case progStop:
			push(c.delay, func() {
				order = append(order, id)
				push(0, act(id+".z", progBarrier, depth+1))
			})
		case progEvery:
			fired := 0
			var tick func()
			tick = func() {
				if fired == c.ticks {
					return
				}
				fired++
				act(id+"#"+strconv.Itoa(fired), progShard, depth)()
				push(c.delay, tick)
			}
			push(c.delay, tick)
		}
	}
	for i, c := range roots {
		spawn("r"+strconv.Itoa(i), c, 0)
	}
	for q.Len() > 0 {
		ev := heap.Pop(&q).(refEvent)
		now = ev.at
		ev.run()
	}
	return order
}

// engineOrder runs the program on an engine with the given workers,
// resuming after every Stop, and returns the journaled IDs in order and
// how many runs were stopped.
func engineOrder(t *testing.T, p program, roots []progChild, workers int) ([]string, int) {
	t.Helper()
	clock := NewClock(t0)
	e := NewEngine(clock)
	e.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	record := func(lane *Lane, id string) {
		audit.Resolve(lane, log).Append(audit.KindNote, "queue", id, nil)
	}

	// Engine-side and lane-side scheduling of one child.
	var fromEngine func(id string, c progChild, depth int)
	var fromLane func(lane *Lane, id string, c progChild, depth int)
	var barrier func(id string, depth int) func()
	var sharded func(id string, k progKind, depth int) func(*Lane)
	barrier = func(id string, depth int) func() {
		return func() {
			record(nil, id)
			for i, c := range p.children(id, progBarrier, depth) {
				fromEngine(id+"."+strconv.Itoa(i), c, depth+1)
			}
		}
	}
	sharded = func(id string, k progKind, depth int) func(*Lane) {
		return func(lane *Lane) {
			record(lane, id)
			for i, c := range p.children(id, k, depth) {
				fromLane(lane, id+"."+strconv.Itoa(i), c, depth+1)
			}
		}
	}
	stopper := func(id string, depth int) func() {
		return func() {
			record(nil, id)
			e.Stop()
			e.Schedule(0, barrier(id+".z", depth+1))
		}
	}
	fromEngine = func(id string, c progChild, depth int) {
		switch c.kind {
		case progBarrier:
			e.Schedule(c.delay, barrier(id, depth))
		case progShard:
			e.ScheduleShard(c.delay, c.shard, sharded(id, progShard, depth))
		case progStop:
			e.Schedule(c.delay, stopper(id, depth))
		case progEvery:
			fired := 0
			e.ScheduleEveryShard(c.delay, c.shard, func() bool { return fired < c.ticks },
				func(lane *Lane) {
					fired++
					sharded(id+"#"+strconv.Itoa(fired), progShard, depth)(lane)
				})
		}
	}
	fromLane = func(lane *Lane, id string, c progChild, depth int) {
		switch c.kind {
		case progBarrier:
			// A barrier staged from a lane runs with a direct lane; its
			// children schedule on the engine like any barrier's.
			b := barrier(id, depth)
			lane.ScheduleShard(c.delay, "", func(*Lane) { b() })
		case progShard:
			lane.ScheduleShard(c.delay, c.shard, sharded(id, progShard, depth))
		default:
			panic(fmt.Sprintf("%s: a sharded event cannot schedule kind %d", id, c.kind))
		}
	}
	for i, c := range roots {
		fromEngine("r"+strconv.Itoa(i), c, 0)
	}

	stopped := 0
	for {
		err := e.Run(t0.Add(time.Hour))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if stopped++; stopped > 1000 {
			t.Fatal("the run never finished")
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("workers=%d: %d events left past the horizon", workers, e.Pending())
	}
	if err := log.Verify(); err != nil {
		t.Fatal(err)
	}
	entries := log.Entries()
	order := make([]string, len(entries))
	for i, en := range entries {
		order[i] = en.Detail
	}
	return order, stopped
}

// randomRoots draws a program's root events, all scheduled before the
// run.
func randomRoots(p program, n int) []progChild {
	roots := make([]progChild, 0, n)
	for i := 0; i < n; i++ {
		for _, c := range p.children("root"+strconv.Itoa(i), progBarrier, 0) {
			if c.kind == progStop {
				c.kind = progBarrier
			}
			roots = append(roots, c)
		}
	}
	return roots
}

func TestQueueOrder(t *testing.T) {
	check := func(t *testing.T, p program, roots []progChild) (stops int) {
		t.Helper()
		want := refOrder(p, roots)
		if len(want) < len(roots) {
			t.Fatalf("reference ran %d events for %d roots", len(want), len(roots))
		}
		for _, workers := range []int{1, 2, 4} {
			got, stopped := engineOrder(t, p, roots, workers)
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("workers=%d: event %d is %s, want %s (%d events, want %d)",
							workers, i, at(got, i), want[i], len(got), len(want))
					}
				}
				t.Fatalf("workers=%d: ran %d events, want %d", workers, len(got), len(want))
			}
			if workers > 1 {
				stops += stopped
			}
		}
		return stops
	}

	t.Run("random", func(t *testing.T) {
		stops, events := 0, 0
		for seed := uint64(1); seed <= 40; seed++ {
			p := program{seed: seed, maxDepth: 4}
			roots := randomRoots(p, 12)
			events += len(refOrder(p, roots))
			stops += check(t, p, roots)
		}
		if events < 2000 {
			t.Errorf("the programs ran only %d events", events)
		}
		if stops == 0 {
			t.Error("no program stopped a parallel run")
		}
	})

	// A barrier stops the run in the middle of a batch and schedules a
	// zero-delay barrier: the sharded events and the barrier after it at
	// the same time are requeued, and on the next Run they must still
	// run before the zero-delay barrier, which was scheduled later.
	t.Run("stop mid-batch", func(t *testing.T) {
		p := program{maxDepth: 0}
		roots := []progChild{
			{kind: progShard, delay: time.Second, shard: "a"},
			{kind: progStop, delay: time.Second},
			{kind: progShard, delay: time.Second, shard: "a"},
			{kind: progShard, delay: time.Second, shard: "b"},
			{kind: progBarrier, delay: time.Second},
			{kind: progShard, delay: time.Second, shard: "c"},
		}
		want := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r1.z"}
		if got := refOrder(p, roots); !reflect.DeepEqual(got, want) {
			t.Fatalf("reference order %v, want %v", got, want)
		}
		if check(t, p, roots) != 2 {
			t.Error("the parallel runs did not stop")
		}
	})
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// TestRunQueueRecycles checks the queue's bookkeeping around recycled
// runs: a fleet-sized run's buffer goes back to the next fleet-sized
// run even when a lone timer opens a run first, and Len tracks pushes,
// pops, takes and requeues.
func TestRunQueueRecycles(t *testing.T) {
	var q runQueue
	seq := 0
	push := func(at time.Time, n int) {
		for i := 0; i < n; i++ {
			seq++
			q.push(at, scheduled{seq: seq, shard: fmt.Sprint(i)})
		}
	}
	t1, t2, t3 := t0.Add(time.Second), t0.Add(2*time.Second), t0.Add(3*time.Second)
	push(t1, 1000)
	push(t2, 1)
	if q.Len() != 1001 {
		t.Fatalf("Len = %d, want 1001", q.Len())
	}
	batch := q.take(t1, nil)
	if len(batch) != 1000 || q.Len() != 1 || len(q.spare) != 1 {
		t.Fatalf("took %d, Len %d, %d spare runs; want 1000, 1, 1", len(batch), q.Len(), len(q.spare))
	}
	big := &q.spare[0].items[:1][0] // the fleet-sized buffer
	push(t3, 1)                     // a lone timer opens the next run
	push(t2, 1000)                  // and a fleet-sized run follows it
	if len(q.spare) != 0 {
		t.Errorf("%d spare runs left: the fleet-sized run did not trade up", len(q.spare))
	}
	for _, r := range q.runs {
		if r.at.Equal(t3) && cap(r.items) > 2*smallRun {
			t.Errorf("the lone timer's run holds a %d-event buffer", cap(r.items))
		}
		if r.at.Equal(t2) && len(r.items) == 1000 && &r.items[0] != big {
			t.Error("the fleet-sized run grew a fresh buffer instead of reusing the spare one")
		}
	}
	q.requeue(t1, batch[500:])
	if q.Len() != 1002+500 {
		t.Fatalf("Len = %d after requeue, want 1502", q.Len())
	}
	if got := q.pop(); got.seq != batch[500].seq {
		t.Errorf("first pop after requeue has seq %d, want %d", got.seq, batch[500].seq)
	}
}
