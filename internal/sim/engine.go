package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ErrStopped is returned by Run when the engine was stopped before the
// horizon.
var ErrStopped = errors.New("sim: engine stopped")

// Engine is a discrete-event scheduler over a virtual clock: callbacks
// fire in timestamp order (FIFO among equal timestamps), and the clock
// jumps between event times.
//
// By default the engine is serial. SetParallelism enables conservative
// parallel execution: events scheduled with a shard key (ScheduleShard,
// ScheduleEveryShard) that share a timestamp are drained across a
// bounded worker pool — same-shard events stay ordered on one worker,
// unkeyed events act as serial barriers — and every event's staged
// schedules and audit appends are merged back in (time, seq) order.
// A fixed seed therefore yields byte-identical audit journals and
// deterministic metric snapshots at any worker count (see Lane for the
// contract shard callbacks must follow).
type Engine struct {
	clock *Clock

	// mu guards the queue and the seq counter. The serial hot path is
	// uncontended; it exists so transports and resilience layers may
	// schedule from other goroutines.
	mu    sync.Mutex
	queue runQueue
	seq   int

	// stop is sticky until consumed: each Stop cancels the current
	// run, or — when called between runs — the next one.
	stop atomic.Bool

	parallelism int

	// directLane is the shared pass-through lane of serial execution;
	// it holds only the running event's key position, so every serial
	// keyed callback can borrow it in turn.
	directLane Lane
	// batch, segAt, segGroupOf, segGroups, segLanes and workers are
	// scratch reused across parallel batches and segments. The run
	// goroutine sets them up between segments (workers see them via the
	// happens-before edge of goroutine creation); during a segment,
	// worker w writes only workers[w] and its events' lanes, which the
	// run goroutine reads after they finish. So they need no lock.
	batch      []scheduled
	segAt      time.Time
	segGroupOf map[string]int
	segGroups  [][]int
	segLanes   []Lane
	workers    []worker

	// Segment telemetry (see Instrument); nil histograms cost nothing.
	segEvents, segRunMS, segMergeMS *telemetry.Histogram
}

// NewEngine returns an engine over the clock.
func NewEngine(clock *Clock) *Engine {
	e := &Engine{clock: clock}
	e.directLane = Lane{eng: e, direct: true}
	return e
}

// Clock returns the engine's clock.
func (e *Engine) Clock() *Clock { return e.clock }

// SetParallelism sets the worker count for same-timestamp sharded
// batches. Values ≤ 1 keep the engine serial (the default). Not safe
// to call while Run is in progress.
func (e *Engine) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.parallelism = n
}

// Parallelism returns the configured worker count (≤ 1 means serial).
func (e *Engine) Parallelism() int { return e.parallelism }

// Schedule queues fn to run after delay (relative to the current
// virtual time). Non-positive delays run at the current time, after
// already-queued events with the same timestamp. Events scheduled this
// way carry no shard key and execute as serial barriers in parallel
// runs.
//
// Determinism note: calling Schedule from inside a sharded callback
// during a parallel run is safe (the queue is locked) but assigns
// sequence numbers in worker completion order; schedule through the
// lane there to keep runs reproducible.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	e.mu.Lock()
	e.push(delay, "", fn, nil)
	e.mu.Unlock()
}

// ScheduleShard queues a sharded callback: in parallel runs, events at
// the same timestamp with different shard keys may execute
// concurrently, while events sharing a key stay ordered on one worker.
// The shard key must own every piece of mutable state the callback
// touches that is not safe for concurrent use (see Lane). An empty
// shard key degrades to a serial barrier.
func (e *Engine) ScheduleShard(delay time.Duration, shard string, fn func(*Lane)) {
	e.mu.Lock()
	e.push(delay, shard, nil, fn)
	e.mu.Unlock()
}

// push queues one callback; the caller holds e.mu.
func (e *Engine) push(delay time.Duration, shard string, fn func(), lfn func(*Lane)) {
	e.pushAt(e.clock.Now(), delay, shard, fn, lfn)
}

// pushAt is push relative to now, which the caller read from the clock.
func (e *Engine) pushAt(now time.Time, delay time.Duration, shard string, fn func(), lfn func(*Lane)) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.queue.push(now.Add(delay), scheduled{seq: e.seq, shard: shard, fn: fn, lfn: lfn})
}

// ScheduleEvery queues fn to run every interval until the predicate
// returns false (checked before each run). Interval must be positive.
func (e *Engine) ScheduleEvery(interval time.Duration, while func() bool, fn func()) {
	if interval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		if while != nil && !while() {
			return
		}
		fn()
		e.Schedule(interval, tick)
	}
	e.Schedule(interval, tick)
}

// ScheduleEveryShard is ScheduleEvery for sharded callbacks: the
// predicate and fn run on the shard's worker, and the next tick is
// rescheduled through the lane so parallel runs stay deterministic.
func (e *Engine) ScheduleEveryShard(interval time.Duration, shard string, while func() bool, fn func(*Lane)) {
	if interval <= 0 {
		return
	}
	var tick func(*Lane)
	tick = func(lane *Lane) {
		if while != nil && !while() {
			return
		}
		fn(lane)
		lane.ScheduleShard(interval, shard, tick)
	}
	e.ScheduleShard(interval, shard, tick)
}

// Stop makes the current Run (or, when called between runs, the next
// one) return ErrStopped. Safe to call from any goroutine, including
// event callbacks. The request is consumed by the Run that observes
// it, so a stopped engine can be run again afterwards.
func (e *Engine) Stop() { e.stop.Store(true) }

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queue.Len()
}

// Run processes events until the queue is empty or the next event lies
// beyond the horizon, advancing the clock as it goes. It returns
// ErrStopped if Stop was called before or during the run. With
// parallelism configured, same-timestamp sharded events execute on the
// worker pool (see SetParallelism).
func (e *Engine) Run(horizon time.Time) error {
	if e.parallelism > 1 {
		return e.runParallel(horizon)
	}
	for {
		if e.stop.CompareAndSwap(true, false) {
			return ErrStopped
		}
		e.mu.Lock()
		r := e.queue.peek()
		if r == nil || r.at.After(horizon) {
			e.mu.Unlock()
			return nil
		}
		at := r.at
		item := e.queue.pop()
		e.mu.Unlock()
		e.clock.AdvanceTo(at)
		e.execSerial(item)
	}
}

// execSerial runs one event inline; keyed callbacks get a direct
// (pass-through) lane, so serial and parallel runs share one code path
// in callers.
func (e *Engine) execSerial(item scheduled) {
	if item.lfn != nil {
		item.lfn(e.directLane.serve(item.seq))
		return
	}
	item.fn()
}

// scheduled is one queued callback; its time is its run's.
type scheduled struct {
	seq   int
	shard string
	fn    func()
	lfn   func(*Lane)
}

// run is a FIFO of events pushed back to back with one timestamp.
type run struct {
	at time.Time
	// first is the sequence number of the run's first event, its heap
	// key; items[:head] have been popped.
	first int
	items []scheduled
	head  int
}

// runQueue is the event queue: a min-heap of runs ordered by (time,
// first seq). Sequence numbers only grow and a push extends only the
// newest run (opening a fresh one when its time differs), so runs at
// one timestamp never interleave: draining run heads in heap order
// yields events in exactly (time, seq) order, and consecutive pushes
// at one time — a fleet rescheduling its ticks — cost an append each,
// not a heap sift.
//
// Drained runs are recycled, those holding a large buffer on a
// separate spare list: a new run starts small and trades up to the
// largest spare buffer once it fills smallRun events (grow), so a
// timer firing beside a fleet's ticks never walks off with the
// fleet-sized buffer.
type runQueue struct {
	// runs is a binary min-heap ordered by (time, first seq).
	runs []*run
	// newest is the run the last push landed in, while it is queued.
	newest *run
	free   []*run
	spare  []*run
	n      int
}

// smallRun is the size at which a filling run trades up. Buffers of
// up to twice that — what a trade hands down, allowing for allocation
// size classes — count as small.
const smallRun = 64

func (q *runQueue) Len() int { return q.n }

// peek returns the run holding the next event, or nil.
func (q *runQueue) peek() *run {
	if len(q.runs) == 0 {
		return nil
	}
	return q.runs[0]
}

// push queues an event whose seq exceeds every queued one.
func (q *runQueue) push(at time.Time, item scheduled) {
	q.n++
	r := q.newest
	if r == nil || !r.at.Equal(at) {
		r = q.open(at, item.seq)
		q.newest = r
	}
	if len(r.items) == cap(r.items) && len(r.items) >= smallRun {
		q.grow(r)
	}
	r.items = append(r.items, item)
}

// grow trades r's full buffer, which has outgrown small, for the
// largest spare one, when that is larger, and refiles the spare run by
// its new buffer.
func (q *runQueue) grow(r *run) {
	big := -1
	for i, f := range q.spare {
		if cap(f.items) > cap(r.items) && (big < 0 || cap(f.items) > cap(q.spare[big].items)) {
			big = i
		}
	}
	if big < 0 {
		return
	}
	f := q.spare[big]
	items := append(f.items[:0], r.items[r.head:]...)
	clear(r.items)
	f.items, r.items, r.head = r.items[:0], items, 0
	last := len(q.spare) - 1
	q.spare[big] = q.spare[last]
	q.spare[last] = nil
	q.spare = q.spare[:last]
	q.recycle(f)
}

// requeue puts events taken off the queue back under their own
// sequence numbers, as one run. They must share time at and be in seq
// order, and no queued event at at may precede them.
func (q *runQueue) requeue(at time.Time, items []scheduled) {
	if len(items) == 0 {
		return
	}
	q.n += len(items)
	r := q.open(at, items[0].seq)
	r.items = append(r.items, items...)
}

// open pushes an empty run onto the heap. It reuses a small recycled
// run, never a spare one: spare buffers go only to runs that fill up.
func (q *runQueue) open(at time.Time, first int) *run {
	var r *run
	if n := len(q.free); n > 0 {
		r = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		r = &run{}
	}
	r.at, r.first = at, first
	q.runs = append(q.runs, r)
	q.up(len(q.runs) - 1)
	return r
}

// pop removes and returns the next event; the queue must not be empty.
func (q *runQueue) pop() scheduled {
	r := q.runs[0]
	item := r.items[r.head]
	r.items[r.head] = scheduled{}
	r.head++
	q.n--
	if r.head == len(r.items) {
		q.drop()
	}
	return item
}

// take appends every queued event at time at — whole runs, in seq
// order — to batch.
func (q *runQueue) take(at time.Time, batch []scheduled) []scheduled {
	for len(q.runs) > 0 && q.runs[0].at.Equal(at) {
		r := q.runs[0]
		batch = append(batch, r.items[r.head:]...)
		q.n -= len(r.items) - r.head
		q.drop()
	}
	return batch
}

// drop removes the top run from the heap and recycles it.
func (q *runQueue) drop() {
	r := q.runs[0]
	last := len(q.runs) - 1
	q.runs[0] = q.runs[last]
	q.runs[last] = nil
	q.runs = q.runs[:last]
	if last > 0 {
		q.down(0)
	}
	if q.newest == r {
		q.newest = nil
	}
	clear(r.items)
	r.items, r.head, r.at = r.items[:0], 0, time.Time{}
	q.recycle(r)
}

// recycle files an emptied run on the free or spare list.
func (q *runQueue) recycle(r *run) {
	if cap(r.items) > 2*smallRun {
		q.spare = append(q.spare, r)
	} else {
		q.free = append(q.free, r)
	}
}

// The heap is sifted by hand: container/heap's interface calls cost a
// queue of single-event runs (timers at distinct times) ~13% in
// BenchmarkEngineScheduleBurst.

func (q *runQueue) less(i, j int) bool {
	a, b := q.runs[i], q.runs[j]
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.first < b.first
}

func (q *runQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.runs[i], q.runs[parent] = q.runs[parent], q.runs[i]
		i = parent
	}
}

func (q *runQueue) down(i int) {
	n := len(q.runs)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if right := child + 1; right < n && q.less(right, child) {
			child = right
		}
		if !q.less(child, i) {
			return
		}
		q.runs[i], q.runs[child] = q.runs[child], q.runs[i]
		i = child
	}
}
