package sim

import (
	"container/heap"
	"errors"
	"sync"
	"sync/atomic"
	"time"
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
// unkeyed events act as serial barriers — and every lane's deferred
// schedules and audit appends are merged back in (time, seq) order.
// A fixed seed therefore yields byte-identical audit journals and
// deterministic metric snapshots at any worker count (see Lane for the
// contract shard callbacks must follow).
type Engine struct {
	clock *Clock

	// mu guards the queue, the seq counter and the free list. The
	// serial hot path is uncontended; it exists so transports and
	// resilience layers may schedule from other goroutines.
	mu    sync.Mutex
	queue eventQueue
	seq   int
	free  *scheduled

	// stop is sticky until consumed: each Stop cancels the current
	// run, or — when called between runs — the next one.
	stop atomic.Bool

	parallelism int

	// directLane is the shared pass-through lane of serial execution;
	// it holds only the running event's key position, so every serial
	// keyed callback can borrow it in turn.
	directLane Lane
	// laneFree, segGroupOf, segGroups and segLanes are scratch reused
	// across parallel segments. They are touched only on the run
	// goroutine (worker goroutines see their pre-assigned lanes via the
	// happens-before edge of goroutine creation), so they need no lock.
	laneFree   []*Lane
	segGroupOf map[string]int
	segGroups  [][]int
	segLanes   []*Lane
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
	if delay < 0 {
		delay = 0
	}
	e.seq++
	item := e.acquire()
	item.at = e.clock.Now().Add(delay)
	item.seq = e.seq
	item.shard = shard
	item.fn = fn
	item.lfn = lfn
	heap.Push(&e.queue, item)
}

// acquire pops a recycled scheduled struct or allocates a fresh one.
func (e *Engine) acquire() *scheduled {
	if e.free == nil {
		return &scheduled{}
	}
	item := e.free
	e.free = item.nextFree
	item.nextFree = nil
	return item
}

// release recycles an executed event's struct, dropping closure and
// key references so they can be collected.
func (e *Engine) release(item *scheduled) {
	item.fn = nil
	item.lfn = nil
	item.shard = ""
	item.at = time.Time{}
	item.seq = 0
	e.mu.Lock()
	item.nextFree = e.free
	e.free = item
	e.mu.Unlock()
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
		if e.queue.Len() == 0 {
			e.mu.Unlock()
			return nil
		}
		next := e.queue[0]
		if next.at.After(horizon) {
			e.mu.Unlock()
			return nil
		}
		heap.Pop(&e.queue)
		e.mu.Unlock()
		e.clock.AdvanceTo(next.at)
		e.execSerial(next)
	}
}

// execSerial runs one event inline; keyed callbacks get a direct
// (pass-through) lane, so serial and parallel runs share one code path
// in callers.
func (e *Engine) execSerial(item *scheduled) {
	fn, lfn, seq := item.fn, item.lfn, item.seq
	e.release(item)
	if lfn != nil {
		lfn(e.directLane.serve(seq))
		return
	}
	fn()
}

// scheduled is one queued callback.
type scheduled struct {
	at    time.Time
	seq   int
	shard string
	fn    func()
	lfn   func(*Lane)
	// nextFree links recycled structs (see Engine.acquire).
	nextFree *scheduled
}

// eventQueue is a min-heap ordered by (time, seq).
type eventQueue []*scheduled

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) {
	item, ok := x.(*scheduled)
	if !ok {
		return
	}
	*q = append(*q, item)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}
