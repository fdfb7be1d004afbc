// Conservative parallel execution for the discrete-event engine.
//
// The engine stays deterministic under parallelism by construction:
// only events that share a virtual timestamp ever run concurrently,
// events that share a shard key keep their (time, seq) order on a
// single worker, and every side effect that must be ordered — events
// scheduled for the future, audit-journal appends — is buffered in the
// event's Lane and merged on the run goroutine in (time, seq) order
// after the batch. Telemetry needs no buffering: counters and
// histograms are commutative atomics, so any interleaving sums to the
// same snapshot.
package sim

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/audit"
)

// Lane is the deterministic effect channel of one in-flight sharded
// event. Callbacks receive their lane and must route ordered side
// effects through it:
//
//   - future events:  lane.ScheduleShard (an empty shard is a barrier)
//   - audit appends:  lane.Route(log) in place of the log itself
//     (Lane implements audit.Journal)
//   - keyed draws:    lane.Key, a position that is the same at any
//     worker count (the bus keys its fault draws by it)
//
// Everything else a sharded callback touches must be either owned by
// its shard key (a device's state, a recipient's mailbox) or safe and
// order-independent under concurrency (atomic counters, histograms,
// shard-labeled gauges). Wall-clock readings are never deterministic;
// keep them out of anything the determinism gate compares.
//
// In serial runs the engine passes a direct lane whose methods are
// zero-cost pass-throughs, so one callback implementation serves both
// modes. A nil *Lane (a caller outside any event) routes appends
// straight to the log and has no key; it cannot schedule.
type Lane struct {
	eng    *Engine
	direct bool
	// seq is the sequence number of the event the lane serves; keys
	// counts the Key calls the event made so far.
	seq  int
	keys int

	staged   []stagedCall
	journals []laneJournal
}

var _ audit.Journal = (*Lane)(nil)

// stagedCall is one deferred ScheduleShard call.
type stagedCall struct {
	delay time.Duration
	shard string
	fn    func(*Lane)
}

// laneJournal pairs a destination log with its per-lane staging
// buffer.
type laneJournal struct {
	base  *audit.Log
	stage *audit.Log
}

// ScheduleShard queues a sharded callback, like Engine.ScheduleShard,
// deterministically ordered after the batch.
func (l *Lane) ScheduleShard(delay time.Duration, shard string, fn func(*Lane)) {
	if l.direct {
		l.eng.ScheduleShard(delay, shard, fn)
		return
	}
	l.staged = append(l.staged, stagedCall{delay: delay, shard: shard, fn: fn})
}

// Key returns a position that no other Key call of the run shares and
// that is the same at any worker count: the sequence number of the
// event the lane serves, and how many keys that event took before this
// one. A nil lane has no position and reports ok false.
func (l *Lane) Key() (seq, n uint64, ok bool) {
	if l == nil {
		return 0, 0, false
	}
	l.keys++
	return uint64(l.seq), uint64(l.keys - 1), true
}

// serve readies the lane for one event.
func (l *Lane) serve(seq int) *Lane {
	l.seq, l.keys = seq, 0
	return l
}

// Route implements audit.Journal: appends the callback would make to
// base are buffered in a per-lane staging log and merged into base in
// (time, seq) order after the batch. Direct (serial) lanes and nil
// bases pass through unchanged.
func (l *Lane) Route(base *audit.Log) *audit.Log {
	if base == nil || l == nil || l.direct {
		return base
	}
	for _, j := range l.journals {
		if j.base == base {
			return j.stage
		}
	}
	stage := audit.NewStage(audit.WithClock(l.eng.clock.Now))
	l.journals = append(l.journals, laneJournal{base: base, stage: stage})
	return stage
}

// flush merges the lane's buffered effects into the engine: staged
// audit entries chain onto their destination logs, staged schedules
// get fresh sequence numbers. Called on the run goroutine, one lane at
// a time, in event (time, seq) order.
//
// The lane keeps its buffers afterwards (truncated, closure references
// dropped): pooled lanes reuse their staging slices and — because
// Adopt leaves an adopted stage empty but intact — their per-log stage
// journals across segments. A staging slice that grew past 64 calls
// (an event that sent a whole fan-out batch) is dropped instead, so the
// pool does not pin it for events that stage one or two.
func (l *Lane) flush(e *Engine) {
	for _, j := range l.journals {
		j.base.Adopt(j.stage)
	}
	if len(l.staged) > 0 {
		e.mu.Lock()
		for _, c := range l.staged {
			e.push(c.delay, c.shard, nil, c.fn)
		}
		e.mu.Unlock()
	}
	if cap(l.staged) > 64 {
		l.staged = nil
		return
	}
	clear(l.staged)
	l.staged = l.staged[:0]
}

// runParallel is Run's batch-parallel loop: it drains the queue one
// same-timestamp batch at a time, fanning sharded events out over the
// worker pool and merging their lanes back deterministically.
func (e *Engine) runParallel(horizon time.Time) error {
	var batch []*scheduled
	for {
		if e.stop.CompareAndSwap(true, false) {
			return ErrStopped
		}
		e.mu.Lock()
		if e.queue.Len() == 0 {
			e.mu.Unlock()
			return nil
		}
		t := e.queue[0].at
		if t.After(horizon) {
			e.mu.Unlock()
			return nil
		}
		batch = batch[:0]
		for e.queue.Len() > 0 && e.queue[0].at.Equal(t) {
			item, _ := heap.Pop(&e.queue).(*scheduled)
			batch = append(batch, item)
		}
		e.mu.Unlock()
		e.clock.AdvanceTo(t)
		if err := e.runBatch(batch); err != nil {
			return err
		}
	}
}

// runBatch executes one same-timestamp batch in seq order: maximal
// runs of sharded events become parallel segments, unkeyed events are
// serial barriers between them.
func (e *Engine) runBatch(batch []*scheduled) error {
	i := 0
	for i < len(batch) {
		if e.stop.CompareAndSwap(true, false) {
			e.requeue(batch[i:])
			return ErrStopped
		}
		if batch[i].shard == "" {
			e.execSerial(batch[i])
			i++
			continue
		}
		j := i
		for j < len(batch) && batch[j].shard != "" {
			j++
		}
		e.runSegment(batch[i:j])
		i = j
	}
	return nil
}

// requeue puts unexecuted batch events back on the queue (their
// timestamps and sequence numbers are still valid) so a mid-batch Stop
// leaves Pending accurate.
func (e *Engine) requeue(items []*scheduled) {
	e.mu.Lock()
	for _, item := range items {
		heap.Push(&e.queue, item)
	}
	e.mu.Unlock()
}

// runSegment executes one run of sharded events across the worker
// pool. Events are grouped by shard key in first-appearance order;
// each group is processed by exactly one worker, in seq order; lanes
// are flushed on the run goroutine in seq order afterwards.
func (e *Engine) runSegment(seg []*scheduled) {
	if len(seg) == 1 {
		e.execSerial(seg[0])
		return
	}

	// Group event indexes by shard, preserving first-appearance order,
	// in scratch reused across segments (run goroutine only).
	if e.segGroupOf == nil {
		e.segGroupOf = make(map[string]int, len(seg))
	}
	groupOf := e.segGroupOf
	clear(groupOf)
	groups := e.segGroups
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	ngroups := 0
	for k, item := range seg {
		gi, ok := groupOf[item.shard]
		if !ok {
			gi = ngroups
			groupOf[item.shard] = gi
			if ngroups == len(groups) {
				groups = append(groups, nil)
			}
			ngroups++
		}
		groups[gi] = append(groups[gi], k)
	}
	e.segGroups = groups
	groups = groups[:ngroups]
	if ngroups == 1 {
		// One shard: no concurrency available, run inline.
		for _, item := range seg {
			e.execSerial(item)
		}
		return
	}

	workers := e.parallelism
	if workers > ngroups {
		workers = ngroups
	}

	// Pre-assign pooled lanes on the run goroutine — workers then
	// allocate nothing per event, and the assignments are published to
	// them by goroutine creation.
	if cap(e.segLanes) < len(seg) {
		e.segLanes = make([]*Lane, len(seg))
	}
	lanes := e.segLanes[:len(seg)]
	for k := range lanes {
		lanes[k] = e.acquireLane().serve(seg[k].seq)
	}

	// Static round-robin partition of shard groups over the workers: a
	// per-group dispatch channel costs more in synchronization than the
	// imbalance it would fix for the fine-grained shards this engine
	// runs (one device tick, one message delivery).
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for gi := w; gi < len(groups); gi += workers {
				for _, k := range groups[gi] {
					seg[k].lfn(lanes[k])
				}
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	// Deterministic merge: lanes flush in event (time, seq) order, then
	// return to the free pool for the next segment.
	for k, item := range seg {
		lanes[k].flush(e)
		e.release(item)
		e.laneFree = append(e.laneFree, lanes[k])
		lanes[k] = nil
	}
}

// acquireLane pops a pooled lane or allocates a fresh one. Run
// goroutine only.
func (e *Engine) acquireLane() *Lane {
	if n := len(e.laneFree); n > 0 {
		l := e.laneFree[n-1]
		e.laneFree[n-1] = nil
		e.laneFree = e.laneFree[:n-1]
		return l
	}
	return &Lane{eng: e}
}
