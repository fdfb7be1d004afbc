// Conservative parallel execution for the discrete-event engine.
//
// The engine stays deterministic under parallelism by construction:
// only events that share a virtual timestamp ever run concurrently,
// events that share a shard key keep their (time, seq) order on a
// single worker, and every side effect that must be ordered — events
// scheduled for the future, audit-journal appends — is staged on the
// event's worker and merged on the run goroutine in (time, seq) order
// after the segment. Telemetry needs no staging: counters and
// histograms are commutative atomics, so any interleaving sums to the
// same snapshot.
package sim

import (
	"slices"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/telemetry"
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

	// w is the worker running the event; the event staged w.calls
	// [callFrom, callTo) and opened w.ranges [rangeFrom, rangeTo).
	w                  *worker
	callFrom, callTo   int
	rangeFrom, rangeTo int
}

var _ audit.Journal = (*Lane)(nil)

// worker is one parallel worker's staging, reused across segments: the
// events it runs stage their schedules in calls and their audit
// appends in one stage log per destination, and each event's lane
// records the spans it added.
type worker struct {
	calls []stagedCall
	// stages[:bound] serve the current segment's destinations.
	stages []workerStage
	bound  int
	ranges []stageRange
}

// stagedCall is one deferred ScheduleShard call.
type stagedCall struct {
	delay time.Duration
	shard string
	fn    func(*Lane)
}

// workerStage pairs a destination log with the worker's stage for it.
type workerStage struct {
	base, stage *audit.Log
}

// stageRange is the span [from, to) of stages[stage] one event
// appended.
type stageRange struct {
	stage, from, to int
}

// ScheduleShard queues a sharded callback, like Engine.ScheduleShard,
// deterministically ordered after the segment.
func (l *Lane) ScheduleShard(delay time.Duration, shard string, fn func(*Lane)) {
	if l.direct {
		l.eng.ScheduleShard(delay, shard, fn)
		return
	}
	l.w.calls = append(l.w.calls, stagedCall{delay: delay, shard: shard, fn: fn})
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
// base go to its worker's stage for base, and the lane records the
// range they fill there; after the segment the ranges are chained onto
// base in (time, seq) order. Direct (serial) lanes and nil bases pass
// through unchanged.
func (l *Lane) Route(base *audit.Log) *audit.Log {
	if base == nil || l == nil || l.direct {
		return base
	}
	w := l.w
	for _, r := range w.ranges[l.rangeFrom:] {
		if s := w.stages[r.stage]; s.base == base {
			return s.stage
		}
	}
	si := w.bind(base, l.eng)
	stage := w.stages[si].stage
	w.ranges = append(w.ranges, stageRange{stage: si, from: stage.Len()})
	return stage
}

// bind returns the index of the worker's stage for base, binding a
// free stage to it on first use in the segment.
func (w *worker) bind(base *audit.Log, e *Engine) int {
	for i := range w.stages[:w.bound] {
		if w.stages[i].base == base {
			return i
		}
	}
	if w.bound == len(w.stages) {
		// The stage stamps entries with the segment's time, which the
		// run goroutine set before the workers started.
		stage := audit.NewStage(audit.WithClock(func() time.Time { return e.segAt }))
		w.stages = append(w.stages, workerStage{stage: stage})
	}
	w.stages[w.bound].base = base
	w.bound++
	return w.bound - 1
}

// reserve makes room for a staged call and a journal range from each
// of n events — what a fleet's ticks stage — so a segment grows the
// worker's buffers at most once.
func (w *worker) reserve(n int) {
	w.calls = slices.Grow(w.calls, n)
	w.ranges = slices.Grow(w.ranges, n)
}

// exec runs one sharded event on the worker, recording the spans of
// staged calls and journal ranges it adds.
func (w *worker) exec(l *Lane, item *scheduled) {
	l.w = w
	l.callFrom, l.rangeFrom = len(w.calls), len(w.ranges)
	item.lfn(l)
	l.callTo, l.rangeTo = len(w.calls), len(w.ranges)
	for i := l.rangeFrom; i < l.rangeTo; i++ {
		r := &w.ranges[i]
		r.to = w.stages[r.stage].stage.Len()
	}
}

// reset empties the worker's staging for the next segment, keeping its
// buffers and unbinding its stages from their destinations.
func (w *worker) reset() {
	clear(w.calls)
	w.calls = w.calls[:0]
	w.ranges = w.ranges[:0]
	for i := range w.stages[:w.bound] {
		w.stages[i].stage.Reset()
		w.stages[i].base = nil
	}
	w.bound = 0
}

// runParallel is Run's batch-parallel loop: it drains the queue one
// same-timestamp batch at a time, fanning sharded events out over the
// worker pool and merging their staged effects back deterministically.
func (e *Engine) runParallel(horizon time.Time) error {
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
		t := r.at
		batch := e.queue.take(t, e.batch[:0])
		e.mu.Unlock()
		e.clock.AdvanceTo(t)
		err := e.runBatch(t, batch)
		clear(batch)
		e.batch = batch[:0]
		if err != nil {
			return err
		}
	}
}

// runBatch executes one same-timestamp batch in seq order: maximal
// runs of sharded events become parallel segments, unkeyed events are
// serial barriers between them.
func (e *Engine) runBatch(t time.Time, batch []scheduled) error {
	i := 0
	for i < len(batch) {
		if e.stop.CompareAndSwap(true, false) {
			// Requeue the rest under their own seqs, ahead of anything
			// the barriers before the stop scheduled at t, so Pending
			// stays accurate and the next Run resumes in order.
			e.mu.Lock()
			e.queue.requeue(t, batch[i:])
			e.mu.Unlock()
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
		e.runSegment(t, batch[i:j])
		i = j
	}
	return nil
}

// runSegment executes one run of sharded events across the worker
// pool. Events are grouped by shard key in first-appearance order;
// each group is processed by exactly one worker, in seq order; the
// staged effects are merged on the run goroutine in seq order
// afterwards.
func (e *Engine) runSegment(t time.Time, seg []scheduled) {
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
	for k := range seg {
		gi, ok := groupOf[seg[k].shard]
		if !ok {
			gi = ngroups
			groupOf[seg[k].shard] = gi
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
	for len(e.workers) < workers {
		e.workers = append(e.workers, worker{})
	}
	if cap(e.segLanes) < len(seg) {
		e.segLanes = make([]Lane, len(seg))
	}
	lanes := e.segLanes[:len(seg)]
	for k := range lanes {
		lanes[k] = Lane{eng: e, seq: seg[k].seq}
	}
	e.segAt = t
	var start time.Time
	if e.segRunMS != nil {
		start = time.Now()
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
		go func(w *worker, first int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			n := 0
			for gi := first; gi < len(groups); gi += workers {
				n += len(groups[gi])
			}
			w.reserve(n)
			for gi := first; gi < len(groups); gi += workers {
				for _, k := range groups[gi] {
					w.exec(&lanes[k], &seg[k])
				}
			}
		}(&e.workers[w], w)
	}
	wg.Wait()
	if panicked != nil {
		for i := range e.workers {
			e.workers[i].reset()
		}
		panic(panicked)
	}
	var merged time.Time
	if e.segRunMS != nil {
		merged = time.Now()
	}
	e.merge(lanes)
	if e.segRunMS != nil {
		e.segEvents.Observe(float64(len(seg)))
		e.segRunMS.Observe(msSince(start, merged))
		e.segMergeMS.Observe(msSince(merged, time.Now()))
	}
}

// merge applies a segment's staged effects in event (time, seq) order:
// each event's journal ranges are chained onto their destinations, then
// its staged schedules get fresh sequence numbers under one hold of
// the queue lock. The workers' staging is then reset for the next
// segment.
func (e *Engine) merge(lanes []Lane) {
	for k := range lanes {
		l := &lanes[k]
		for _, r := range l.w.ranges[l.rangeFrom:l.rangeTo] {
			s := l.w.stages[r.stage]
			s.base.Chain(s.stage, r.from, r.to)
		}
	}
	now := e.clock.Now()
	e.mu.Lock()
	for k := range lanes {
		l := &lanes[k]
		for _, c := range l.w.calls[l.callFrom:l.callTo] {
			e.pushAt(now, c.delay, c.shard, nil, c.fn)
		}
	}
	e.mu.Unlock()
	for i := range e.workers {
		e.workers[i].reset()
	}
}

// segmentEventBuckets bound engine.segment_events: powers of four from
// a pair of events to a million-device fleet's tick.
var segmentEventBuckets = []float64{2, 8, 32, 128, 512, 2048, 8192, 32768, 131072, 524288, 2097152}

// Instrument records parallel-segment telemetry into reg:
// engine.segment_events, the events each parallel segment ran, and
// engine.segment_ms{phase=run|merge}, the wall time of its workers and
// of its merge. Serial runs and single-shard segments, which never
// reach the worker pool, record nothing. A nil registry turns the
// series off. Not safe to call while Run is in progress.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	e.segEvents = reg.HistogramBuckets("engine.segment_events", segmentEventBuckets)
	e.segRunMS = reg.Histogram("engine.segment_ms", "phase", "run")
	e.segMergeMS = reg.Histogram("engine.segment_ms", "phase", "merge")
}

func msSince(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}
