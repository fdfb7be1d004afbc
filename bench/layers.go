package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// layerValues maps per-layer metric names to one traced round's
// readings.
type layerValues map[string]float64

// The replays below re-run one layer call outside the workload, on
// the workload's own inputs, where no public seam lets a wrapper time
// it in place.

// replayAppend appends total entries shaped like shape to a fresh log
// (cycling through shape) and returns the mean time per append in µs.
// Called with the run's entries and the journal's final length it
// replays the run's audit volume: hashing, chaining and slice growth.
func replayAppend(shape []audit.Entry, total int) float64 {
	if len(shape) == 0 || total == 0 {
		return 0
	}
	log := audit.New()
	start := time.Now()
	for i := 0; i < total; i++ {
		e := &shape[i%len(shape)]
		log.AppendOwned(e.Kind, e.Actor, e.Detail, e.Context)
	}
	return us(time.Since(start)) / float64(total)
}

// replayEvaluate specializes the device's current snapshot to its
// static profile and evaluates ev against its current state, n times,
// and returns the mean time per decision in µs. It fails when the
// event directs no action, which would make the replay measure the
// wrong path.
func replayEvaluate(d *device.Device, ev policy.Event, n int) (float64, error) {
	env := policy.Env{Event: ev, State: d.CurrentState(), Static: d.Profile()}
	actions := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		actions += len(d.Policies().Snapshot().Specialize(d.Profile()).Snap().Evaluate(env).Actions)
	}
	elapsed := time.Since(start)
	if actions == 0 {
		return 0, fmt.Errorf("evaluate replay on %s: event %q directs no action", d.ID(), ev.Type)
	}
	return us(elapsed) / float64(n), nil
}

// replayAllow runs an admission controller configured like the
// server's over the run's target sequence and returns the mean time
// per Allow in µs.
func replayAllow(targets []string, rate float64) (float64, error) {
	ctrl, err := admission.New(admission.Config{Rate: rate, Metrics: telemetry.NewRegistry()})
	if err != nil {
		return 0, err
	}
	if len(targets) == 0 {
		return 0, nil
	}
	shed := 0
	start := time.Now()
	for _, id := range targets {
		if ctrl.Allow(id, admission.ClassHuman) != nil {
			shed++
		}
	}
	elapsed := time.Since(start)
	if shed > 0 {
		return 0, fmt.Errorf("admission replay shed %d of %d targets", shed, len(targets))
	}
	return us(elapsed) / float64(len(targets)), nil
}

// spanSelf returns each span's self time in µs, grouped by span name:
// its duration minus the part of it that its children cover.
func spanSelf(spans []telemetry.Span) map[string][]float64 {
	children := make(map[telemetry.SpanID][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]float64)
	var iv [][2]time.Time
	for _, s := range spans {
		iv = iv[:0]
		for _, c := range children[s.ID] {
			from, to := spans[c].Start, spans[c].End
			if from.Before(s.Start) {
				from = s.Start
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				iv = append(iv, [2]time.Time{from, to})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
		var covered time.Duration
		var end time.Time
		for _, x := range iv {
			if x[0].Before(end) {
				x[0] = end
			}
			if x[1].After(x[0]) {
				covered += x[1].Sub(x[0])
				end = x[1]
			}
		}
		out[s.Name] = append(out[s.Name], us(s.End.Sub(s.Start)-covered))
	}
	return out
}

// runtimeSample is a reading of the Go runtime's own accounting.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	pauses          *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[3].Value.Float64Histogram()
	}
	return r
}

// runtimeDelta is what the runtime spent over one timed phase.
type runtimeDelta struct {
	gcCPUShare float64
	pauseMaxMS float64
	allocBytes float64
}

func (after runtimeSample) minus(before runtimeSample) runtimeDelta {
	d := runtimeDelta{
		gcCPUShare: ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
		allocBytes: float64(after.allocBytes - before.allocBytes),
	}
	// The longest pause is the upper edge of the highest bucket that
	// gained a count (its lower edge when the bucket is unbounded).
	if a, b := after.pauses, before.pauses; a != nil && b != nil && len(a.Counts) == len(b.Counts) {
		for i := len(a.Counts) - 1; i >= 0; i-- {
			if a.Counts[i] > b.Counts[i] {
				edge := a.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = a.Buckets[i]
				}
				d.pauseMaxMS = edge * 1e3
				break
			}
		}
	}
	return d
}

// liveHeapMiB collects garbage and returns the heap still in use.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
