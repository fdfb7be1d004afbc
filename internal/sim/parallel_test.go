package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/telemetry"
)

// scenarioResult captures everything a differential run compares: the
// full chains of both journals (hashes included, so "equal" means
// byte-identical) and the per-shard work tallies.
type scenarioResult struct {
	entries []audit.Entry
	ledger  []audit.Entry
	tally   []int
}

// scenarioCtx returns the context one scenario append carries: 0 to 4
// keys, some values empty, some keys and values multi-byte.
func scenarioCtx(shard string, tick, n int) map[string]string {
	if n == 0 {
		return nil
	}
	ctx := make(map[string]string, n)
	vals := []string{fmt.Sprint(tick), "", "héllo→世界", shard}
	keys := []string{"n", "empty", "ключ", "shard"}
	for i := 0; i < n; i++ {
		ctx[keys[i]] = vals[i]
	}
	return ctx
}

// runScenario drives one deterministic workload on a fresh engine: a
// fleet of sharded periodic loops that append audit entries through
// their lanes to two journals — some shards write the second before
// the first, some ticks write nothing — stage same-time and future
// re-schedules, and interleave with unkeyed barrier events: the full
// surface the parallel merge must keep in serial order, over many
// segments that reuse the workers' stages. All randomness is drawn at
// setup time from the seed; callbacks themselves are deterministic.
func runScenario(t *testing.T, seed int64, workers int) scenarioResult {
	t.Helper()
	clock := NewClock(t0)
	e := NewEngine(clock)
	e.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	ledger := audit.New(audit.WithClock(clock.Now))
	rng := rand.New(rand.NewSource(seed))

	const shards = 8
	tally := make([]int, shards) // distinct indexes per shard: race-free
	ticksFor := make([]int, shards)
	extraEvery := make([]int, shards)
	quietEvery := make([]int, shards)
	for s := 0; s < shards; s++ {
		ticksFor[s] = 5 + rng.Intn(10)
		extraEvery[s] = 2 + rng.Intn(3)
		quietEvery[s] = 3 + rng.Intn(3)
	}

	for s := 0; s < shards; s++ {
		s := s
		shard := fmt.Sprintf("dev-%d", s)
		tick := 0
		e.ScheduleEveryShard(time.Second, shard,
			func() bool { return tick < ticksFor[s] },
			func(lane *Lane) {
				tick++
				tally[s]++
				if tick%quietEvery[s] != 0 {
					// The lane's key positions are part of the journal, so
					// the differential also proves them equal at any worker
					// count.
					seq, n, _ := lane.Key()
					_, n2, _ := lane.Key()
					entry := func() {
						audit.Resolve(lane, log).Append(audit.KindAction, shard,
							fmt.Sprintf("tick %d", tick), map[string]string{"n": fmt.Sprint(tick),
								"key": fmt.Sprintf("%d/%d,%d", seq, n, n2)})
					}
					status := func() {
						audit.Resolve(lane, ledger).Append(audit.KindBundle, shard,
							fmt.Sprintf("status %d", tick), scenarioCtx(shard, tick, (tick+s)%5))
					}
					if s%3 == 0 {
						status()
						entry()
					} else {
						entry()
						if tick%2 == 0 {
							status()
						}
					}
				}
				if tick%extraEvery[s] == 0 {
					// Same-time keyed follow-up: the engine must re-drain
					// the timestamp and keep it after this event.
					lane.ScheduleShard(0, shard, func(inner *Lane) {
						tally[s]++
						audit.Resolve(inner, log).Append(audit.KindNote, shard,
							fmt.Sprintf("echo %d", tick), scenarioCtx(shard, tick, tick%5))
					})
				}
				if tick == ticksFor[s] {
					// Future barrier follow-up staged from a shard.
					lane.ScheduleShard(500*time.Millisecond, "", func(*Lane) {
						log.Append(audit.KindCheckpoint, shard, "done", nil)
					})
				}
			})
	}

	// Barrier events interleaved between tick timestamps, with a nested
	// schedule to cover re-entrancy from serial segments.
	for i := 1; i <= 4; i++ {
		i := i
		e.Schedule(time.Duration(i)*2*time.Second+250*time.Millisecond, func() {
			log.Append(audit.KindNote, "sweeper", fmt.Sprintf("sweep %d", i), nil)
			e.Schedule(100*time.Millisecond, func() {
				log.Append(audit.KindNote, "sweeper", fmt.Sprintf("post-sweep %d", i), nil)
			})
		})
	}

	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	for _, l := range []*audit.Log{log, ledger} {
		if err := l.Verify(); err != nil {
			t.Fatalf("audit chain broken (workers=%d): %v", workers, err)
		}
	}
	return scenarioResult{entries: log.Entries(), ledger: ledger.Entries(), tally: tally}
}

// TestParallelDeterminism is the differential gate: for several seeds,
// a parallel run at any worker count must produce byte-identical audit
// journals (same entries, same hash chains) and identical work tallies
// as the serial run.
func TestParallelDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		serial := runScenario(t, seed, 1)
		if len(serial.entries) == 0 || len(serial.ledger) == 0 {
			t.Fatalf("seed %d: serial run produced %d entries and %d ledger entries",
				seed, len(serial.entries), len(serial.ledger))
		}
		for _, workers := range []int{2, 4, 8} {
			got := runScenario(t, seed, workers)
			if !reflect.DeepEqual(serial.tally, got.tally) {
				t.Errorf("seed %d workers %d: tally = %v, want %v",
					seed, workers, got.tally, serial.tally)
			}
			for _, j := range []struct {
				name      string
				want, got []audit.Entry
			}{{"journal", serial.entries, got.entries}, {"ledger", serial.ledger, got.ledger}} {
				if reflect.DeepEqual(j.want, j.got) {
					continue
				}
				for i := range j.want {
					if i >= len(j.got) || !reflect.DeepEqual(j.want[i], j.got[i]) {
						t.Errorf("seed %d workers %d: %ss diverge at entry %d", seed, workers, j.name, i)
						break
					}
				}
				t.Fatalf("seed %d workers %d: %s not byte-identical (%d vs %d entries)",
					seed, workers, j.name, len(j.got), len(j.want))
			}
		}
	}
}

// TestLaneDirectAndNil checks the pass-through modes: a nil lane and a
// serial (direct) lane must behave exactly like calling the engine and
// log directly, and a direct lane's keys restart with each event.
func TestLaneDirectAndNil(t *testing.T) {
	clock := NewClock(t0)
	e := NewEngine(clock)
	log := audit.New(audit.WithClock(clock.Now))

	var nilLane *Lane
	if got := nilLane.Route(log); got != log {
		t.Error("nil lane did not pass the log through")
	}
	if got := audit.Resolve(nilLane, nil); got != nil {
		t.Error("nil base log must stay nil through a lane")
	}
	if _, _, ok := nilLane.Key(); ok {
		t.Error("nil lane reported a key position")
	}

	ran := 0
	var keys [][2]uint64
	key := func(lane *Lane) {
		seq, n, ok := lane.Key()
		if !ok {
			t.Error("direct lane reported no key position")
		}
		keys = append(keys, [2]uint64{seq, n})
	}
	e.ScheduleShard(time.Second, "d1", func(lane *Lane) {
		if got := lane.Route(log); got != log {
			t.Error("direct lane did not pass the log through")
		}
		key(lane)
		key(lane)
		lane.ScheduleShard(time.Second, "", func(*Lane) { ran++ })
		lane.ScheduleShard(time.Second, "d1", func(inner *Lane) {
			ran++
			key(inner)
		})
	})
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
	if want := [][2]uint64{{1, 0}, {1, 1}, {3, 0}}; !reflect.DeepEqual(keys, want) {
		t.Errorf("keys = %v, want %v", keys, want)
	}
}

// TestParallelPanicPropagates ensures a panicking sharded callback
// fails the run loudly instead of deadlocking the pool.
func TestParallelPanicPropagates(t *testing.T) {
	e := NewEngine(NewClock(t0))
	e.SetParallelism(4)
	for i := 0; i < 4; i++ {
		shard := fmt.Sprintf("d%d", i)
		boom := i == 2
		e.ScheduleShard(time.Second, shard, func(*Lane) {
			if boom {
				panic("kaboom")
			}
		})
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("panic did not propagate")
		}
	}()
	_ = e.Run(t0.Add(time.Minute))
}

// TestParallelStopMidBatch verifies Stop between barrier events of one
// batch requeues the rest, keeping Pending accurate.
func TestParallelStopMidBatch(t *testing.T) {
	e := NewEngine(NewClock(t0))
	e.SetParallelism(2)
	ran := 0
	e.Schedule(time.Second, func() { ran++; e.Stop() })
	e.Schedule(time.Second, func() { ran++ })
	e.ScheduleShard(time.Second, "d1", func(*Lane) { ran++ })
	err := e.Run(t0.Add(time.Minute))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2 requeued", e.Pending())
	}
	// The stop was consumed; a second Run drains the remainder.
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if ran != 3 {
		t.Errorf("after second Run ran = %d, want 3", ran)
	}
}

// TestSetParallelismClamp covers the accessor pair.
func TestSetParallelismClamp(t *testing.T) {
	e := NewEngine(NewClock(t0))
	if e.Parallelism() != 0 {
		t.Errorf("default Parallelism = %d", e.Parallelism())
	}
	e.SetParallelism(-3)
	if e.Parallelism() != 0 {
		t.Errorf("negative clamped to %d", e.Parallelism())
	}
	e.SetParallelism(4)
	if e.Parallelism() != 4 {
		t.Errorf("Parallelism = %d", e.Parallelism())
	}
}

// TestEngineInstrument checks the segment telemetry: at two workers
// one observation per parallel segment in each series — none for
// barriers, lone sharded events or single-shard runs, which never
// reach the pool — none at all on a serial engine, no effect on the
// journal, and a nil registry that turns the series off.
func TestEngineInstrument(t *testing.T) {
	const periods, shards = 5, 6
	run := func(workers int, reg *telemetry.Registry) []audit.Entry {
		clock := NewClock(t0)
		e := NewEngine(clock)
		e.SetParallelism(workers)
		e.Instrument(reg)
		log := audit.New(audit.WithClock(clock.Now))
		for p := 1; p <= periods; p++ {
			for s := 0; s < shards; s++ {
				shard := fmt.Sprintf("d%d", s)
				e.ScheduleShard(time.Duration(p)*time.Second, shard, func(lane *Lane) {
					lane.Route(log).Append(audit.KindAction, shard, "tick", nil)
				})
			}
			e.Schedule(time.Duration(p)*time.Second, func() {
				log.Append(audit.KindNote, "sweeper", "sweep", nil)
			})
		}
		// A lone sharded event and a single-shard pair run inline.
		e.ScheduleShard(time.Minute, "d0", func(*Lane) {})
		e.ScheduleShard(time.Minute+time.Second, "d0", func(*Lane) {})
		e.ScheduleShard(time.Minute+time.Second, "d0", func(*Lane) {})
		if err := e.Run(t0.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		return log.Entries()
	}
	counts := func(reg *telemetry.Registry) [3]uint64 {
		return [3]uint64{
			reg.Histogram("engine.segment_events").Count(),
			reg.Histogram("engine.segment_ms", "phase", "run").Count(),
			reg.Histogram("engine.segment_ms", "phase", "merge").Count(),
		}
	}

	reg := telemetry.NewRegistry()
	instrumented := run(2, reg)
	if got, want := counts(reg), [3]uint64{periods, periods, periods}; got != want {
		t.Errorf("two workers: observations (events, run, merge) = %v, want %v", got, want)
	}
	if sum := reg.Histogram("engine.segment_events").Sum(); sum != periods*shards {
		t.Errorf("segment_events sum = %g, want %d", sum, periods*shards)
	}
	if err := telemetry.CheckNames(reg.Names()); err != nil {
		t.Error(err)
	}
	if !reflect.DeepEqual(instrumented, run(2, nil)) {
		t.Error("instrumenting the engine changed its journal")
	}

	serial := telemetry.NewRegistry()
	run(1, serial)
	if got := counts(serial); got != [3]uint64{} {
		t.Errorf("one worker: observations = %v, want none", got)
	}
}
