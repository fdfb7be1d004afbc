package policy

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// benchSet builds a policy set shaped like a generative-scale device:
// policies spread over many event types, a sprinkling of wildcard
// policies, roughly one forbid per seven policies, and threshold
// conditions on half of them.
func benchSet(b testing.TB, n int) (*Set, []Env) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	eventTypes := 16
	if n < 16 {
		eventTypes = n
	}
	set := NewSet()
	for i := 0; i < n; i++ {
		p := Policy{
			ID:        fmt.Sprintf("p%05d", i),
			EventType: fmt.Sprintf("ev-%02d", i%eventTypes),
			Priority:  i % 10,
			Modality:  ModalityDo,
			Action:    Action{Name: fmt.Sprintf("act-%d", i%5), Category: "routine"},
		}
		if i%17 == 0 {
			p.EventType = WildcardEvent
		}
		if i%7 == 0 {
			p.Modality = ModalityForbid
			p.Action = Action{Name: fmt.Sprintf("act-%d", i%5)}
		}
		if i%2 == 0 {
			p.Condition = Threshold{Quantity: "x", Op: CmpGT, Value: float64(rng.Intn(100))}
		}
		if err := set.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	envs := make([]Env, 8)
	for i := range envs {
		envs[i] = Env{Event: Event{
			Type:  fmt.Sprintf("ev-%02d", i%eventTypes),
			Attrs: map[string]float64{"x": 50},
		}}
	}
	return set, envs
}

func benchEvaluate(b *testing.B, n int) {
	set, envs := benchSet(b, n)
	set.Evaluate(envs[0]) // warm any compile path before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Evaluate(envs[i%len(envs)])
	}
}

func BenchmarkEvaluate10(b *testing.B)  { benchEvaluate(b, 10) }
func BenchmarkEvaluate100(b *testing.B) { benchEvaluate(b, 100) }
func BenchmarkEvaluate1k(b *testing.B)  { benchEvaluate(b, 1000) }
func BenchmarkEvaluate10k(b *testing.B) { benchEvaluate(b, 10000) }

// BenchmarkEvaluate1kInstrumented measures the decision plane with
// telemetry attached: every Evaluate is timed into the
// policy.evaluate_ms histogram. Compare against BenchmarkEvaluate1k
// for the instrumentation overhead (see EXPERIMENTS.md E14).
func BenchmarkEvaluate1kInstrumented(b *testing.B) {
	set, envs := benchSet(b, 1000)
	set.Instrument(telemetry.NewRegistry(), "type", "bench", "org", "bench")
	set.Evaluate(envs[0]) // warm any compile path before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Evaluate(envs[i%len(envs)])
	}
}

// TestEvaluateInstrumentationAllocs pins the E14 acceptance bound:
// attaching the evaluate timer may cost at most 2 extra allocations
// per evaluation over the uninstrumented path.
func TestEvaluateInstrumentationAllocs(t *testing.T) {
	plain, envs := benchSet(t, 1000)
	plain.Evaluate(envs[0])
	instrumented, envs2 := benchSet(t, 1000)
	instrumented.Instrument(telemetry.NewRegistry(), "type", "bench", "org", "bench")
	instrumented.Evaluate(envs2[0])

	const rounds = 200
	base := testing.AllocsPerRun(rounds, func() {
		for i := range envs {
			plain.Evaluate(envs[i])
		}
	})
	timed := testing.AllocsPerRun(rounds, func() {
		for i := range envs2 {
			instrumented.Evaluate(envs2[i])
		}
	})
	// Both counts are per 8 evaluations; the bound is per evaluation.
	perEval := (timed - base) / float64(len(envs2))
	if perEval > 2 {
		t.Errorf("instrumentation adds %.2f allocs per Evaluate (base %.1f, timed %.1f); bound is 2",
			perEval, base, timed)
	}
}

// BenchmarkEvaluateParallel1k measures concurrent readers while a
// background writer keeps replacing one policy (forcing recompiles of
// the decision plane under the snapshot design, and lock contention
// under the legacy one).
func BenchmarkEvaluateParallel1k(b *testing.B) {
	set, envs := benchSet(b, 1000)
	set.Evaluate(envs[0])
	mut := Policy{
		ID: "p00001", EventType: "ev-01", Priority: 1,
		Modality: ModalityDo, Action: Action{Name: "act-1"},
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			mut.Priority = i % 10
			if err := set.Replace(mut); err != nil {
				b.Error(err)
				return
			}
			for j := 0; j < 64 && !stop.Load(); j++ {
				set.Evaluate(envs[j%len(envs)])
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			set.Evaluate(envs[i%len(envs)])
			i++
		}
	})
	stop.Store(true)
	<-done
}

func BenchmarkConflicts1kDisjoint(b *testing.B) {
	set := NewSet()
	for i := 0; i < 1000; i++ {
		if err := set.Add(Policy{
			ID:        fmt.Sprintf("p%05d", i),
			EventType: fmt.Sprintf("ev-%04d", i),
			Modality:  ModalityDo,
			Action:    Action{Name: "act"},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := set.Conflicts(); len(got) != 0 {
			b.Fatalf("Conflicts = %v", got)
		}
	}
}

// benchResidualSet builds a fleet-shaped policy set for the partial-
// evaluation benchmarks: every policy is scoped to one of `classes`
// device classes through a static condition
// (device.type == class-NN AND x > t), so a device's residual keeps
// roughly n/classes policies while the full snapshot must reject the
// other classes' policies at every decision.
func benchResidualSet(b testing.TB, n, classes int) (*Set, StaticEnv, []Env) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	eventTypes := 16
	if n < 16 {
		eventTypes = n
	}
	set := NewSet()
	batch := make([]Policy, 0, n)
	for i := 0; i < n; i++ {
		p := Policy{
			ID:        fmt.Sprintf("p%05d", i),
			EventType: fmt.Sprintf("ev-%02d", i%eventTypes),
			Priority:  i % 10,
			Modality:  ModalityDo,
			Action:    Action{Name: fmt.Sprintf("act-%d", i%5), Category: "routine"},
			Condition: And{
				LabelEquals{Label: "device.type", Value: fmt.Sprintf("class-%02d", i%classes)},
				Threshold{Quantity: "x", Op: CmpGT, Value: float64(rng.Intn(100))},
			},
		}
		if i%17 == 0 {
			p.EventType = WildcardEvent
		}
		if i%7 == 0 {
			p.Modality = ModalityForbid
			p.Action = Action{Name: fmt.Sprintf("act-%d", i%5)}
		}
		batch = append(batch, p)
	}
	if err := set.AddBatch(batch); err != nil {
		b.Fatal(err)
	}
	profile := DeviceProfile("class-00", "us")
	envs := make([]Env, 8)
	for i := range envs {
		envs[i] = Env{
			Event: Event{
				Type:  fmt.Sprintf("ev-%02d", i%eventTypes),
				Attrs: map[string]float64{"x": 50},
			},
			Static: profile,
		}
	}
	return set, profile, envs
}

// BenchmarkResidualFullEvaluate10k is the "before" lane of the
// partial-evaluation comparison: the full snapshot decides for one
// device of a 64-class fleet, rejecting the other classes' policies
// at decision time on every event.
func BenchmarkResidualFullEvaluate10k(b *testing.B) {
	set, _, envs := benchResidualSet(b, 10000, 64)
	snap := set.Snapshot()
	snap.Evaluate(envs[0]) // warm any compile path before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Evaluate(envs[i%len(envs)])
	}
}

// BenchmarkResidualEvaluate10k is the "after" lane: the same fleet's
// policies, but the device evaluates its residual — the other classes'
// policies were dropped once, at specialization time.
func BenchmarkResidualEvaluate10k(b *testing.B) {
	set, profile, envs := benchResidualSet(b, 10000, 64)
	res := set.Snapshot().Specialize(profile)
	res.Evaluate(envs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Evaluate(envs[i%len(envs)])
	}
}

// BenchmarkSpecialize10k prices the specialization itself: folding
// 10k conditions and recompiling the ~1/64 survivors. Paid once per
// (policy epoch, device profile), then amortized over every decision
// by the residual cache.
func BenchmarkSpecialize10k(b *testing.B) {
	set, profile, _ := benchResidualSet(b, 10000, 64)
	snap := set.Snapshot()
	fp := profile.Fingerprint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.specialize(profile, fp)
	}
}

// BenchmarkSpecializeCached10k prices the steady state: a cache hit on
// an already-specialized snapshot (what a device pays when it
// revalidates its residual after another device forced the compile).
func BenchmarkSpecializeCached10k(b *testing.B) {
	set, profile, _ := benchResidualSet(b, 10000, 64)
	snap := set.Snapshot()
	snap.Specialize(profile)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Specialize(profile)
	}
}

// BenchmarkResidualEvaluateInto10k is the device hot path: residual
// decisions into a reused Decision, as MAPE ticks evaluate through the
// pooled scratch — no per-decision allocation at all.
func BenchmarkResidualEvaluateInto10k(b *testing.B) {
	set, profile, envs := benchResidualSet(b, 10000, 64)
	res := set.Snapshot().Specialize(profile)
	var d Decision
	res.EvaluateInto(envs[0], &d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.EvaluateInto(envs[i%len(envs)], &d)
	}
}
