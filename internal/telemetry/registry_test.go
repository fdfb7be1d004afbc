package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bus.delivered")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("bus.delivered") != c {
		t.Error("same (name, labels) must intern to the same handle")
	}

	g := r.Gauge("policy.epoch", "device", "d1")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %g, want 7", got)
	}
	if r.Gauge("policy.epoch", "device", "d2") == g {
		t.Error("different labels must intern to different handles")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("guard.decisions", "guard", "pre-action", "decision", "allow")
	b := r.Counter("guard.decisions", "decision", "allow", "guard", "pre-action")
	if a != b {
		t.Error("label order must not distinguish handles")
	}
}

func TestCounterTotalAcrossLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("bus.dropped", "cause", "loss").Add(3)
	r.Counter("bus.dropped", "cause", "partition").Add(2)
	if got := r.CounterTotal("bus.dropped"); got != 5 {
		t.Errorf("CounterTotal = %d, want 5", got)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("bus.delivered")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter must stay 0")
	}
	g := r.Gauge("policy.epoch")
	g.Set(4)
	if g.Value() != 0 {
		t.Error("nil gauge must stay 0")
	}
	h := r.Histogram("policy.evaluate_ms")
	h.Observe(1)
	if h.Count() != 0 {
		t.Error("nil histogram must stay empty")
	}
	if r.Snapshot() != nil || r.Names() != nil {
		t.Error("nil registry must snapshot empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("guard.check_ms", []float64{1, 10, 100}, "guard", "pre-action")
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Cumulative: ≤1 → 2 (0.5 and 1), ≤10 → 3, ≤100 → 4, +Inf → 5.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-1053.5) > 1e-9 {
		t.Errorf("sum = %g, want 1053.5", s.Sum)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() []Sample {
		r := NewRegistry()
		r.Counter("bus.dropped", "cause", "partition").Inc()
		r.Counter("bus.dropped", "cause", "loss").Inc()
		r.Counter("bus.delivered").Add(2)
		r.Gauge("policy.epoch", "device", "d1").Set(3)
		r.Histogram("policy.evaluate_ms", "device", "d1").Observe(0.2)
		return r.Snapshot()
	}
	a, b := build(), build()
	if len(a) != 5 || len(a) != len(b) {
		t.Fatalf("snapshot size = %d/%d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].LabelString() != b[i].LabelString() {
			t.Errorf("snapshot order differs at %d: %s%s vs %s%s",
				i, a[i].Name, a[i].LabelString(), b[i].Name, b[i].LabelString())
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("bus.delivered").Inc()
				r.Histogram("policy.evaluate_ms").Observe(float64(j))
				r.Gauge("policy.epoch").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterTotal("bus.delivered"); got != 4000 {
		t.Errorf("concurrent counter = %d, want 4000", got)
	}
	if got := r.Histogram("policy.evaluate_ms").Count(); got != 4000 {
		t.Errorf("concurrent histogram count = %d, want 4000", got)
	}
}

func TestCheckNames(t *testing.T) {
	for _, name := range KnownNames() {
		if err := CheckName(name); err != nil {
			t.Errorf("registered name rejected: %v", err)
		}
	}
	for _, bad := range []string{
		"net.dropped.loss",  // two dots: pre-unification style
		"Guard.decisions",   // case
		"guard.decision",    // misspelled (singular)
		"busdelivered",      // no subsystem
		"policy.compile-ms", // dash
		"policy.epoch.d1",   // per-device suffix instead of a label
	} {
		if err := CheckName(bad); err == nil {
			t.Errorf("CheckName(%q) passed, want error", bad)
		}
	}
	if err := CheckNames([]string{"bus.delivered", "bogus.name"}); err == nil {
		t.Error("CheckNames must surface unregistered names")
	}
}
