package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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

	g := r.Gauge("bundle.revision", "root", "us")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %g, want 7", got)
	}
	if r.Gauge("bundle.revision", "root", "uk") == g {
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
	g := r.Gauge("admission.queue_depth")
	g.Set(4)
	if g.Value() != 0 {
		t.Error("nil gauge must stay 0")
	}
	h := r.Histogram("policy.evaluate_ms")
	h.Observe(1)
	if h.Count() != 0 {
		t.Error("nil histogram must stay empty")
	}
	if r.Snapshot() != nil {
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
		r.Gauge("bundle.revision", "root", "us").Set(3)
		r.Histogram("policy.evaluate_ms", "type", "drone", "org", "us").Observe(0.2)
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
				r.Gauge("admission.queue_depth").Set(float64(j))
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
}

// TestLabelStringMatchesFmt: label values render exactly as fmt's %q
// rendered them, for values that need escaping and for keys longer
// than the stack buffer.
func TestLabelStringMatchesFmt(t *testing.T) {
	values := []string{
		"", "plain", `say "hi"`, `back\slash`, "new\nline", "tab\tand\r",
		"invalid \xff\xfe utf-8", "héllo→世界", "\x00\x7f", "\u2028", strings.Repeat("long ", 40),
	}
	for _, v := range values {
		labels := []Label{{Key: "a", Value: v}, {Key: "b", Value: "x"}}
		want := fmt.Sprintf("{a=%q,b=%q}", v, "x")
		if got := labelString(labels); got != want {
			t.Errorf("labelString(%q) = %s, want %s", v, got, want)
		}
		if got := string(metricKey(nil, "m", labels)); got != "m"+want {
			t.Errorf("metricKey(%q) = %s, want m%s", v, got, want)
		}
	}
	if got := labelString(nil); got != "" {
		t.Errorf("labelString(nil) = %q, want empty", got)
	}
	if got := string(metricKey(nil, "m", nil)); got != "m" {
		t.Errorf("metricKey without labels = %q, want m", got)
	}
}

// TestDefsDeclareBoundedKeys: no metric declares a label key whose
// values are per-instance identities. One series per device, ID, trace
// or span would grow with the fleet; that detail belongs in /v1/fleet
// and in traces.
func TestDefsDeclareBoundedKeys(t *testing.T) {
	unbounded := map[string]bool{"device": true, "id": true, "trace": true, "span": true}
	for _, d := range defs {
		seen := make(map[string]bool, len(d.Labels))
		for _, k := range d.Labels {
			if unbounded[k] {
				t.Errorf("%s declares the per-instance label key %q", d.Name, k)
			}
			if seen[k] {
				t.Errorf("%s declares label key %q twice", d.Name, k)
			}
			seen[k] = true
		}
	}
}

// TestCheckSamplesLabelKeys: a sample passes only with exactly the
// label keys its Def declares, in any call-site order.
func TestCheckSamplesLabelKeys(t *testing.T) {
	r := NewRegistry()
	r.Counter("bus.delivered").Inc()
	r.Counter("bus.dropped", "cause", "loss").Inc()
	r.Counter("device.executions", "result", "executed", "org", "us", "type", "drone").Inc()
	r.Histogram("policy.evaluate_ms", "type", "drone", "org", "us").Observe(1)
	if err := CheckSamples(r.Snapshot()); err != nil {
		t.Fatalf("declared keys rejected: %v", err)
	}
	for _, bad := range [][]string{
		{"bus.dropped"}, // declared key missing
		{"bus.dropped", "cause", "loss", "org", "us"},  // undeclared extra key
		{"bus.delivered", "cause", "loss"},             // labels on an unlabeled metric
		{"device.events", "device", "d1"},              // the retired per-device key
		{"device.events", "type", "drone", "orgs", ""}, // misspelled key
		{"bus.dropped", "cause", "loss", "cause", "x"}, // duplicate key
		{"bogus.name"}, // unregistered name
	} {
		r := NewRegistry()
		r.Counter(bad[0], bad[1:]...).Inc()
		if err := CheckSamples(r.Snapshot()); err == nil {
			t.Errorf("CheckSamples passed %s%s", bad[0], r.Snapshot()[0].LabelString())
		}
	}
}

// TestRegistryHitAllocs: resolving a handle that already exists
// allocates nothing, for every kind and 0–4 label pairs, so a fleet
// resolving shared handles leaves no per-device garbage.
func TestRegistryHitAllocs(t *testing.T) {
	r := NewRegistry()
	for _, kv := range [][]string{
		nil,
		{"cause", "loss"},
		{"type", "drone", "org", "us"},
		{"type", "drone", "org", "us", "result", "executed"},
		{"type", "drone", "org", "us", "result", "executed", "guard", "pre-action"},
	} {
		r.Counter("bus.dropped", kv...)
		r.Gauge("bundle.lagging", kv...)
		r.Histogram("guard.check_ms", kv...)
		for kind, hit := range map[string]func(){
			"counter":   func() { r.Counter("bus.dropped", kv...) },
			"gauge":     func() { r.Gauge("bundle.lagging", kv...) },
			"histogram": func() { r.Histogram("guard.check_ms", kv...) },
		} {
			if n := testing.AllocsPerRun(100, hit); n != 0 {
				t.Errorf("%s hit with %d label pairs: %v allocs, want 0", kind, len(kv)/2, n)
			}
		}
	}
	// A literal variadic list, as call sites write it, stays on the
	// caller's stack too.
	r.Counter("device.executions", "type", "drone", "org", "us", "result", "denied")
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("device.executions", "type", "drone", "org", "us", "result", "denied")
	}); n != 0 {
		t.Errorf("literal-label hit: %v allocs, want 0", n)
	}
}

// TestRegistryConcurrentHitsAndMisses: goroutines resolving shared
// handles (hits) and new ones (misses) on one registry, while another
// snapshots it, lose no increment and intern each key once. Run it
// under -race.
func TestRegistryConcurrentHitsAndMisses(t *testing.T) {
	r := NewRegistry()
	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				r.Counter("device.events", "type", "drone", "org", "us").Inc()
				r.Counter("bus.dropped", "cause", strconv.Itoa(w*rounds+j)).Inc()
				r.Histogram("policy.evaluate_ms", "org", strconv.Itoa(j%7), "type", "drone").Observe(1)
				r.Gauge("bundle.lagging", "root", strconv.Itoa(j%5)).Set(float64(j))
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if got := r.CounterTotal("device.events"); got != workers*rounds {
		t.Errorf("shared counter = %d, want %d", got, workers*rounds)
	}
	if got := r.CounterTotal("bus.dropped"); got != workers*rounds {
		t.Errorf("per-key counters sum to %d, want %d", got, workers*rounds)
	}
	var hist uint64
	for j := 0; j < 7; j++ {
		hist += r.Histogram("policy.evaluate_ms", "type", "drone", "org", strconv.Itoa(j)).Count()
	}
	if hist != workers*rounds {
		t.Errorf("histograms counted %d observations, want %d", hist, workers*rounds)
	}
	if got, want := len(r.Snapshot()), 1+workers*rounds+7+5; got != want {
		t.Errorf("snapshot holds %d series, want %d", got, want)
	}
}
