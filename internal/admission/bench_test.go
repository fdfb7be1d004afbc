package admission

import (
	"testing"
	"time"
)

// benchController builds a controller on a cheap monotonic virtual
// clock so benchmarks measure admission logic, not time syscalls.
func benchController(b *testing.B, cfg Config) (*Controller, *time.Time) {
	b.Helper()
	now := time.Unix(0, 0)
	cfg.Now = func() time.Time { return now }
	ctrl, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ctrl, &now
}

// BenchmarkAdmissionAdmit measures the uncontended enqueue path with
// the queue never filling (drained every iteration).
func BenchmarkAdmissionAdmit(b *testing.B) {
	ctrl, _ := benchController(b, Config{QueueCapacity: 1024, DrainBatch: 512})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.Admit("d", ClassGuard, i); err != nil {
			b.Fatal(err)
		}
		if i%512 == 511 {
			b.StopTimer()
			for len(ctrl.Drain("d")) > 0 {
			}
			b.StartTimer()
		}
	}
}

// BenchmarkAdmissionAdmitShed measures the shed path: the queue is
// full, so every offer is rejected with a typed error.
func BenchmarkAdmissionAdmitShed(b *testing.B) {
	ctrl, _ := benchController(b, Config{QueueCapacity: 4})
	for i := 0; i < 4; i++ {
		if err := ctrl.Admit("d", ClassGuard, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.Admit("d", ClassGuard, i); err == nil {
			b.Fatal("full queue admitted")
		}
	}
}

// BenchmarkAdmissionAllow measures the gate-only path used by the
// dispatcher (no queueing, immediate accounting).
func BenchmarkAdmissionAllow(b *testing.B) {
	ctrl, _ := benchController(b, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.Allow("d", ClassHuman); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmissionRateLimited measures the token-bucket rejection
// path: rate 1/s with the virtual clock frozen, so after the first
// token every call sheds.
func BenchmarkAdmissionRateLimited(b *testing.B) {
	ctrl, _ := benchController(b, Config{Rate: 1, Burst: 1})
	if err := ctrl.Allow("d", ClassHuman); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.Allow("d", ClassHuman); err == nil {
			b.Fatal("exhausted bucket admitted")
		}
	}
}

// BenchmarkAdmissionDrain measures priority-ordered batch draining
// with all three classes resident.
func BenchmarkAdmissionDrain(b *testing.B) {
	ctrl, _ := benchController(b, Config{QueueCapacity: 4096, DrainBatch: 32})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 96; k++ {
			if err := ctrl.Admit("d", Class(k%3), k); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for drained := 0; drained < 96; {
			batch := ctrl.Drain("d")
			if len(batch) == 0 {
				b.Fatal("queue ran dry early")
			}
			drained += len(batch)
		}
	}
}

var benchTopics = []string{
	"command", "action", "guard", "oversight", "bundle",
	"telemetry", "gossip", "unknown-topic",
}

var sinkClass Class

// BenchmarkClassifyTopicString measures the bus admission gate's
// per-message classification: a switch over the topic string.
func BenchmarkClassifyTopicString(b *testing.B) {
	b.ReportAllocs()
	var c Class
	for i := 0; b.Loop(); i++ {
		c = ClassifyTopic(benchTopics[i%len(benchTopics)])
	}
	sinkClass = c
}
