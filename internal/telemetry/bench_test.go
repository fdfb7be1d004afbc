package telemetry

import "testing"

// The no-op path is the price every uninstrumented call site pays: it
// must stay at one branch, zero allocations.
func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.5)
	}
}

func BenchmarkNilTracerStartFinish(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.StartSpan("bench", "actor", SpanContext{})
		s.Finish()
	}
}

// Live hot paths: handle increments are atomic ops, no lookups.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 10)
	}
}

func BenchmarkStartSpanFinish(b *testing.B) {
	tr := NewTracer(WithCapacity(1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.StartSpan("bench", "actor", SpanContext{})
		s.Finish()
	}
}

// Interning cost — paid at setup, not per observation, but worth
// knowing.
func BenchmarkRegistryCounterLookup(b *testing.B) {
	reg := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench.counter", "type", "drone", "org", "us")
	}
}
