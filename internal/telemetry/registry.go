package telemetry

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready; a nil *Counter no-ops, so unconfigured call sites cost one
// branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta (negative deltas are ignored — counters only go up).
func (c *Counter) Add(delta int64) {
	if c != nil && delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Label is one name=value pair attached to a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Kind distinguishes the metric families in a snapshot.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Sample is one metric instance in a Snapshot.
type Sample struct {
	Name   string
	Labels []Label // sorted by key
	Kind   Kind
	// Value holds the counter or gauge value.
	Value float64
	// Hist holds the bucket snapshot for histograms, nil otherwise.
	Hist *HistogramSnapshot
}

// LabelString renders the labels canonically: {k1="v1",k2="v2"}, or ""
// when unlabeled.
func (s Sample) LabelString() string {
	return labelString(s.Labels)
}

func labelString(labels []Label) string {
	var buf [keyBuf]byte
	return string(appendLabels(buf[:0], labels))
}

// keyBuf sizes the stack buffers keys are rendered into; longer keys
// spill to the heap.
const keyBuf = 128

// appendLabels appends the canonical label rendering; a value is
// quoted as fmt's %q quotes a string.
func appendLabels(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return append(b, '}')
}

// Registry interns metric handles by (name, labels). Handle lookup
// takes a mutex and allocates only when it creates a metric; the
// handles themselves update with single atomics, so call sites that
// cache their handles have lock-free hot paths. A nil
// *Registry hands out nil handles, which no-op — instrumentation can
// be left in place unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*metricEntry[*Counter]
	gauges     map[string]*metricEntry[*Gauge]
	histograms map[string]*metricEntry[*Histogram]
}

type metricEntry[T any] struct {
	name   string
	labels []Label
	metric T
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*metricEntry[*Counter]),
		gauges:     make(map[string]*metricEntry[*Gauge]),
		histograms: make(map[string]*metricEntry[*Histogram]),
	}
}

// stackPairs is how many label pairs a lookup sorts in an array on
// its own stack; longer lists spill to the heap.
const stackPairs = 8

// labelsFromKV pairs up a variadic "k1, v1, k2, v2" list into buf's
// backing array (the heap once it is full), sorted by key; pairs with
// equal keys keep their call-site order. Odd trailing keys get an
// empty value rather than panicking — a misinstrumented call site must
// never crash the collective.
func labelsFromKV(buf []Label, kv []string) []Label {
	if len(kv) == 0 {
		return nil
	}
	labels := buf[:0]
	for i := 0; i < len(kv); i += 2 {
		l := Label{Key: kv[i]}
		if i+1 < len(kv) {
			l.Value = kv[i+1]
		}
		labels = append(labels, l)
	}
	slices.SortStableFunc(labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	return labels
}

// metricKey appends the registry key of (name, labels). Lookups index
// with string(key), which does not allocate; only a new metric's key
// becomes a string.
func metricKey(b []byte, name string, labels []Label) []byte {
	return appendLabels(append(b, name...), labels)
}

// intern returns the metric for (name, kv) in m, creating it with
// newMetric on a miss. The labels and key are built on the stack, so a
// hit allocates nothing; only a miss copies them to the heap.
func intern[T any](r *Registry, m map[string]*metricEntry[T], name string, kv []string, newMetric func() T) T {
	var pairs [stackPairs]Label
	labels := labelsFromKV(pairs[:], kv)
	var buf [keyBuf]byte
	key := metricKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := m[string(key)]; ok {
		return e.metric
	}
	e := &metricEntry[T]{name: name, labels: slices.Clone(labels), metric: newMetric()}
	m[string(key)] = e
	return e.metric
}

// Counter interns the counter for (name, labels). Labels are given as
// alternating key, value strings.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	return intern(r, r.counters, name, kv, func() *Counter { return &Counter{} })
}

// Gauge interns the gauge for (name, labels).
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	return intern(r, r.gauges, name, kv, func() *Gauge { return &Gauge{} })
}

// Histogram interns the histogram for (name, labels) with the default
// latency buckets (see DefaultLatencyBuckets).
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	return r.HistogramBuckets(name, nil, kv...)
}

// HistogramBuckets interns the histogram for (name, labels) with
// explicit bucket upper bounds (ascending); nil bounds use the
// defaults. Bounds are fixed at first intern; later calls reuse the
// existing histogram.
func (r *Registry) HistogramBuckets(name string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	return intern(r, r.histograms, name, kv, func() *Histogram { return newHistogram(bounds) })
}

// CounterTotal sums every counter instance registered under the name,
// across all label sets. It is the aggregation legacy flat-name
// readers want: Counter("bus.dropped") = loss drops + partition drops.
func (r *Registry) CounterTotal(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.counters {
		if e.name == name {
			total += e.metric.Value()
		}
	}
	return total
}

// GaugeValue returns the unlabeled gauge's value (0 when absent).
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.gauges[name]; ok {
		return e.metric.Value()
	}
	return 0
}

// Snapshot returns every metric instance, deterministically ordered by
// kind, name, then canonical label string.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	samples := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for _, e := range r.counters {
		samples = append(samples, Sample{
			Name: e.name, Labels: e.labels, Kind: KindCounter,
			Value: float64(e.metric.Value()),
		})
	}
	for _, e := range r.gauges {
		samples = append(samples, Sample{
			Name: e.name, Labels: e.labels, Kind: KindGauge,
			Value: e.metric.Value(),
		})
	}
	for _, e := range r.histograms {
		hs := e.metric.Snapshot()
		samples = append(samples, Sample{
			Name: e.name, Labels: e.labels, Kind: KindHistogram,
			Hist: &hs,
		})
	}
	r.mu.Unlock()

	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Kind != samples[j].Kind {
			return samples[i].Kind < samples[j].Kind
		}
		if samples[i].Name != samples[j].Name {
			return samples[i].Name < samples[j].Name
		}
		return labelString(samples[i].Labels) < labelString(samples[j].Labels)
	})
	return samples
}
