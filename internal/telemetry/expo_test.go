package telemetry

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expoLineRE matches one Prometheus text-format sample line:
// name{labels} value — with an optional label block.
var expoLineRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE+\-.]+$`)

func buildExpoRegistry() *Registry {
	r := NewRegistry()
	r.Counter("bus.delivered").Add(10)
	r.Counter("bus.dropped", "cause", "loss").Add(3)
	r.Counter("bus.dropped", "cause", "partition").Add(1)
	r.Gauge("bundle.revision", "root", "us").Set(4)
	h := r.Histogram("guard.check_ms", "guard", "pre-action")
	h.Observe(0.02)
	h.Observe(3)
	h.Observe(700)
	return r
}

func TestWriteMetricsFormat(t *testing.T) {
	var b strings.Builder
	if err := WriteMetrics(&b, buildExpoRegistry()); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE bus_delivered counter",
		"# TYPE bus_dropped counter",
		"# TYPE bundle_revision gauge",
		"# TYPE guard_check_ms histogram",
		"# HELP bus_delivered ",
		`bus_dropped{cause="loss"} 3`,
		`bus_dropped{cause="partition"} 1`,
		`bundle_revision{root="us"} 4`,
		`guard_check_ms_bucket{guard="pre-action",le="+Inf"} 3`,
		`guard_check_ms_count{guard="pre-action"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Every non-comment line must be a well-formed sample.
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The le="+Inf" bucket has a plus sign the generic RE skips.
		normalized := strings.Replace(line, `le="+Inf"`, `le="9"`, 1)
		if !expoLineRE.MatchString(normalized) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	var b strings.Builder
	if err := WriteMetrics(&b, buildExpoRegistry()); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	// Bucket counts must be non-decreasing in le order.
	var last uint64
	n := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "guard_check_ms_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value in %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = v
		n++
	}
	if n != len(DefaultLatencyBuckets)+1 {
		t.Errorf("bucket lines = %d, want %d", n, len(DefaultLatencyBuckets)+1)
	}
}

func TestWriteMetricsDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := WriteMetrics(&a, buildExpoRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetrics(&b, buildExpoRegistry()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("exposition output not deterministic")
	}
}

func TestWriteMetricsNilRegistry(t *testing.T) {
	var b strings.Builder
	if err := WriteMetrics(&b, nil); err != nil {
		t.Fatalf("WriteMetrics(nil): %v", err)
	}
	if b.String() != "" {
		t.Errorf("nil registry exposition = %q, want empty", b.String())
	}
}
