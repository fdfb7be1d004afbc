package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric. The smoke test holds these
// two catalogues equal to BENCHMARK.json, in both directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every workload reports on a timed run
// (-trace 0). Each workload defines its own operation; see opLabel.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// perLayer are the metrics every workload reports on a traced run
// (-trace 1). A layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"server.http_us", "us", "lower"},
	{"server.decision_us", "us", "lower"},
	{"span.server.command.self_us", "us", "lower"},
	{"span.device.handle.self_us", "us", "lower"},
	{"span.device.execute.self_us", "us", "lower"},
	{"span.guard.check.self_us", "us", "lower"},
	{"admission.allow_us", "us", "lower"},
	{"policy.evaluate_us", "us", "lower"},
	{"guard.check_us", "us", "lower"},
	{"guard.checks_per_op", "1/op", "lower"},
	{"guard.denials_per_op", "1/op", "lower"},
	{"device.actuate_us", "us", "lower"},
	{"device.sense_us", "us", "lower"},
	{"statespace.classify_us", "us", "lower"},
	{"statespace.safeness_us", "us", "lower"},
	{"audit.append_us", "us", "lower"},
	{"audit.entries_per_op", "1/op", "lower"},
	{"bundle.sign_us", "us", "lower"},
	{"bundle.verify_us", "us", "lower"},
	{"bundle.verifies_per_publish", "1/publish", "lower"},
	{"bundle.apply_full_us", "us", "lower"},
	{"bundle.apply_delta_us", "us", "lower"},
	{"bundle.wire_bytes_per_push", "B", "lower"},
	{"bundle.repairs_per_publish", "1/publish", "lower"},
	{"network.sends_per_publish", "1/publish", "lower"},
	{"network.drop_share", "ratio", "lower"},
	{"audit.ledger_entries_per_publish", "1/publish", "lower"},
	{"telemetry.series", "count", "lower"},
	{"telemetry.spans_per_op", "1/op", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.gc_pause_max_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower"},
	{"unexplained_share", "ratio", "lower"},
	{"trace_overhead_share", "ratio", "lower"},
}

// sample is one latency observation standing for n operations: a
// request is one sample of weight 1, while a fan-out probe stands for
// every subscriber that converged since the previous probe.
type sample struct {
	ms float64
	n  int64
}

// quantile returns the q-quantile of the weighted samples by nearest
// rank: the smallest value with at least ceil(q·N) of the N weighted
// observations at or below it. Exact, no interpolation between
// buckets. It sorts s in place.
func quantile(s []sample, q float64) float64 {
	total := weight(s)
	if total == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, x := range s {
		seen += x.n
		if seen >= rank {
			return x.ms
		}
	}
	return s[len(s)-1].ms
}

// weight returns the number of observations the samples stand for.
func weight(s []sample) int64 {
	var total int64
	for _, x := range s {
		total += x.n
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, reading 0 when nothing was measured.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
