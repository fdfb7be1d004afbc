package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/bench/internal/report"
)

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
		wins           int
	}{
		{"throughput up on every pair", base, shift(base, 5), "higher", 0.1, "gain", 10},
		{"latency down on every pair", base, shift(base, -5), "lower", 0.1, "gain", 10},
		{"same runs", base, base, "higher", 0.1, "no change", 0},
		{"worse beyond the bound", base, shift(base, -15), "higher", 0.1, "regression", 0},
		{"worse within the bound", base, shift(base, -5), "higher", 0.1, "no change", 0},
		{"latency up beyond the bound", base, shift(base, 12), "lower", 0.1, "regression", 0},
		{
			"8 of 10 pairs is not a gain", base,
			[]float64{110, 111, 109, 110, 112, 108, 110, 111, 90, 90}, "higher", 0.1, "no change", 8,
		},
		{
			"ties count for neither side", base,
			[]float64{100, 101, 104, 105, 107, 103, 105, 106, 104, 105}, "higher", 0.1, "no change", 8,
		},
		{
			"gap inside the parent's spread is not a gain",
			[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100},
			[]float64{81, 121, 91, 111, 101, 86, 116, 96, 106, 101}, "higher", 0.5, "no change", 10,
		},
		{
			"spread wider than the bound",
			[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100},
			[]float64{81, 121, 91, 111, 101, 86, 116, 96, 106, 101}, "higher", 0.1, "unresolved", 10,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := judge(tc.parent, tc.change, tc.better, tc.bound)
			if v.result != tc.want || v.wins != tc.wins || v.pairs != len(tc.parent) {
				t.Errorf("judge = %+v, want %s with %d/%d wins", v, tc.want, tc.wins, len(tc.parent))
			}
		})
	}
}

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := report.Quartiles(tc.xs)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
}

func TestRunOnResultFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		f := report.File{Workloads: []report.Workload{{
			Name: "fanout",
			Metrics: map[string]report.Value{
				"ops_per_s":  {Value: rate, Unit: "1/s"},
				"latency_ms": {Value: 5, Unit: "ms"},
			},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-spec", spec}
	for i := 0; i < 5; i++ {
		args = append(args, write("p"+string(rune('0'+i)), 100+float64(i)))
	}
	args = append(args, "--")
	for i := 0; i < 5; i++ {
		args = append(args, write("c"+string(rune('0'+i)), 80+float64(i)))
	}
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"5 parent runs, 5 change runs", "ops_per_s", "regression", "gains 0, regressions 1, unresolved 0, no change 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if err := run([]string{"-spec", spec, args[2]}, &out); err == nil {
		t.Error("a run without the -- separator was accepted")
	}
}
