// Command compare judges a change against its parent from repeated
// benchmark runs, in place of benchstat:
//
//	go run ./compare [-spec ../BENCHMARK.json] parent.json... -- change.json...
//
// Each file is one `bench -out` result. Runs pair up in the order
// given (the i-th parent file with the i-th change file). For every
// workload and end-to-end metric it prints each side's median and
// quartiles, the share of pairs the change won, and a verdict:
//
//   - gain: the change won at least 9 of every 10 pairs (ties count for
//     neither) and its median is better than the parent's by more than
//     the parent's interquartile range;
//   - regression: the change's median is worse than the parent's by
//     more than the metric's bound in BENCHMARK.json;
//   - unresolved: either side's interquartile range, as a share of its
//     median, is wider than the bound, and not every change run beats
//     every parent run;
//   - no change: none of the above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/bench/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(out)
	specPath := fs.String("spec", "../BENCHMARK.json", "the benchmark declaration holding directions and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	parentFiles, changeFiles, err := splitSides(fs.Args())
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	parent, err := load(parentFiles)
	if err != nil {
		return err
	}
	change, err := load(changeFiles)
	if err != nil {
		return err
	}

	var names []string
	for name := range parent {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%d parent runs, %d change runs\n", len(parentFiles), len(changeFiles))
	fmt.Fprintf(out, "%-18s %-16s %-36s %-36s %-6s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	tally := map[string]int{}
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			p, c := parent[wl][m.Name], change[wl][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(p, c, m.Better, m.Bound)
			tally[v.result]++
			fmt.Fprintf(out, "%-18s %-16s %-36s %-36s %-6s %s\n", wl, m.Name,
				quartileText(p), quartileText(c), fmt.Sprintf("%d/%d", v.wins, v.pairs), v.result)
		}
	}
	fmt.Fprintf(out, "gains %d, regressions %d, unresolved %d, no change %d\n",
		tally["gain"], tally["regression"], tally["unresolved"], tally["no change"])
	return nil
}

// splitSides splits the file arguments at "--".
func splitSides(args []string) (parent, change []string, err error) {
	for i, a := range args {
		if a == "--" {
			parent, change = args[:i], args[i+1:]
			break
		}
	}
	if len(parent) == 0 || len(change) == 0 {
		return nil, nil, fmt.Errorf("usage: compare [-spec BENCHMARK.json] parent.json... -- change.json...")
	}
	return parent, change, nil
}

// load reads result files into workload → metric → one value per
// file, in file order.
func load(paths []string) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	for _, path := range paths {
		f, err := report.Read(path)
		if err != nil {
			return nil, err
		}
		for _, w := range f.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = make(map[string][]float64)
			}
			for name, v := range w.Metrics {
				out[w.Name][name] = append(out[w.Name][name], v.Value)
			}
		}
	}
	return out, nil
}

func quartileText(xs []float64) string {
	q1, q2, q3 := report.Quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
}

// verdict is one workload × metric judgement.
type verdict struct {
	wins, pairs int
	result      string
}

// judge applies the gain, regression and spread rules to one metric's
// parent and change runs. better is "lower" or "higher"; bound is the
// share of the parent's median by which the change may be worse.
func judge(parent, change []float64, better string, bound float64) verdict {
	// improvement is how much better b is than a, positive when better.
	improvement := func(a, b float64) float64 {
		if better == "higher" {
			return b - a
		}
		return a - b
	}
	v := verdict{pairs: len(parent)}
	if len(change) < v.pairs {
		v.pairs = len(change)
	}
	for i := 0; i < v.pairs; i++ {
		if improvement(parent[i], change[i]) > 0 {
			v.wins++
		}
	}
	pq1, pm, pq3 := report.Quartiles(parent)
	cq1, cm, cq3 := report.Quartiles(change)
	gap := improvement(pm, cm)
	allBetter := true
	for _, p := range parent {
		for _, c := range change {
			allBetter = allBetter && improvement(p, c) > 0
		}
	}
	spread := math.Max(relative(pq3-pq1, pm), relative(cq3-cq1, cm))
	switch {
	case v.pairs > 0 && v.wins*10 >= v.pairs*9 && gap > pq3-pq1:
		v.result = "gain"
	case -gap > bound*math.Abs(pm):
		v.result = "regression"
	case spread > bound && !allBetter:
		v.result = "unresolved"
	default:
		v.result = "no change"
	}
	return v
}

func relative(x, base float64) float64 {
	if base == 0 {
		return math.Inf(1)
	}
	return math.Abs(x / base)
}
