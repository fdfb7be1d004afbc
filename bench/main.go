// Command bench is the repository's benchmark: four fixed-work
// workloads over the system's three hot paths — the decision path
// behind POST /v1/commands, the MAPE fleet tick on the discrete-event
// engine, and signed policy distribution — built only through the
// program's public APIs and run in this one process.
//
// Usage (from the bench directory, which is its own module):
//
//	go run . [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out results.json]
//
// Each workload runs one warm-up round, then repeats rounds until
// -seconds of timed work are measured. A round builds a fresh world
// from the seed (timed as set-up), runs a fixed amount of work
// (timed), reads the live heap, and checks the outputs; any failed
// check makes the exit status non-zero. -trace 1 alternates untimed-instrumentation rounds with
// traced ones, in which timing wrappers, replays and the program's own
// spans break the work down by layer. The last line of standard output
// is one JSON object: correct, attempted, failed and the metrics
// (end-to-end ones, or per-layer ones with -trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/bench/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one fixed-work scenario. Every round builds a fresh
// world, so rounds repeat identical work and neither the heap nor the
// journal grows with throughput.
type workload struct {
	name string
	// op names one operation of ops_per_s; sample names one latency
	// observation of latency_p50_ms and latency_p99_ms.
	op, sample string
	build      func(env) (world, error)
}

var workloads = []workload{
	{"decide-unicast", "decision", "request", buildUnicast},
	{"decide-broadcast", "decision", "request", buildBroadcast},
	{"fleet-tick", "device tick", "fleet period", buildFleet},
	{"fanout", "activation", "subscriber activation", buildFanout},
}

// sizes fixes how much work one round does. They are constants of the
// benchmark, not flags; tests substitute tiny ones.
type sizes struct {
	unicastDevices, unicastRequests     int
	broadcastDevices, broadcastRequests int
	fleetDevices, fleetPeriods          int
	fanoutPerOrg, fanoutPublishes       int
}

var defaultSizes = sizes{
	unicastDevices: 64, unicastRequests: 20000,
	broadcastDevices: 512, broadcastRequests: 100,
	fleetDevices: 10000, fleetPeriods: 30,
	fanoutPerOrg: 5000, fanoutPublishes: 6,
}

// env is what a world is built from.
type env struct {
	seed   int64
	traced bool
	size   sizes
}

// world is one round's system under test.
type world interface {
	// run does the round's fixed work; only it is timed.
	run() (phase, error)
	// check verifies the outputs of the run.
	check(*checks)
	// layers breaks a traced run down by layer.
	layers(phase) (layerValues, error)
	close()
}

// phase is what one round's timed work did.
type phase struct {
	wall      time.Duration
	ops       int64
	attempted int64
	failed    int64
	lat       []sample
	// windows split the phase into consecutive stretches of work
	// (request groups, fleet periods, publishes). ops_per_s is their
	// median rate, which a burst of interference from other tenants
	// of the host moves far less than the phase's mean rate.
	windows []window
}

// window is one stretch of a phase: ops completed over wall time.
type window struct {
	ops  int64
	wall time.Duration
}

// checks collects one round's correctness results.
type checks struct {
	failures []string
	notes    []string
	// fingerprint must read the same in every round of a workload:
	// rounds repeat identical work on a deterministic engine.
	fingerprint string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "timed work to measure per workload, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds traced rounds and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "also write the full results as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.workload != "all" {
		if _, ok := lookupWorkload(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q (want one of %s or all)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	file, err := runAll(o, defaultSizes, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: writing results:", err)
			return 1
		}
	}
	line, correct := resultLine(file)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// runAll runs the selected workloads and prints their summaries.
func runAll(o options, sz sizes, out io.Writer) (report.File, error) {
	file := report.File{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
	fmt.Fprintf(out, "bench: seed %d, %gs timed per workload, trace %v, GOMAXPROCS %d, NumCPU %d, %s\n",
		o.seed, o.seconds, o.trace, file.GOMAXPROCS, file.NumCPU, file.GoVersion)
	for _, wl := range workloads {
		if o.workload != "all" && o.workload != wl.name {
			continue
		}
		res, err := runWorkload(wl, o, sz, out)
		if err != nil {
			return file, err
		}
		printWorkload(out, res)
		file.Workloads = append(file.Workloads, res)
	}
	return file, nil
}

// round is one build-run-check cycle.
type round struct {
	traced bool
	setup  time.Duration
	phase  phase
	heap   float64
	rt     runtimeDelta
	checks checks
	layers layerValues
}

func runWorkload(wl workload, o options, sz sizes, out io.Writer) (report.Workload, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	var warm round
	var timed, traced []round
	var measured time.Duration
	for i := 0; i == 0 || measured < budget || len(timed) == 0 || (o.trace && len(traced) == 0); i++ {
		r, err := runRound(wl, env{seed: o.seed, traced: o.trace && i%2 == 0 && i > 0, size: sz})
		if err != nil {
			return report.Workload{}, fmt.Errorf("%s round %d: %w", wl.name, i+1, err)
		}
		// The first round grows the process's heap to its working size
		// and runs slower for it in every process, so it is checked but
		// not measured.
		kind := "warm-up"
		switch {
		case i == 0:
			warm = r
		case r.traced:
			kind = "traced"
			traced = append(traced, r)
			measured += r.phase.wall
		default:
			kind = "timed"
			timed = append(timed, r)
			measured += r.phase.wall
		}
		status := "ok"
		if n := len(r.checks.failures); n > 0 {
			status = fmt.Sprintf("%d FAILED", n)
		}
		fmt.Fprintf(out, "%s round %d (%s): setup %.4fs, run %.4fs, %d %ss, checks %s\n",
			wl.name, i+1, kind, r.setup.Seconds(), r.phase.wall.Seconds(), r.phase.ops, wl.op, status)
	}
	return summarize(wl, o, warm, timed, traced), nil
}

func runRound(wl workload, e env) (round, error) {
	runtime.GC()
	start := time.Now()
	w, err := wl.build(e)
	if err != nil {
		return round{}, fmt.Errorf("build: %w", err)
	}
	defer w.close()
	r := round{traced: e.traced, setup: time.Since(start)}
	before := readRuntime()
	r.phase, err = w.run()
	if err != nil {
		return round{}, fmt.Errorf("run: %w", err)
	}
	r.rt = readRuntime().minus(before)
	r.heap = liveHeapMiB()
	w.check(&r.checks)
	if r.phase.ops == 0 {
		r.checks.expect(false, "the run completed no %s", wl.op)
	}
	if e.traced {
		if r.layers, err = w.layers(r.phase); err != nil {
			return round{}, fmt.Errorf("layers: %w", err)
		}
	}
	return r, nil
}

// summarize turns the rounds into the workload's metrics: medians over
// rounds, except ops_per_s, the median over every round's windows, and
// the latency quantiles, which pool every sample. Every round's checks
// count, the warm-up's included.
func summarize(wl workload, o options, warm round, timed, traced []round) report.Workload {
	res := report.Workload{
		Name:    wl.name,
		Rounds:  1 + len(timed) + len(traced),
		Metrics: make(map[string]report.Value),
		Info:    make(map[string]string),
	}
	var setups, rates, heaps, perOp []float64
	var lat []sample
	var gcShare, pauseMax, allocPerOp []float64
	for _, r := range timed {
		setups = append(setups, r.setup.Seconds())
		for _, w := range r.phase.windows {
			rates = append(rates, ratio(float64(w.ops), w.wall.Seconds()))
		}
		heaps = append(heaps, r.heap)
		perOp = append(perOp, ratio(r.phase.wall.Seconds(), float64(r.phase.ops)))
		lat = append(lat, r.phase.lat...)
		gcShare = append(gcShare, r.rt.gcCPUShare)
		pauseMax = append(pauseMax, r.rt.pauseMaxMS)
		allocPerOp = append(allocPerOp, ratio(r.rt.allocBytes, float64(r.phase.ops)))
	}
	put := func(m map[string]report.Value, defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				m[name] = report.Value{Value: v, Unit: d.unit}
				return
			}
		}
		panic("bench: undeclared metric " + name)
	}
	put(res.Metrics, endToEnd, "setup_s", report.Median(setups))
	put(res.Metrics, endToEnd, "ops_per_s", report.Median(rates))
	put(res.Metrics, endToEnd, "latency_p50_ms", quantile(lat, 0.50))
	put(res.Metrics, endToEnd, "latency_p99_ms", quantile(lat, 0.99))
	put(res.Metrics, endToEnd, "live_heap_mb", report.Median(heaps))
	res.Info["ops"] = wl.op + "s"
	res.Info["latency_samples"] = fmt.Sprintf("%d %ss", weight(lat), wl.sample)

	all := append(append([]round{warm}, timed...), traced...)
	res.Correct = true
	for i, r := range all {
		res.Attempted += r.phase.attempted
		res.Failed += r.phase.failed
		for _, f := range r.checks.failures {
			res.Failures = append(res.Failures, fmt.Sprintf("round %d: %s", i+1, f))
		}
		if r.checks.fingerprint != all[0].checks.fingerprint {
			res.Failures = append(res.Failures, fmt.Sprintf("round %d: fingerprint %s differs from round 1's %s",
				i+1, r.checks.fingerprint, all[0].checks.fingerprint))
		}
	}
	if len(res.Failures) > 0 || res.Failed > 0 {
		res.Correct = false
	}
	for i, n := range warm.checks.notes {
		res.Info[fmt.Sprintf("note%d", i+1)] = n
	}

	if o.trace {
		res.Layers = make(map[string]report.Value)
		for _, d := range perLayer {
			var vs []float64
			for _, r := range traced {
				vs = append(vs, r.layers[d.name])
			}
			res.Layers[d.name] = report.Value{Value: report.Median(vs), Unit: d.unit}
		}
		var tracedPerOp []float64
		for _, r := range traced {
			tracedPerOp = append(tracedPerOp, ratio(r.phase.wall.Seconds(), float64(r.phase.ops)))
		}
		put(res.Layers, perLayer, "trace_overhead_share", ratio(report.Median(tracedPerOp), report.Median(perOp))-1)
		put(res.Layers, perLayer, "runtime.gc_cpu_share", report.Median(gcShare))
		put(res.Layers, perLayer, "runtime.gc_pause_max_ms", report.Median(pauseMax))
		put(res.Layers, perLayer, "runtime.alloc_bytes_per_op", report.Median(allocPerOp))
	}
	return res
}

func printWorkload(out io.Writer, res report.Workload) {
	for _, d := range endToEnd {
		v := res.Metrics[d.name]
		fmt.Fprintf(out, "%-16s %-34s %14.6g %s\n", res.Name, d.name, v.Value, v.Unit)
	}
	for _, d := range perLayer {
		if v, ok := res.Layers[d.name]; ok {
			fmt.Fprintf(out, "%-16s %-34s %14.6g %s\n", res.Name, d.name, v.Value, v.Unit)
		}
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%-16s %s: %s\n", res.Name, k, res.Info[k])
	}
	fmt.Fprintf(out, "%-16s checks: attempted %d, failed %d (failed_share %g), correct %v\n",
		res.Name, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "%-16s FAILED: %s\n", res.Name, f)
	}
}

// resultLine renders the final JSON line. For one workload its metrics
// carry their declared names; for several they are prefixed
// "<workload>/".
func resultLine(file report.File) (string, bool) {
	type line struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]report.Value `json:"metrics"`
	}
	l := line{Correct: true, Metrics: make(map[string]report.Value)}
	for _, w := range file.Workloads {
		l.Correct = l.Correct && w.Correct
		l.Attempted += w.Attempted
		l.Failed += w.Failed
		metrics := w.Metrics
		if file.Trace {
			metrics = w.Layers
		}
		for name, v := range metrics {
			if len(file.Workloads) > 1 {
				name = w.Name + "/" + name
			}
			l.Metrics[name] = v
		}
	}
	data, err := json.Marshal(l)
	if err != nil {
		// Every field is a plain number, string or bool.
		panic(err)
	}
	return string(data), l.Correct
}
