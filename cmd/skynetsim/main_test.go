package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeScenario(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestRunScenario(t *testing.T) {
	path := writeScenario(t, `{
		"name": "test",
		"badHeatAt": 80,
		"denialThreshold": 3,
		"devices": [
			{"id": "guarded", "heat": 20,
			 "policies": "policy work: on tick do run category work effect heat += 15"},
			{"id": "rogue", "heat": 20, "unguarded": true,
			 "policies": "policy work: on tick do run category work effect heat += 15"}
		],
		"events": [{"type": "tick", "target": "*", "repeat": 8}]
	}`)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "watchdog deactivated [rogue]") {
		t.Errorf("rogue not contained:\n%s", out)
	}
	if !strings.Contains(out, "chain verified") {
		t.Errorf("audit not verified:\n%s", out)
	}
	if !strings.Contains(out, "actions denied") {
		t.Errorf("missing summary:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"/nonexistent.json"}, os.Stdout); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeScenario(t, "{not json")
	if err := run([]string{bad}, os.Stdout); err == nil {
		t.Error("malformed JSON accepted")
	}
	badPolicy := writeScenario(t, `{"name":"x","devices":[{"id":"d","policies":"garbage"}]}`)
	if err := run([]string{badPolicy}, os.Stdout); err == nil {
		t.Error("bad policy DSL accepted")
	}
	trailing := writeScenario(t, `{"name":"x","devices":[{"id":"d"}]} {"name":"y"}`)
	if err := run([]string{trailing}, os.Stdout); err == nil {
		t.Error("trailing data after the scenario accepted")
	}
	misspelled := writeScenario(t, `{"name":"x","sweepEvry":2,"devices":[{"id":"d"}]}`)
	if err := run([]string{misspelled}, os.Stdout); err == nil ||
		!strings.Contains(err.Error(), "sweepEvry") {
		t.Errorf("misspelled field accepted (err=%v)", err)
	}
	// A send to an unknown target fails on the bus and is reported at
	// every worker count.
	badTarget := writeScenario(t, `{"name":"x","devices":[{"id":"d"}],"events":[{"type":"e","target":"ghost"}]}`)
	for _, workers := range []string{"1", "2"} {
		var sb strings.Builder
		if err := run([]string{"--parallelism", workers, badTarget}, &sb); err != nil {
			t.Fatalf("run --parallelism %s: %v", workers, err)
		}
		if !strings.Contains(sb.String(), `step 1: ghost: network: unknown node: "ghost"`) {
			t.Errorf("unknown target not reported at %s workers:\n%s", workers, sb.String())
		}
	}
}

func TestRunCustomSchema(t *testing.T) {
	path := writeScenario(t, `{
		"name": "reactor",
		"variables": [
			{"name": "pressure", "min": 0, "max": 500},
			{"name": "coolant", "min": 0, "max": 100}
		],
		"badWhen": [
			{"variable": "pressure", "op": ">=", "value": 400},
			{"variable": "coolant", "op": "<", "value": 10}
		],
		"devices": [
			{"id": "reactor-1", "state": {"pressure": 100, "coolant": 80},
			 "policies": "policy pump: on tick do pressurize category work effect pressure += 120"}
		],
		"events": [{"type": "tick", "target": "reactor-1", "repeat": 5}]
	}`)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	// 100 → 220 → 340; the next +120 would reach 460 ≥ 400 (bad) and
	// must be denied, so the device stops at 340.
	if !strings.Contains(out, "pressure=340") {
		t.Errorf("guard did not hold pressure at 340:\n%s", out)
	}
	if !strings.Contains(out, "actions denied:   3") {
		t.Errorf("denials wrong:\n%s", out)
	}
}

func TestRunCustomSchemaErrors(t *testing.T) {
	badVar := writeScenario(t, `{"name":"x","variables":[{"name":"p"}],
		"badWhen":[{"variable":"ghost","op":">","value":1}],"devices":[]}`)
	if err := run([]string{badVar}, os.Stdout); err == nil {
		t.Error("unknown badWhen variable accepted")
	}
	badOp := writeScenario(t, `{"name":"x","variables":[{"name":"p"}],
		"badWhen":[{"variable":"p","op":"%","value":1}],"devices":[]}`)
	if err := run([]string{badOp}, os.Stdout); err == nil {
		t.Error("unknown operator accepted")
	}
	badState := writeScenario(t, `{"name":"x","variables":[{"name":"p"}],
		"devices":[{"id":"d","state":{"ghost":1}}]}`)
	if err := run([]string{badState}, os.Stdout); err == nil {
		t.Error("unknown state variable accepted")
	}
}

func TestRunParallelScenario(t *testing.T) {
	path := writeScenario(t, `{
		"name": "fleet",
		"badHeatAt": 80,
		"denialThreshold": 3,
		"devices": [
			{"id": "d1", "heat": 20,
			 "policies": "policy work: on tick do run category work effect heat += 15"},
			{"id": "d2", "heat": 35,
			 "policies": "policy work: on tick do run category work effect heat += 15"},
			{"id": "d3", "heat": 50,
			 "policies": "policy work: on tick do run category work effect heat += 15"},
			{"id": "d4", "heat": 20, "unguarded": true,
			 "policies": "policy work: on tick do run category work effect heat += 15"}
		],
		"events": [{"type": "tick", "target": "*", "repeat": 8}]
	}`)

	// The serial engine and the parallel runs must print the same
	// output, journal tip included.
	serial := runAt(t, "1", path)
	for _, workers := range []string{"2", "4"} {
		if got := runAt(t, workers, path); got != serial {
			t.Errorf("output diverges at %s workers:\n-- 1 worker --\n%s\n-- %s workers --\n%s",
				workers, serial, workers, got)
		}
	}
	for _, want := range []string{
		"watchdog deactivated [d3 d4]",
		"chain verified, tip ",
		"actions denied",
	} {
		if !strings.Contains(serial, want) {
			t.Errorf("missing %q:\n%s", want, serial)
		}
	}
}

// runAt runs the scenario at the given worker count and returns its
// output.
func runAt(t *testing.T, workers, path string) string {
	t.Helper()
	var sb strings.Builder
	if err := run([]string{"--parallelism", workers, path}, &sb); err != nil {
		t.Fatalf("run --parallelism %s: %v", workers, err)
	}
	return sb.String()
}

func TestRunBundleScenario(t *testing.T) {
	path := writeScenario(t, `{
		"name": "bundle",
		"badHeatAt": 80,
		"devices": [
			{"id": "n1", "heat": 20},
			{"id": "n2", "heat": 20}
		],
		"events": [{"type": "tick", "target": "*", "repeat": 4}],
		"bundle": {
			"loss": 0.25,
			"corruptPushes": 3,
			"revisions": [
				"policy work priority 1:\n    on tick\n    do run target fleet category work effect heat += 5\n",
				"policy work priority 1:\n    on tick\n    do run target fleet category work effect heat += 10\n"
			]
		}
	}`)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	// Both revisions converged, and the fleet acted on the distributed
	// policy (+10 per tick from revision 2): no per-device sources exist.
	for _, want := range []string{
		"bundle revision 2: 1 policies converged",
		"bundle: revision=2 converged=true",
		"corrupt-rejected=3/3",
		"bundle ledger:",
		"chain verified",
		"n1: active state={heat=60",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// runSameAtAnyWorkers runs the scenario at 1, 2 and 4 workers and
// fails unless every run succeeds with byte-identical output, which it
// returns.
func runSameAtAnyWorkers(t *testing.T, path string) string {
	t.Helper()
	want := runAt(t, "1", path)
	for _, workers := range []string{"2", "4"} {
		if got := runAt(t, workers, path); got != want {
			t.Fatalf("output diverges at %s workers:\n-- 1 worker --\n%s\n-- %s workers --\n%s",
				workers, want, workers, got)
		}
	}
	return want
}

// TestRunParallelRejectsChaos keeps its name from when a chaos block
// at --parallelism > 1 was refused. The pairing now runs on the one
// engine path, and must print what the serial engine prints.
func TestRunParallelRejectsChaos(t *testing.T) {
	path := writeScenario(t, `{
		"name": "x",
		"devices": [{"id": "d"}],
		"events": [{"type": "tick", "target": "d"}],
		"chaos": {"loss": 0.5}
	}`)
	if out := runSameAtAnyWorkers(t, path); !strings.Contains(out, "chaos: delivered=") {
		t.Errorf("missing chaos summary:\n%s", out)
	}
}

// TestRunBundleIncompatibilities keeps its name from when a bundle
// block was refused beside a chaos or saturation block, and at
// --parallelism > 1. Each of those pairings now runs, and must print
// the same at any worker count.
func TestRunBundleIncompatibilities(t *testing.T) {
	for _, tc := range []struct{ name, scenario, want string }{
		{"chaos", `{"name":"x","devices":[{"id":"d"}],
			"bundle":{"revisions":[]},"chaos":{"loss":0.5}}`, "chaos: delivered="},
		{"saturation", `{"name":"x","devices":[{"id":"d"}],
			"bundle":{"revisions":[]},"saturation":{"queueCapacity":2}}`, "(conservation exact)"},
		{"alone", `{"name":"x","devices":[{"id":"d"}],
			"bundle":{"revisions":[]}}`, "bundle ledger: "},
	} {
		out := runSameAtAnyWorkers(t, writeScenario(t, tc.scenario))
		for _, want := range []string{tc.want, "bundle ledger: "} {
			if !strings.Contains(out, want) {
				t.Errorf("bundle + %s: missing %q:\n%s", tc.name, want, out)
			}
		}
	}
}

// TestRunBlockCombinations runs every subset of the chaos, saturation
// and bundle blocks on one fleet at 1, 2 and 4 workers, twice over, and
// requires byte-identical output each time, journal and ledger tips
// included.
func TestRunBlockCombinations(t *testing.T) {
	blocks := []struct{ name, json string }{
		{"chaos", `"chaos": {"loss": 0.3, "duplication": 0.2, "maxAttempts": 4,
			"crashDevice": "d2", "crashAtStep": 3, "restartAtStep": 6}`},
		{"saturation", `"saturation": {"queueCapacity": 2, "rate": 0.5, "burst": 1,
			"drainBatch": 2, "drainIntervalMs": 200}`},
		{"bundle", `"bundle": {"loss": 0.3, "corruptPushes": 3, "revisions": [
			"policy vent priority 2:\n    on tick\n    when heat > 70\n    do vent target fleet category work effect heat -= 10\n",
			"policy vent priority 2:\n    on tick\n    when heat > 50\n    do vent target fleet category work effect heat -= 15\n"]}`},
	}
	const work = `"policies": "policy work: on tick do run category work effect heat += 15"`
	for mask := 0; mask < 1<<len(blocks); mask++ {
		var names, parts []string
		for i, b := range blocks {
			if mask&(1<<i) != 0 {
				names = append(names, b.name)
				parts = append(parts, ",\n"+b.json)
			}
		}
		name := strings.Join(names, "+")
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			path := writeScenario(t, `{
				"name": "combo", "badHeatAt": 80, "denialThreshold": 3, "sweepEvery": 2,
				"devices": [
					{"id": "d1", "heat": 20, `+work+`},
					{"id": "d2", "heat": 35, `+work+`},
					{"id": "d3", "heat": 50, `+work+`},
					{"id": "d4", "heat": 20, "unguarded": true, `+work+`}
				],
				"events": [{"type": "tick", "target": "*", "repeat": 10},
					{"type": "tick", "target": "ghost"}]`+strings.Join(parts, "")+`
			}`)
			want := runAt(t, "1", path)
			for _, workers := range []string{"2", "4", "1", "2", "4"} {
				if got := runAt(t, workers, path); got != want {
					t.Fatalf("output diverges at %s workers:\n-- 1 worker --\n%s\n-- %s workers --\n%s",
						workers, want, workers, got)
				}
			}
			checks := []string{`step 11: ghost: network: unknown node: "ghost"`, "chain verified, tip "}
			for _, b := range names {
				switch b {
				case "chaos":
					checks = append(checks, "chaos crashed d2", "chaos recovered d2", "recoveries=1")
				case "saturation":
					checks = append(checks, "admission: rate limited", "(conservation exact)")
				case "bundle":
					checks = append(checks, "bundle: revision=2 converged=true", "corrupt-rejected=3/3",
						"bundle ledger: ")
				}
			}
			for _, c := range checks {
				if !strings.Contains(want, c) {
					t.Errorf("missing %q:\n%s", c, want)
				}
			}
		})
	}
}

func TestRunChaosScenario(t *testing.T) {
	path := writeScenario(t, `{
		"name": "chaos",
		"badHeatAt": 80,
		"denialThreshold": 3,
		"devices": [
			{"id": "guarded", "heat": 20,
			 "policies": "policy work: on tick do run category work effect heat += 3"}
		],
		"events": [{"type": "tick", "target": "*", "repeat": 12}],
		"chaos": {"loss": 0.3, "duplication": 0.2, "maxAttempts": 5,
			"crashDevice": "guarded", "crashAtStep": 4, "restartAtStep": 8}
	}`)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "chaos crashed guarded") {
		t.Errorf("crash not reported:\n%s", out)
	}
	if !strings.Contains(out, "chaos recovered guarded from checkpoint") {
		t.Errorf("recovery not reported:\n%s", out)
	}
	if !strings.Contains(out, "chaos: delivered=") {
		t.Errorf("missing chaos summary:\n%s", out)
	}
	if !strings.Contains(out, "recoveries=1") {
		t.Errorf("recovery not counted:\n%s", out)
	}
	if !strings.Contains(out, "chain verified") {
		t.Errorf("audit not verified:\n%s", out)
	}
	if !strings.Contains(out, "guarded: active") {
		t.Errorf("recovered device not active at end:\n%s", out)
	}
}
