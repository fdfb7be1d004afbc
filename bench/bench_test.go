package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// tinySizes keep every workload to a fraction of a second.
var tinySizes = sizes{
	unicastDevices: 8, unicastRequests: 40,
	broadcastDevices: 16, broadcastRequests: 4,
	fleetDevices: 200, fleetPeriods: 5,
	fanoutPerOrg: 40, fanoutPublishes: 2,
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload at tiny sizes, timed and
// traced, and holds the metric names it emits equal to the ones
// BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readSpec(t)
	file, err := runAll(options{workload: "all", seed: 3, seconds: 1e-3, trace: true}, tinySizes, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if got := strings.Join(workloadNames(), ","); got != strings.Join(declared, ",") {
		t.Errorf("workloads %s, BENCHMARK.json declares %s", got, strings.Join(declared, ","))
	}
	e2e := make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit + " " + m.Better
	}
	layer := make(map[string]string)
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit + " " + m.Better
	}
	for _, defs := range []struct {
		code []metricDef
		spec map[string]string
	}{{endToEnd, e2e}, {perLayer, layer}} {
		code := make(map[string]string)
		for _, d := range defs.code {
			code[d.name] = d.unit + " " + d.better
		}
		if strings.Join(sortedKeys(code), ",") != strings.Join(sortedKeys(defs.spec), ",") {
			t.Errorf("metric catalogue %v, BENCHMARK.json %v", sortedKeys(code), sortedKeys(defs.spec))
		}
		for name, ud := range code {
			if defs.spec[name] != ud {
				t.Errorf("%s: unit and direction %q in code, %q in BENCHMARK.json", name, ud, defs.spec[name])
			}
		}
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for _, w := range file.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d, failures %v", w.Name, w.Correct, w.Attempted, w.Failed, w.Failures)
		}
		if got, want := strings.Join(sortedKeys(w.Metrics), ","), strings.Join(sortedKeys(e2e), ","); got != want {
			t.Errorf("%s emits end-to-end metrics %s, declared %s", w.Name, got, want)
		}
		if got, want := strings.Join(sortedKeys(w.Layers), ","), strings.Join(sortedKeys(layer), ","); got != want {
			t.Errorf("%s emits per-layer metrics %s, declared %s", w.Name, got, want)
		}
		for name, v := range w.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.Name, name, v.Value)
			}
		}
	}

	line, correct := resultLine(file)
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if got := strings.Join(sortedKeys(parsed), ","); got != "attempted,correct,failed,metrics" || !correct {
		t.Errorf("result line keys %s, correct %v", got, correct)
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "fanout", "--seed", "7", "--seconds", "10", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "fanout" || o.seed != 7 || o.seconds != 10 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{
		{"--trace", "2"},
		{"--workload", "nope"},
		{"--seconds", "0"},
		{"extra"},
	} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
}

// TestWrappedVerifierKeepsScope: an org-us key signing a bundle that
// names org-uk policies must be refused for scope through the timing
// wrapper, exactly as through the bare key ring. A verifier that hides
// ScopeOf lets the same bundle through, which is what the wrapper
// must not do.
func TestWrappedVerifierKeepsScope(t *testing.T) {
	usKey := bundle.HMACKey{ID: "us-root", Secret: []byte("us")}
	ukKey := bundle.HMACKey{ID: "uk-root", Secret: []byte("uk")}
	ring := bundle.NewKeyRing().
		Add(usKey.ID, usKey, bundle.Scope{Org: "us"}).
		Add(ukKey.ID, ukKey, bundle.Scope{Org: "uk"})
	foreign, err := policylang.CompileSource(
		"policy uk.fleet00 priority 1:\n    on tick\n    do adjust target x category surveillance\n", policy.OriginHuman)
	if err != nil {
		t.Fatal(err)
	}
	smuggle, _, err := bundle.NewOrgPublisher(usKey, "us").Publish(foreign)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := bundle.Encode(smuggle)
	if err != nil {
		t.Fatal(err)
	}

	var tm timer
	_, err = bundle.NewOrgAgent(policy.NewSet(), timedVerifier{inner: ring, t: &tm}, "us").ApplyWire(wire)
	if cause := bundle.CauseOf(err); cause != "scope" {
		t.Errorf("through the wrapper: cause %q (err %v), want scope", cause, err)
	}
	if tm.read().calls != 1 {
		t.Errorf("wrapper timed %d verifications, want 1", tm.read().calls)
	}

	hidden := struct{ bundle.Verifier }{ring}
	if applied, err := bundle.NewOrgAgent(policy.NewSet(), hidden, "us").ApplyWire(wire); !applied || err != nil {
		t.Fatalf("control: a verifier without ScopeOf should let the bundle through, got %v, %v", applied, err)
	}
}

// TestWrappedActuatorKeepsTrace: d1 forwards a command to d2 through
// a wrapped router. The wrapper must stay a TracedActuator, so d2's
// spans join the command's trace; the plain wrapper, as a control,
// splits it in two.
func TestWrappedActuatorKeepsTrace(t *testing.T) {
	forward := func(wrap func(device.Actuator) device.Actuator) ([]telemetry.Span, error) {
		log := audit.New()
		tracer := telemetry.NewTracer()
		c, err := core.New(core.Config{Name: "wrap", Audit: log, KillSecret: []byte("wrap"), Tracer: tracer})
		if err != nil {
			return nil, err
		}
		initial, err := statespace.MustSchema(statespace.Var("heat", 0, 100)).StateFromMap(map[string]float64{"heat": 1})
		if err != nil {
			return nil, err
		}
		for _, p := range []struct{ id, on, do, target string }{
			{"d1", "task", "assist", "d2"},
			{"d2", "assist", "work", ""},
		} {
			d, err := device.New(device.Config{ID: p.id, Initial: initial, KillSwitch: c.KillSwitch(), Audit: log, Tracer: tracer})
			if err != nil {
				return nil, err
			}
			if err := d.Policies().Add(policy.Policy{ID: p.do, EventType: p.on, Modality: policy.ModalityDo,
				Action: policy.Action{Name: p.do, Target: p.target}}); err != nil {
				return nil, err
			}
			if err := c.AddDevice(d, nil); err != nil {
				return nil, err
			}
			if p.target != "" {
				if err := d.RegisterActuator(p.do, wrap(c.RouterFor(p.id))); err != nil {
					return nil, err
				}
			}
		}
		root := tracer.StartSpan("bench.command", "operator", telemetry.SpanContext{})
		ev := policy.Event{Type: "task", Source: "operator", Labels: telemetry.Inject(root.Context(), nil)}
		if _, err := c.Deliver("d1", ev); err != nil {
			return nil, err
		}
		root.Finish()
		return tracer.Spans(), nil
	}

	var tm timer
	spans, err := forward(func(a device.Actuator) device.Actuator { return wrapActuator(a, &tm) })
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckConnected(spans); err != nil {
		t.Errorf("through the wrapper: %v", err)
	}
	reached := false
	for _, s := range spans {
		reached = reached || (s.Actor == "d2" && s.Name == "device.handle")
	}
	if !reached || tm.read().calls != 1 {
		t.Errorf("d2 handled the forwarded action: %v; wrapper calls %d, want 1", reached, tm.read().calls)
	}

	spans, err = forward(func(a device.Actuator) device.Actuator { return timedActuator{inner: a, t: new(timer)} })
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.CheckConnected(spans) == nil {
		t.Error("control: a wrapper without InvokeTraced should split the trace")
	}
}
