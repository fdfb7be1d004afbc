package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/bench/internal/report"
	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/server"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// The decide workloads drive the control plane over real loopback
// HTTP with a closed loop on clientConns connections. The fleet is
// built like cmd/loadgen's self-hosted one: guarded devices whose one
// policy always executes, and an admission gate that is on but never
// binds, so every request takes the full decision path.
const (
	clientConns   = 2
	admissionRate = 1e6
	// spansPerDecision is what one traced device decision emits:
	// device.handle, device.execute and one guard.check per stage of a
	// single-stage pipeline.
	spansPerDecision = 3
)

func buildUnicast(e env) (world, error) {
	return buildDecide(e, e.size.unicastDevices, e.size.unicastRequests, false)
}

func buildBroadcast(e env) (world, error) {
	return buildDecide(e, e.size.broadcastDevices, e.size.broadcastRequests, true)
}

type decideWorld struct {
	devices   []*device.Device
	log       *audit.Log
	reg       *telemetry.Registry
	tracer    *telemetry.Tracer
	srv       *server.Server
	transport *http.Transport
	client    *http.Client
	url       string

	// bodies are the round's requests in order; targets are the
	// admission decisions they cause, in order, for the replay.
	bodies     [][]byte
	targets    []string
	perRequest int

	guard, actuate *timer

	// Readings taken after the warm-up, so the checks and layers
	// cover the timed requests only.
	warmOK      int64
	logBefore   int
	spansBefore int64

	results []reqResult
}

type reqResult struct {
	// done is when the reply was read, from the start of the loop.
	done      time.Duration
	latency   time.Duration
	serverMs  float64
	decisions int
	ok        bool
}

func buildDecide(e env, n, requests int, broadcast bool) (world, error) {
	rng := rand.New(rand.NewSource(e.seed))
	schema, err := statespace.NewSchema(
		statespace.Var("heat", 0, 1e12),
		statespace.Var("fuel", 0, 100),
	)
	if err != nil {
		return nil, err
	}
	classifier := statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
		if st.MustGet("heat") >= 1e12 {
			return statespace.ClassBad
		}
		return statespace.ClassGood
	})
	w := &decideWorld{log: audit.New(), reg: telemetry.NewRegistry(), perRequest: 1}
	if broadcast {
		w.perRequest = n
	}
	// The timed run keeps serve's default-capacity tracer; a traced
	// round sizes it to hold every span of the round.
	tracerOpts := []telemetry.TracerOption{telemetry.WithTracerMetrics(w.reg)}
	warmRequests := n
	if broadcast {
		warmRequests = clientConns
	}
	if e.traced {
		spans := (requests + warmRequests) * (1 + spansPerDecision*w.perRequest)
		tracerOpts = append(tracerOpts, telemetry.WithCapacity(spans))
		w.guard, w.actuate = new(timer), new(timer)
	}
	w.tracer = telemetry.NewTracer(tracerOpts...)
	collective, err := core.New(core.Config{
		Name:       "bench-decide",
		Audit:      w.log,
		KillSecret: []byte("bench-decide"),
		Classifier: classifier,
		Telemetry:  w.reg,
		Tracer:     w.tracer,
	})
	if err != nil {
		return nil, err
	}
	policies, err := policylang.CompileSource(
		"policy work:\n    on tick\n    do run-load category work effect heat += 1",
		policy.OriginHuman)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		initial, err := schema.StateFromMap(map[string]float64{"heat": float64(rng.Intn(1000)), "fuel": 100})
		if err != nil {
			return nil, err
		}
		g := core.StandardPipeline(core.SafetyConfig{
			Audit:      w.log,
			Classifier: classifier,
			Telemetry:  w.reg,
			Tracer:     w.tracer,
		})
		if e.traced {
			g = timedGuard{inner: g, t: w.guard}
		}
		d, err := device.New(device.Config{
			ID:           fmt.Sprintf("bench-%04d", i),
			Type:         "bench-worker",
			Organization: "bench",
			Initial:      initial,
			Guard:        g,
			KillSwitch:   collective.KillSwitch(),
			Audit:        w.log,
			Telemetry:    w.reg,
			Tracer:       w.tracer,
		})
		if err != nil {
			return nil, err
		}
		if e.traced {
			d.SetDefaultActuator(wrapActuator(device.NopActuator{}, w.actuate))
		}
		if err := d.Policies().AddBatch(policies); err != nil {
			return nil, err
		}
		if err := collective.AddDevice(d, nil); err != nil {
			return nil, err
		}
		w.devices = append(w.devices, d)
	}
	intake, err := admission.New(admission.Config{Rate: admissionRate, Metrics: w.reg})
	if err != nil {
		return nil, err
	}
	w.srv, err = server.New(server.Config{
		Collective: collective,
		Audit:      w.log,
		Registry:   w.reg,
		Tracer:     w.tracer,
		Admission:  intake,
	})
	if err != nil {
		return nil, err
	}
	if err := w.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	w.url = "http://" + w.srv.Addr() + "/v1/commands"
	w.transport = &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns}
	w.client = &http.Client{Transport: w.transport}

	// Target order: a seeded permutation of the fleet, round-robin.
	order := rng.Perm(n)
	body := func(target string) []byte {
		return []byte(fmt.Sprintf(`{"type":"tick","target":%q,"source":"bench"}`, target))
	}
	var warm [][]byte
	if broadcast {
		all := body("*")
		for i := 0; i < warmRequests; i++ {
			warm = append(warm, all)
		}
		for i := 0; i < requests; i++ {
			w.bodies = append(w.bodies, all)
			for _, d := range w.devices {
				w.targets = append(w.targets, d.ID())
			}
		}
	} else {
		for _, i := range order {
			warm = append(warm, body(w.devices[i].ID()))
		}
		for i := 0; i < requests; i++ {
			id := w.devices[order[i%n]].ID()
			w.bodies = append(w.bodies, body(id))
			w.targets = append(w.targets, id)
		}
	}

	// Warm-up belongs to set-up: it opens the connections and compiles
	// every device's snapshot and residual once.
	for _, r := range w.closedLoop(warm) {
		if !r.ok {
			w.close()
			return nil, fmt.Errorf("warm-up request failed")
		}
		w.warmOK++
	}
	w.logBefore = w.log.Len()
	w.spansBefore = w.reg.Counter("trace.spans").Value()
	if e.traced {
		w.guard.reset()
		w.actuate.reset()
	}
	return w, nil
}

// closedLoop sends the bodies over clientConns connections, each
// sending its next request only when the previous one returned.
func (w *decideWorld) closedLoop(bodies [][]byte) []reqResult {
	out := make([]reqResult, len(bodies))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(bodies); i += clientConns {
				out[i] = w.fire(bodies[i])
				out[i].done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return out
}

func (w *decideWorld) fire(body []byte) reqResult {
	start := time.Now()
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reqResult{latency: time.Since(start)}
	}
	// Only the tallies are decoded: the per-device views of a
	// broadcast reply are scanned but not kept.
	var cr struct {
		Executed  int               `json:"executed"`
		Denied    int               `json:"denied"`
		Errors    int               `json:"errors"`
		Shed      []json.RawMessage `json:"shed"`
		LatencyMs float64           `json:"latencyMs"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&cr)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r := reqResult{latency: time.Since(start), serverMs: cr.LatencyMs, decisions: cr.Executed + cr.Denied}
	r.ok = derr == nil && resp.StatusCode == http.StatusOK && cr.Errors == 0 &&
		len(cr.Shed) == 0 && r.decisions == w.perRequest
	return r
}

// decideWindows is how many throughput windows a round is cut into.
const decideWindows = 20

func (w *decideWorld) run() (phase, error) {
	start := time.Now()
	w.results = w.closedLoop(w.bodies)
	p := phase{wall: time.Since(start), attempted: int64(len(w.results))}
	p.lat = make([]sample, len(w.results))
	for i, r := range w.results {
		p.lat[i] = sample{ms: ms(r.latency), n: 1}
		if r.ok {
			p.ops += int64(r.decisions)
		} else {
			p.failed++
		}
	}
	// Windows are runs of consecutive replies in completion order.
	byDone := append([]reqResult(nil), w.results...)
	sort.Slice(byDone, func(i, j int) bool { return byDone[i].done < byDone[j].done })
	size := len(byDone) / decideWindows
	if size < 1 {
		size = 1
	}
	var from time.Duration
	for i := 0; i+size <= len(byDone); i += size {
		win := window{wall: byDone[i+size-1].done - from}
		for _, r := range byDone[i : i+size] {
			if r.ok {
				win.ops += int64(r.decisions)
			}
		}
		from = byDone[i+size-1].done
		p.windows = append(p.windows, win)
	}
	return p, nil
}

func (w *decideWorld) check(c *checks) {
	var ok int64
	for _, r := range w.results {
		if r.ok {
			ok++
		}
	}
	c.expect(ok == int64(len(w.results)), "%d of %d requests were not 200 with %d executed+denied decisions",
		int64(len(w.results))-ok, len(w.results), w.perRequest)
	served := w.reg.Counter("server.commands", "result", "ok").Value()
	c.expect(served == ok+w.warmOK, "server.commands{result=ok} is %d, clients saw %d successes", served, ok+w.warmOK)
	c.expect(w.log.Verify() == nil, "audit chain does not verify")
	c.note("audit journal: %d entries over %d requests", w.log.Len()-w.logBefore, len(w.results))
}

func (w *decideWorld) layers(p phase) (layerValues, error) {
	ops := float64(p.ops)
	m := layerValues{}
	var httpUS, decisionUS []float64
	var busy float64
	for _, r := range w.results {
		total := us(r.latency)
		httpUS = append(httpUS, total-r.serverMs*1e3)
		decisionUS = append(decisionUS, r.serverMs*1e3)
		busy += total - r.serverMs*1e3
	}
	m["server.http_us"] = report.Median(httpUS)
	m["server.decision_us"] = report.Median(decisionUS)

	if evicted := w.reg.Counter("trace.evicted").Value(); evicted > 0 {
		return nil, fmt.Errorf("tracer evicted %d spans; the span breakdown would be partial", evicted)
	}
	spans := w.tracer.Spans()
	self := spanSelf(spans[int(w.spansBefore):])
	for name, vs := range self {
		for _, v := range vs {
			busy += v
		}
		m["span."+name+".self_us"] = report.Median(vs)
	}

	var err error
	if m["admission.allow_us"], err = replayAllow(w.targets, admissionRate); err != nil {
		return nil, err
	}
	d := w.devices[0]
	if m["policy.evaluate_us"], err = replayEvaluate(d, policy.Event{Type: "tick", Source: "bench"}, 20000); err != nil {
		return nil, err
	}
	g := w.guard.read()
	m["guard.check_us"] = g.meanUS()
	m["guard.checks_per_op"] = ratio(float64(g.calls), ops)
	m["guard.denials_per_op"] = ratio(float64(g.hits), ops)
	m["device.actuate_us"] = w.actuate.read().meanUS()

	entries := w.log.Entries()
	m["audit.append_us"] = replayAppend(entries[w.logBefore:], len(entries))
	m["audit.entries_per_op"] = ratio(float64(len(entries)-w.logBefore), ops)
	m["telemetry.series"] = float64(len(w.reg.Snapshot()))
	m["telemetry.spans_per_op"] = ratio(float64(w.reg.Counter("trace.spans").Value()-w.spansBefore), ops)
	// The client-side remainder and the span self times tile each
	// request; what is left of the connections' time is the client
	// loop itself.
	m["unexplained_share"] = 1 - busy/(us(p.wall)*clientConns)
	return m, nil
}

func (w *decideWorld) close() {
	w.transport.CloseIdleConnections()
	_ = w.srv.Close()
}
