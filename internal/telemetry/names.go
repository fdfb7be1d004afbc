package telemetry

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Metric names follow one convention: subsystem.name, lowercase, with
// underscores inside each part — e.g. policy.compile_ms, bus.dropped.
// Every name the framework emits is declared here; CheckName rejects
// anything else, and the telemetry test suite runs the full stack and
// fails on unregistered or misspelled names at call sites.
//
// Label keys are bounded: a label's values come from a small fixed set
// (a cause, a guard, a device type or org), never from a per-instance
// identity such as a device ID, so the series count does not grow with
// the fleet. CheckSamples holds every emitted sample to its Def's keys.

// Def declares one framework metric.
type Def struct {
	// Name is the subsystem.name identifier.
	Name string
	// Kind is the metric family.
	Kind Kind
	// Labels lists the label keys every sample of the metric carries
	// (empty for unlabeled metrics).
	Labels []string
	// Help is the one-line exposition help text.
	Help string
}

// defs is the metric taxonomy, grouped by subsystem.
var defs = []Def{
	// bus — message substrate delivery accounting.
	{Name: "bus.sent", Kind: KindCounter, Help: "Send attempts to attached recipients (each ends delivered, dropped, shed or queued)."},
	{Name: "bus.delivered", Kind: KindCounter, Help: "Messages accepted for delivery by the bus."},
	{Name: "bus.dropped", Kind: KindCounter, Labels: []string{"cause"}, Help: "Messages dropped by the bus, by cause (loss, partition, oneway)."},
	{Name: "bus.duplicated", Kind: KindCounter, Help: "Messages delivered twice by the duplication fault."},
	{Name: "bus.bridge_dropped", Kind: KindCounter, Labels: []string{"cause"}, Help: "Wire-bridged messages the bus refused, by cause (unknown_node, partition, loss, queue_full, rate_limited, error)."},

	// admission — the bounded command-plane front door.
	{Name: "admission.admitted", Kind: KindCounter, Labels: []string{"class"}, Help: "Messages admitted into bounded intake queues, by priority class."},
	{Name: "admission.delivered", Kind: KindCounter, Labels: []string{"class"}, Help: "Admitted messages drained to their recipient, by priority class."},
	{Name: "admission.shed", Kind: KindCounter, Labels: []string{"cause", "class"}, Help: "Messages shed with cause (queue_full, rate_limited), by priority class."},
	{Name: "admission.queue_depth", Kind: KindGauge, Help: "Messages currently queued across all intake queues."},
	{Name: "admission.wait_ms", Kind: KindHistogram, Labels: []string{"class"}, Help: "Queue wait between admission and drain in milliseconds."},

	// resilience — retry, breaker and reliable-send outcomes.
	{Name: "resilience.retries", Kind: KindCounter, Help: "Redelivery attempts spent recovering dropped sends."},
	{Name: "resilience.breaker_rejected", Kind: KindCounter, Help: "Sends rejected outright by an open circuit breaker."},
	{Name: "resilience.sends", Kind: KindCounter, Labels: []string{"result"}, Help: "Reliable-sender outcomes, by result (ok, failed)."},

	// dispatch — command decomposition into per-device deliveries.
	{Name: "dispatch.sent", Kind: KindCounter, Help: "Per-device command deliveries accepted by the transport."},
	{Name: "dispatch.failed", Kind: KindCounter, Help: "Per-device command deliveries failed after retries or breaker rejection."},

	// core — collective-level intake.
	{Name: "core.commands", Kind: KindCounter, Help: "Human commands broadcast through the collective."},
	{Name: "core.deliveries", Kind: KindCounter, Help: "Targeted event deliveries to collective members."},
	{Name: "core.command_shed", Kind: KindCounter, Labels: []string{"cause"}, Help: "Human-command targets shed by the admission gate before delivery (server and dispatcher), by cause; each is also audited."},

	// policy — the compiled decision plane, by device type and org.
	// Per-device epochs and residuals are served by GET /v1/fleet.
	{Name: "policy.compiles", Kind: KindCounter, Labels: []string{"type", "org"}, Help: "Snapshot compilations."},
	{Name: "policy.compile_ms", Kind: KindHistogram, Labels: []string{"type", "org"}, Help: "Snapshot compile latency in milliseconds."},
	{Name: "policy.evaluate_ms", Kind: KindHistogram, Labels: []string{"type", "org"}, Help: "Policy snapshot evaluation latency in milliseconds."},
	{Name: "policy.residual_compiles", Kind: KindCounter, Labels: []string{"type", "org"}, Help: "Residual snapshots specialized (partial evaluations actually run)."},
	{Name: "policy.residual_hits", Kind: KindCounter, Labels: []string{"type", "org"}, Help: "Specialize calls served from the per-snapshot residual cache."},
	{Name: "policy.residual_misses", Kind: KindCounter, Labels: []string{"type", "org"}, Help: "Specialize calls that missed the residual cache."},

	// guard — per-guard verdicts and latencies.
	{Name: "guard.decisions", Kind: KindCounter, Labels: []string{"guard", "decision"}, Help: "Guard verdicts, by guard and decision (allow, deny, deactivate)."},
	{Name: "guard.check_ms", Kind: KindHistogram, Labels: []string{"guard"}, Help: "Guard check latency in milliseconds."},
	{Name: "guard.break_glass", Kind: KindCounter, Labels: []string{"guard"}, Help: "Allows obtained through an audited break-glass override."},
	{Name: "guard.invalid_decision", Kind: KindCounter, Labels: []string{"guard"}, Help: "Malformed guard verdicts failed closed by the pipeline."},

	// device — event handling and actuation outcomes, by device type
	// and org.
	{Name: "device.events", Kind: KindCounter, Labels: []string{"type", "org"}, Help: "Events handled by devices' policy logic."},
	{Name: "device.executions", Kind: KindCounter, Labels: []string{"type", "org", "result"}, Help: "Directed-action outcomes, by result (executed, denied, error)."},

	// engine — the discrete-event engine's parallel segments.
	{Name: "engine.segment_events", Kind: KindHistogram, Help: "Events per parallel segment: a run of same-timestamp sharded events spread over the worker pool."},
	{Name: "engine.segment_ms", Kind: KindHistogram, Labels: []string{"phase"}, Help: "Wall time of each parallel segment in milliseconds, by phase (run: the workers; merge: chaining staged journal ranges and queueing staged events on the run goroutine)."},

	// gossip — anti-entropy policy/intelligence sharing.
	{Name: "gossip.rounds", Kind: KindCounter, Help: "Anti-entropy push rounds executed."},
	{Name: "gossip.updates", Kind: KindCounter, Help: "Item updates applied across peers by gossip pushes."},
	{Name: "gossip.pushes_dropped", Kind: KindCounter, Help: "Anti-entropy pushes dropped by the link fault."},
	{Name: "gossip.push_retries", Kind: KindCounter, Help: "Retry attempts spent recovering dropped gossip pushes."},

	// bundle — the signed policy-distribution plane.
	{Name: "bundle.published", Kind: KindCounter, Labels: []string{"kind"}, Help: "Policy bundle revisions published, by kind (full, delta)."},
	{Name: "bundle.bytes_on_wire", Kind: KindCounter, Labels: []string{"kind"}, Help: "Encoded bundle bytes handed to the bus, by kind (full, delta)."},
	{Name: "bundle.pushed", Kind: KindCounter, Help: "Bundle pushes sent to devices (including repair re-pushes)."},
	{Name: "bundle.acked", Kind: KindCounter, Help: "Activation acknowledgements received by the distributor."},
	{Name: "bundle.activated", Kind: KindCounter, Labels: []string{"kind"}, Help: "Bundles verified and atomically activated by devices, by kind (full, delta)."},
	{Name: "bundle.rejected", Kind: KindCounter, Labels: []string{"cause"}, Help: "Bundles refused fail-closed, by cause (signature, scope, root, gap, stale, coverage, hash, malformed, decode)."},
	{Name: "bundle.scope_rejected", Kind: KindCounter, Labels: []string{"root"}, Help: "Bundles refused because their contents fall outside the signing key's authorized scope or claim a root the device is not subscribed to — the compromised-coalition-key attack stopped at the trust boundary."},
	{Name: "bundle.forged_report", Kind: KindCounter, Labels: []string{"topic"}, Help: "Status reports (acks, pulls) whose payload claims a device other than the bus sender — dropped and audited, never believed."},
	{Name: "bundle.encode_failed", Kind: KindCounter, Labels: []string{"root"}, Help: "Bundle wire encodings that failed during fan-out, by org root; the push is dropped, counted and audited."},
	{Name: "bundle.bad_payload", Kind: KindCounter, Help: "Bundle-plane messages carrying a payload of the wrong type — dropped, counted and audited."},
	{Name: "bundle.repairs", Kind: KindCounter, Help: "Anti-entropy repair pushes to devices behind the current revision."},
	{Name: "bundle.pulls", Kind: KindCounter, Help: "Pull-repair requests received from devices that detected a gap."},
	{Name: "bundle.send_failed", Kind: KindCounter, Labels: []string{"topic"}, Help: "Distribution-plane sends the bus refused, by topic; survivable (repair re-pushes, re-acks and pull retries cover them) but never silent. A send from an engine event that admission sheds is booked by the bus and admission.shed, not here."},
	{Name: "bundle.revision", Kind: KindGauge, Labels: []string{"root"}, Help: "Current published revision per org root."},
	{Name: "bundle.lagging", Kind: KindGauge, Labels: []string{"root"}, Help: "Devices whose acknowledged revision trails the published one, per org root."},

	// chaos — fault injections and heals.
	{Name: "chaos.loss_injected", Kind: KindCounter, Help: "Loss fault onsets."},
	{Name: "chaos.loss_healed", Kind: KindCounter, Help: "Loss fault heals."},
	{Name: "chaos.partition_injected", Kind: KindCounter, Help: "Partition fault onsets."},
	{Name: "chaos.partition_healed", Kind: KindCounter, Help: "Partition fault heals."},
	{Name: "chaos.oneway_injected", Kind: KindCounter, Help: "One-way (asymmetric) partition fault onsets."},
	{Name: "chaos.oneway_healed", Kind: KindCounter, Help: "One-way partition fault heals."},
	{Name: "chaos.duplication_injected", Kind: KindCounter, Help: "Duplication fault onsets."},
	{Name: "chaos.duplication_healed", Kind: KindCounter, Help: "Duplication fault heals."},
	{Name: "chaos.slowlinks_injected", Kind: KindCounter, Help: "Slow-link fault onsets."},
	{Name: "chaos.slowlinks_healed", Kind: KindCounter, Help: "Slow-link fault heals."},
	{Name: "chaos.skew_injected", Kind: KindCounter, Help: "Clock-skew injections."},
	{Name: "chaos.crash_injected", Kind: KindCounter, Help: "Device crash injections."},
	{Name: "chaos.crash_restarted", Kind: KindCounter, Help: "Crashed devices restarted from checkpoint."},
	{Name: "chaos.crash_restart_failed", Kind: KindCounter, Help: "Checkpoint restarts that failed."},

	// trace — the tracer's own accounting.
	{Name: "trace.spans", Kind: KindCounter, Help: "Spans finished into the trace ring buffer."},
	{Name: "trace.evicted", Kind: KindCounter, Help: "Finished spans evicted from the full ring buffer."},

	// server — the live control plane (skynetsim serve).
	{Name: "server.requests", Kind: KindCounter, Labels: []string{"route", "code"}, Help: "Control-plane HTTP requests, by route and status code."},
	{Name: "server.commands", Kind: KindCounter, Labels: []string{"result"}, Help: "Commands submitted via POST /v1/commands, by result (ok, shed, error)."},
	{Name: "server.decision_ms", Kind: KindHistogram, Help: "End-to-end decision latency of submitted commands (intake to final verdict) in milliseconds."},
	{Name: "server.audit_streamed", Kind: KindCounter, Help: "Audit entries streamed to /v1/audit/tail clients."},
	{Name: "server.audit_streams", Kind: KindGauge, Help: "Audit tail streams currently open."},

	// loadgen — the latency-benchmarked load harness.
	{Name: "loadgen.requests", Kind: KindCounter, Labels: []string{"result"}, Help: "Load-generator requests, by result (ok, shed, error)."},
	{Name: "loadgen.overflow", Kind: KindCounter, Help: "Open-loop ticks skipped because every in-flight slot was busy (the server lags the offered rate)."},
	{Name: "loadgen.latency_ms", Kind: KindHistogram, Help: "Client-observed decision latency in milliseconds."},
}

var defByName = func() map[string]Def {
	m := make(map[string]Def, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}()

// nameRE is the subsystem.name convention: exactly one dot, lowercase
// snake_case on both sides.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$`)

// Lookup returns the declaration for a registered metric name.
func Lookup(name string) (Def, bool) {
	d, ok := defByName[name]
	return d, ok
}

// KnownNames returns every registered metric name, sorted.
func KnownNames() []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// CheckName verifies that a metric name follows the subsystem.name
// convention and is registered in the taxonomy.
func CheckName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("telemetry: metric %q does not follow the subsystem.name convention", name)
	}
	if _, ok := defByName[name]; !ok {
		return fmt.Errorf("telemetry: metric %q is not registered in the name taxonomy (misspelled call site?)", name)
	}
	return nil
}

// CheckSamples verifies a snapshot against the taxonomy: every
// sample's name passes CheckName, and every sample carries exactly the
// label keys its Def declares, so a call site can neither add, drop
// nor misspell a key. The returned error joins all violations.
func CheckSamples(samples []Sample) error {
	var bad []string
	named := make(map[string]bool)
	for _, s := range samples {
		if err := CheckName(s.Name); err != nil {
			if !named[s.Name] {
				named[s.Name] = true
				bad = append(bad, err.Error())
			}
			continue
		}
		keys := make([]string, len(s.Labels))
		for i, l := range s.Labels {
			keys[i] = l.Key
		}
		want := slices.Clone(defByName[s.Name].Labels)
		sort.Strings(want)
		if !slices.Equal(keys, want) {
			bad = append(bad, fmt.Sprintf("telemetry: metric %s%s carries label keys %v, want %v",
				s.Name, s.LabelString(), keys, want))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}
