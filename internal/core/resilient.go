package core

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Dispatcher decomposes a human command (Figure 1) into per-device
// deliveries over the bus, with the resilience stack applied to each:
// bounded retries with backoff for transient drops, a circuit breaker
// per device so a crashed member stops consuming the retry budget, and
// an optional per-delivery deadline. This replaces the optimistic
// Collective.Command path in experiments that inject faults — a
// command must reach the survivors even when some members are gone.
type Dispatcher struct {
	// Collective names the recipients when Roster is empty, and owns
	// the admission gate (required with Admission).
	Collective *Collective
	// Sender is the resilient bus wrapper deliveries go through
	// (required).
	Sender *network.ReliableSender
	// Roster fixes the target device IDs; empty means the collective's
	// current members. A fixed roster keeps dispatching to crashed
	// devices (exercising breakers) until they recover.
	Roster []string
	// Source stamps the dispatched events (default "human").
	Source string
	// Deadline bounds each delivery; the zero value disables it.
	Deadline resilience.Deadline
	// Metrics observes dispatch outcomes (dispatch.sent,
	// dispatch.failed); may be nil.
	Metrics *telemetry.Registry
	// Tracer, when set, opens one root span per command at intake and
	// one child span per target delivery; the trace context is injected
	// into the dispatched event's labels and survives the resilience
	// stack (retries and duplicates carry the same context).
	Tracer *telemetry.Tracer
	// Admission, when set, gates each per-target delivery through the
	// collective's AdmitCommand before it enters the resilience stack:
	// a shed target fails fast with a typed cause instead of burning
	// retry budget, counted under core.command_shed{cause} and audited
	// with the delivery's trace ID.
	Admission *admission.Controller
}

// Command sends the event to every target and returns how many
// deliveries were accepted by the transport and how many failed after
// retries (or were rejected by an open breaker).
func (d *Dispatcher) Command(ev policy.Event) (sent, failed int) {
	source := d.Source
	if source == "" {
		source = "human"
	}
	targets := d.Roster
	if len(targets) == 0 {
		for _, dev := range d.Collective.Devices() {
			targets = append(targets, dev.ID())
		}
	}
	root := d.Tracer.StartSpan("dispatch.command", source, telemetry.Extract(ev.Labels))
	root.SetAttr("event", ev.Type)
	root.SetAttr("targets", fmt.Sprintf("%d", len(targets)))
	for _, id := range targets {
		span := d.Tracer.StartSpan("dispatch.deliver", source, root.Context())
		span.SetAttr("target", id)
		if cause := d.Collective.AdmitCommand(d.Admission, source, id, span.Context()); cause != "" {
			failed++
			span.SetAttr("result", "shed")
			span.SetAttr("cause", cause)
			span.Finish()
			continue
		}
		tev := ev
		if sc := span.Context(); sc.Valid() {
			tev.Labels = telemetry.Inject(sc, cloneLabels(ev.Labels))
		}
		msg := network.Message{From: source, To: id, Topic: "command", Payload: tev}
		err := d.Deadline.Run(func() error { return d.Sender.Send(msg) })
		if err != nil {
			failed++
			d.Metrics.Counter("dispatch.failed").Inc()
			span.SetAttr("result", "failed")
			span.SetAttr("error", err.Error())
			span.Finish()
			continue
		}
		sent++
		d.Metrics.Counter("dispatch.sent").Inc()
		span.SetAttr("result", "sent")
		span.Finish()
	}
	root.Finish()
	return sent, failed
}
