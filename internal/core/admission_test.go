package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// TestDispatcherAdmissionShedsAreAccounted drives the dispatcher past
// a per-target rate limit and checks the collective's shared gate
// types the shed, counts it under core.command_shed, audits it with the
// delivery's trace ID, and keeps it off the bus.
func TestDispatcherAdmissionShedsAreAccounted(t *testing.T) {
	log := audit.New()
	reg := telemetry.NewRegistry()
	now := time.Unix(0, 0)
	ctrl, err := admission.New(admission.Config{
		Rate: 1, Burst: 1,
		Now:     func() time.Time { return now },
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	bus := network.NewBus(rand.New(rand.NewSource(1)), network.WithMetrics(reg))
	c := newCollective(t, func(cfg *Config) {
		cfg.Audit = log
		cfg.Bus = bus
		cfg.Telemetry = reg
	})
	s := coreSchema(t)
	initial, err := s.StateFromMap(map[string]float64{"heat": 10, "fuel": 50})
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(device.Config{
		ID: "d1", Type: "drone", Initial: initial,
		KillSwitch: c.KillSwitch(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatal(err)
	}

	dispatcher := &Dispatcher{
		Collective: c,
		Sender: &network.ReliableSender{
			Bus:   bus,
			Retry: resilience.Retry{MaxAttempts: 2, Sleep: func(time.Duration) {}},
		},
		Metrics:   reg,
		Tracer:    telemetry.NewTracer(),
		Admission: ctrl,
	}

	// Burst 1, frozen clock: the first command spends the only token,
	// the second is shed before it touches the bus.
	if sent, failed := dispatcher.Command(policy.Event{Type: "task"}); sent != 1 || failed != 0 {
		t.Fatalf("first command: sent=%d failed=%d", sent, failed)
	}
	if sent, failed := dispatcher.Command(policy.Event{Type: "task"}); sent != 0 || failed != 1 {
		t.Fatalf("second command: sent=%d failed=%d", sent, failed)
	}

	// The shed is typed and counted, and the bus never saw it.
	if got := reg.Counter("core.command_shed", "cause", "rate_limited").Value(); got != 1 {
		t.Errorf(`core.command_shed{cause="rate_limited"} = %d, want 1`, got)
	}
	if got := reg.Counter("bus.sent").Value(); got != 1 {
		t.Errorf("bus.sent = %d, want 1 (shed delivery must not reach the bus)", got)
	}

	// The decision is audited with target, cause, and the trace ID.
	entries := log.ByKind(audit.KindAdmission)
	if len(entries) != 1 {
		t.Fatalf("admission audit entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Context["target"] != "d1" || e.Context["cause"] != "rate_limited" {
		t.Errorf("audit context = %v", e.Context)
	}
	if !strings.Contains(e.Detail, "shed") {
		t.Errorf("audit detail = %q", e.Detail)
	}
	if e.Context["trace"] == "" {
		t.Error("shed audit entry carries no trace ID")
	}

	// The controller's own books balance.
	if err := ctrl.CheckConservation(); err != nil {
		t.Error(err)
	}
}
