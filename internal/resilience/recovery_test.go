package resilience

import (
	"errors"
	"testing"

	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/statespace"
)

func newTestDevice(t *testing.T, log *audit.Log) *device.Device {
	t.Helper()
	schema := statespace.MustSchema(
		statespace.Var("heat", 0, 100),
		statespace.Var("fuel", 0, 100),
	)
	initial, err := schema.StateFromMap(map[string]float64{"heat": 20, "fuel": 90})
	if err != nil {
		t.Fatalf("initial state: %v", err)
	}
	d, err := device.New(device.Config{ID: "d1", Type: "drone", Initial: initial, Audit: log})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	policies, err := policylang.CompileSource(
		"policy work: on tick do run effect heat += 15", policy.OriginHuman)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	for i := range policies {
		policies[i].Origin = policy.OriginGenerated // provenance must survive recovery
		if err := d.Policies().Add(policies[i]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return d
}

func TestCheckpointAndRecover(t *testing.T) {
	log := audit.New()
	d := newTestDevice(t, log)
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if err := Checkpoint(log, d); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	restored, err := Recover(log, "d1", device.Config{Type: "drone"})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if restored.ID() != "d1" {
		t.Errorf("ID = %q", restored.ID())
	}
	if got := restored.CurrentState().MustGet("heat"); got != 35 {
		t.Errorf("restored heat = %g, want 35", got)
	}
	if got := restored.CurrentState().MustGet("fuel"); got != 90 {
		t.Errorf("restored fuel = %g, want 90", got)
	}
	p, ok := restored.Policies().Get("work")
	if !ok {
		t.Fatal("policy not restored")
	}
	if p.Origin != policy.OriginGenerated {
		t.Errorf("origin = %v, want generated", p.Origin)
	}
	// The restored device keeps working under the recovered policy.
	execs, err := restored.HandleEvent(policy.Event{Type: "tick"})
	if err != nil || len(execs) != 1 || !execs[0].Executed() {
		t.Fatalf("restored device tick: execs=%v err=%v", execs, err)
	}
	if got := restored.CurrentState().MustGet("heat"); got != 50 {
		t.Errorf("post-restore heat = %g, want 50", got)
	}
}

func TestRecoverUsesLatestCheckpoint(t *testing.T) {
	log := audit.New()
	d := newTestDevice(t, log)
	if err := Checkpoint(log, d); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := d.HandleEvent(policy.Event{Type: "tick"}); err != nil {
		t.Fatalf("HandleEvent: %v", err)
	}
	if err := Checkpoint(log, d); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	snap, err := LatestSnapshot(log, "d1")
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if got := snap.State.MustGet("heat"); got != 35 {
		t.Errorf("latest snapshot heat = %g, want 35", got)
	}
}

func TestRecoverRefusesTamperedJournal(t *testing.T) {
	log := audit.New()
	d := newTestDevice(t, log)
	if err := Checkpoint(log, d); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// A forged entry in an exported journal must block recovery, even
	// though the checkpoint itself decodes fine.
	entries := log.Entries()
	if _, err := SnapshotFromEntries(entries, "d1"); err != nil {
		t.Fatalf("clean export refused: %v", err)
	}
	entries[0].Detail = "forged"
	if _, err := SnapshotFromEntries(entries, "d1"); !errors.Is(err, audit.ErrChainBroken) {
		t.Errorf("tampered export: err = %v, want chain broken", err)
	}
}

func TestRecoverUnknownDevice(t *testing.T) {
	log := audit.New()
	if _, err := LatestSnapshot(log, "ghost"); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("err = %v, want ErrNoCheckpoint", err)
	}
}

// TestLatestSnapshotAllocsFlat: recovery decodes the one checkpoint
// the journal indexes, so it allocates the same on a 400k-entry
// journal as on a 4k one (the chain walk of Verify allocates nothing).
func TestLatestSnapshotAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		log := audit.New()
		d := newTestDevice(t, log)
		for i := 0; i < n; i++ {
			log.Append(audit.KindAction, "noise", "tick", nil)
			if i == n/2 {
				if err := Checkpoint(log, d); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := LatestSnapshot(log, "d1"); err != nil {
				t.Fatalf("LatestSnapshot: %v", err)
			}
		})
	}
	if small, large := allocs(4_000), allocs(400_000); small != large {
		t.Errorf("LatestSnapshot allocs/run: %v on 4k entries, %v on 400k", small, large)
	}
}
