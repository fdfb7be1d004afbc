package experiments

import (
	"os"
	"testing"
	"time"
)

// TestE18PinnedJournal pins the serial 120-device fleet's journal
// length, tip hash and final heat sum. The pins were recorded when a
// boxed allocation-per-transition path still existed beside the arena
// scratch path and both produced exactly these values, so the compact
// fleet stays held to the original transition semantics.
func TestE18PinnedJournal(t *testing.T) {
	pins := []struct {
		seed    int64
		entries int
		tip     string
		heatSum float64
	}{
		{1, 994, "8f43185196e670e4b6f39942ae68a0fe5b91ea384d57e2ea23f4b47720fa51af", 6638},
		{5, 1002, "1b6f2d813e6621ed570dd4330b4b68bd43d08608ec6c40ecc18c78ceeb208ae0", 6586},
	}
	for _, pin := range pins {
		out, err := RunE18Workers(E18Params{Seed: pin.seed, Fleet: 120, Horizon: 20 * time.Second}, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", pin.seed, err)
		}
		if out.JournalLen != pin.entries || out.TipHash != pin.tip {
			t.Errorf("seed %d: journal %d/%s, want %d/%s",
				pin.seed, out.JournalLen, out.TipHash, pin.entries, pin.tip)
		}
		if out.HeatSum != pin.heatSum {
			t.Errorf("seed %d: heat sum %g, want %g", pin.seed, out.HeatSum, pin.heatSum)
		}
	}
}

// TestE18Determinism checks worker-count independence on a small
// compact fleet (the full 10^5 gate is TestE18Megafleet100k).
func TestE18Determinism(t *testing.T) {
	p := E18Params{Seed: 3, Fleet: 100, Horizon: 15 * time.Second}
	base, err := RunE18Workers(p, 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 4} {
		out, err := RunE18Workers(p, workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if out.TipHash != base.TipHash || out.JournalLen != base.JournalLen || out.HeatSum != base.HeatSum {
			t.Errorf("workers %d: journal %d/%s heat %g, want %d/%s heat %g",
				workers, out.JournalLen, out.TipHash[:12], out.HeatSum,
				base.JournalLen, base.TipHash[:12], base.HeatSum)
		}
	}
}

// TestE18Result smoke-tests the table runner.
func TestE18Result(t *testing.T) {
	r, err := RunE18(E18Params{Fleet: 60, Horizon: 10 * time.Second, Workers: []int{1, 2}})
	if err != nil {
		t.Fatalf("RunE18: %v", err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	for _, row := range r.Rows[1:] {
		if row[len(row)-1] != "yes" {
			t.Errorf("row not identical to baseline: %v", row)
		}
	}
}

// TestE18Megafleet100k is the headline gate: a 100000-device fleet run
// at 1, 2 and 4 workers must produce byte-identical journals. It costs
// minutes and real memory, so it runs only under `make bench-megafleet`
// (E18_MEGAFLEET=1).
func TestE18Megafleet100k(t *testing.T) {
	if os.Getenv("E18_MEGAFLEET") == "" {
		t.Skip("set E18_MEGAFLEET=1 (make bench-megafleet) to run the 10^5-device differential")
	}
	p := E18Params{Seed: 1, Fleet: 100000, Horizon: 10 * time.Second}
	base, err := RunE18Workers(p, 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	t.Logf("workers=1 wall=%v allocMB=%.1f journal=%d actions=%d denials=%d tip=%s",
		base.Wall, base.AllocMB, base.JournalLen, base.Actions, base.Denials, base.TipHash[:12])
	if base.Actions == 0 || base.Denials == 0 {
		t.Fatalf("degenerate run (actions=%d denials=%d)", base.Actions, base.Denials)
	}
	for _, workers := range []int{2, 4} {
		out, err := RunE18Workers(p, workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		t.Logf("workers=%d wall=%v allocMB=%.1f journal=%d tip=%s",
			workers, out.Wall, out.AllocMB, out.JournalLen, out.TipHash[:12])
		if out.TipHash != base.TipHash || out.JournalLen != base.JournalLen || out.HeatSum != base.HeatSum {
			t.Errorf("workers %d: journal %d/%s heat %g, want %d/%s heat %g",
				workers, out.JournalLen, out.TipHash[:12], out.HeatSum,
				base.JournalLen, base.TipHash[:12], base.HeatSum)
		}
	}
}

// TestE18Megafleet1M is the 10^6-device smoke: two MAPE ticks across a
// million devices with the journal disabled (the journal, not the
// fleet, would dominate memory). Gated like the 100k differential.
func TestE18Megafleet1M(t *testing.T) {
	if os.Getenv("E18_MEGAFLEET_1M") == "" {
		t.Skip("set E18_MEGAFLEET_1M=1 (make bench-megafleet) to run the 10^6-device smoke")
	}
	p := E18Params{Seed: 1, Fleet: 1000000, Horizon: 2 * time.Second, NoAudit: true}
	out, err := RunE18Workers(p, 4)
	if err != nil {
		t.Fatalf("1M smoke: %v", err)
	}
	t.Logf("fleet=1000000 workers=4 wall=%v allocMB=%.1f heatSum=%.0f", out.Wall, out.AllocMB, out.HeatSum)
	if out.HeatSum <= 0 {
		t.Errorf("degenerate heat sum %g", out.HeatSum)
	}
}
