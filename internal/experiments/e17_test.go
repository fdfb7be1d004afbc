package experiments

import (
	"strings"
	"testing"
)

// TestE17Converges runs the full acceptance gate: convergence under
// loss + symmetric + asymmetric partitions, exact fail-closed
// accounting, delta savings, and byte-identical journals across worker
// counts (RunE17 enforces all of it internally).
func TestE17Converges(t *testing.T) {
	res, err := RunE17(E17Params{Seed: 1})
	if err != nil {
		t.Fatalf("RunE17: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (workers 1, 2, 4)", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[2] != "true" {
			t.Errorf("row %d not converged: %v", i, row)
		}
		want := "yes"
		if i == 0 {
			want = "baseline"
		}
		if row[len(row)-1] != want {
			t.Errorf("row %d determinism column = %q, want %q", i, row[len(row)-1], want)
		}
	}
}

// TestE17RepairPathsExercised asserts the chaos schedule actually
// drives the anti-entropy machinery: repair pushes happen, and the
// one-way window forces the distributor to re-push to devices that
// already activated. It also pins the journal and ledger: the
// determinism gate compares worker counts only with each other, so a
// change to the shared rig that moved every worker count alike would
// pass it. A change to how the bus draws faults moves these pins by
// design while the worker-count differential keeps passing.
func TestE17RepairPathsExercised(t *testing.T) {
	out, err := RunE17Workers(E17Params{Seed: 1}, 1)
	if err != nil {
		t.Fatalf("RunE17Workers: %v", err)
	}
	const (
		journalLen = 93
		journalTip = "a1630e4f7c4893b43720ad8e060b2984f0303f06943cd64d7cdc18a847ec634e"
		ledgerLen  = 72
		ledgerTip  = "617a58dc9406198870ce54db9acbdaa31ac924780cb9b46b9f7a4b9b8190483b"
	)
	if out.JournalLen != journalLen || out.JournalTip != journalTip {
		t.Errorf("journal %d/%s, want %d/%s", out.JournalLen, out.JournalTip, journalLen, journalTip)
	}
	if out.LedgerLen != ledgerLen || out.LedgerTip != ledgerTip {
		t.Errorf("ledger %d/%s, want %d/%s", out.LedgerLen, out.LedgerTip, ledgerLen, ledgerTip)
	}
	if out.Repairs == 0 {
		t.Error("no repair pushes — chaos windows did not create lag")
	}
	if out.ActivatedFull == 0 || out.ActivatedDelta == 0 {
		t.Errorf("activation mix full=%d delta=%d — both paths must run",
			out.ActivatedFull, out.ActivatedDelta)
	}
	if out.LedgerLen == 0 || out.LedgerTip == "" {
		t.Error("activation ledger empty")
	}
}

// TestE17SeedVariation guards against a schedule that only works at
// one fault sampling: different seeds must still converge fail-closed.
func TestE17SeedVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in full mode only")
	}
	for _, seed := range []int64{2, 3} {
		out, err := RunE17Workers(E17Params{Seed: seed}, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.Converged {
			t.Errorf("seed %d: fleet did not converge", seed)
		}
		if got := out.RejectedSig + out.RejectedDecode; got != 6 {
			t.Errorf("seed %d: fail-closed count %d, want 6", seed, got)
		}
	}
}

// TestE17TableShape sanity-checks the rendered result.
func TestE17TableShape(t *testing.T) {
	res, err := RunE17(E17Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	for _, want := range []string{"E17", "converged", "rej_sig", "identical"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
