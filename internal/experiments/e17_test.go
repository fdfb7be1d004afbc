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
// already activated. It also pins the journal and ledger, recorded
// while E17 still built its own world: the determinism gate compares
// worker counts only with each other, so a change to the shared rig
// that moved every worker count alike would pass it.
func TestE17RepairPathsExercised(t *testing.T) {
	out, err := RunE17Workers(E17Params{Seed: 1}, 1)
	if err != nil {
		t.Fatalf("RunE17Workers: %v", err)
	}
	const (
		journalLen = 91
		journalTip = "af0e990c3672ddb822e9348c9610945d82730cafc06ffecc0e13d8ae89f7533e"
		ledgerLen  = 66
		ledgerTip  = "1c4a02c73550ebae413fdaf070d1a944ef87e6849152d8e0cb875d6bb4affdb1"
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
