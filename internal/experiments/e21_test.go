package experiments

import (
	"testing"
)

// TestE21CoalitionGate runs the full acceptance gate: per-root
// convergence under loss + symmetric + asymmetric partitions, exact
// cross-boundary refusal books, forged-report accounting, and
// byte-identical journal plus both per-root ledgers across worker
// counts (RunE21 enforces all of it internally).
func TestE21CoalitionGate(t *testing.T) {
	res, err := RunE21(E21Params{Seed: 1})
	if err != nil {
		t.Fatalf("RunE21: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (workers 1, 2, 4)", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[3] != "true" {
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

// TestE21ChaosPathsExercised asserts the schedule drives the machinery
// it claims to test: repairs happened on both roots' behalf, both the
// full and delta activation paths ran, and both per-root ledgers hold
// hash-chained history. It also pins the journal and both ledgers,
// recorded while E21 still built its own world: the determinism gate
// compares worker counts only with each other, so a change to the
// shared rig that moved every worker count alike would pass it.
func TestE21ChaosPathsExercised(t *testing.T) {
	out, err := RunE21Workers(E21Params{Seed: 1}, 1)
	if err != nil {
		t.Fatalf("RunE21Workers: %v", err)
	}
	pins := []struct {
		name    string
		gotLen  int
		gotTip  string
		wantLen int
		wantTip string
	}{
		{"journal", out.JournalLen, out.JournalTip, 87, "10a3fd1d38421f1dd7a35a7037981c6db9c65c8d4cc7817f7063605ab27db31e"},
		{"us ledger", out.LedgerLenUS, out.LedgerTipUS, 35, "0ce837faebdd127603d92c36c2350b00c472515670acb5e6edd42a4c7d74db9d"},
		{"uk ledger", out.LedgerLenUK, out.LedgerTipUK, 22, "4d9e472de02abe5acb7c499c95df44b1e2ee41e2220114db86a6d65ff78907c6"},
	}
	for _, pin := range pins {
		if pin.gotLen != pin.wantLen || pin.gotTip != pin.wantTip {
			t.Errorf("%s %d/%s, want %d/%s", pin.name, pin.gotLen, pin.gotTip, pin.wantLen, pin.wantTip)
		}
	}
	if out.Repairs == 0 {
		t.Error("no repair pushes — chaos windows did not create lag")
	}
	if out.ActivatedFull == 0 || out.ActivatedDelta == 0 {
		t.Errorf("activation mix full=%d delta=%d — both paths must run",
			out.ActivatedFull, out.ActivatedDelta)
	}
	if out.LedgerLenUS == 0 || out.LedgerTipUS == "" || out.LedgerLenUK == 0 || out.LedgerTipUK == "" {
		t.Errorf("per-root ledgers incomplete: us len=%d tip=%q, uk len=%d tip=%q",
			out.LedgerLenUS, out.LedgerTipUS, out.LedgerLenUK, out.LedgerTipUK)
	}
	if out.LedgerTipUS == out.LedgerTipUK {
		t.Error("both root ledgers share a tip hash — segments not independent")
	}
}

// TestE21SeedVariation guards against a schedule that only works at
// one fault sampling: different seeds must still converge with the
// same exact refusal books.
func TestE21SeedVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in full mode only")
	}
	for _, seed := range []int64{2, 7, 13} {
		if _, err := RunE21(E21Params{Seed: seed, Workers: []int{1, 2}}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
