package experiments

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/network"
)

// E21Params configures the coalition distribution experiment: two
// organizations share one fleet and one bus on the distribution-chaos
// rig, each org's devices follow their own signed revision stream (a
// disjoint org root), and a compromised-key attacker tries to break
// isolation between the two trust boundaries.
type E21Params struct {
	// Seed drives the bus fault sampling.
	Seed int64
	// Workers are the engine parallelism levels to compare; the first
	// must be 1 (the serial baseline).
	Workers []int
}

func (p *E21Params) defaults() {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4}
	}
}

// E21's world on the rig: two org roots over e21FleetPerOrg devices
// each, publishing revision streams of different lengths so stream
// independence is observable.
const (
	e21FleetPerOrg = 4
	e21RevisionsUS = 10
	e21RevisionsUK = 7
	e21Policies    = 6
	// e21Attacks cross-boundary pushes are signed with the compromised
	// us key, half namespace smuggles and half foreign-root claims.
	e21Attacks = 6
)

// E21Outcome is one configuration's exact books: per-root convergence,
// cross-boundary refusal accounting, forged-report accounting, and the
// digests the determinism gate compares across worker counts.
type E21Outcome struct {
	Workers       int
	RevUS         uint64
	RevUK         uint64
	Converged     bool
	OnFinalUS     int
	OnFinalUK     int
	CrossActive   int // devices holding any foreign-org revision (must be 0)
	ForgedAckedUS uint64

	ActivatedFull  int64
	ActivatedDelta int64
	RejectedScope  int64
	RejectedGap    int64
	RejectedOther  int64
	ScopeRejUS     int64
	ScopeRejUK     int64
	ForgedAcks     int64
	ForgedPulls    int64
	AuditedScope   int
	AuditedForged  int

	Pushes     int64
	Acks       int64
	Repairs    int64
	Pulls      int64
	BytesFull  int64
	BytesDelta int64

	JournalLen  int
	JournalTip  string
	LedgerLenUS int
	LedgerTipUS string
	LedgerLenUK int
	LedgerTipUK string
}

// e21Keys returns the two org signing keys.
func e21Keys() (us, uk bundle.HMACKey) {
	return bundle.HMACKey{ID: "us-root", Secret: []byte("e21 us signing secret")},
		bundle.HMACKey{ID: "uk-root", Secret: []byte("e21 uk signing secret")}
}

// e21AttackCorpus builds the compromised-key attack corpus: the us
// signing key (assumed stolen) is used to (a) smuggle uk-namespace
// records under a us manifest and (b) claim the uk root outright. Both
// are validly signed; only scope checking can refuse them.
func e21AttackCorpus() (smuggle, claim []byte, err error) {
	usKey, _ := e21Keys()
	foreign, err := rigRevision("uk", e21Policies, 999)
	if err != nil {
		return nil, nil, err
	}

	// (a) Namespace smuggle: manifest org "us", records in "uk.*".
	aPub := bundle.NewOrgPublisher(usKey, "us")
	aFull, _, err := aPub.Publish(foreign)
	if err != nil {
		return nil, nil, err
	}
	smuggle, err = bundle.Encode(aFull)
	if err != nil {
		return nil, nil, err
	}

	// (b) Root claim: same records, manifest re-labelled org "uk",
	// re-rooted and re-signed — internally consistent, wrong key scope.
	bPub := bundle.NewOrgPublisher(usKey, "us")
	bFull, _, err := bPub.Publish(foreign)
	if err != nil {
		return nil, nil, err
	}
	bFull.Manifest.Org = "uk"
	bFull.Manifest.Root = bundle.ComputeRoot(bFull.Manifest)
	bFull.SignWith(usKey)
	claim, err = bundle.Encode(bFull)
	if err != nil {
		return nil, nil, err
	}
	return smuggle, claim, nil
}

// RunE21Workers runs the coalition distribution plane through the
// chaos-plus-attack schedule at one parallelism level and returns the
// exact outcome.
func RunE21Workers(p E21Params, workers int) (E21Outcome, error) {
	p.defaults()
	// Every device holds the full coalition keyring — both org keys,
	// each scoped to its own root — but subscribes only to its own
	// org's revision stream. The ring is what makes the attack corpus
	// interesting: the stolen us key *verifies* everywhere, and only
	// its scope stops it.
	usKey, ukKey := e21Keys()
	ring := bundle.NewKeyRing().
		Add(usKey.ID, usKey, bundle.Scope{Org: "us"}).
		Add(ukKey.ID, ukKey, bundle.Scope{Org: "uk"})
	rig, err := newBundleRig(rigConfig{
		name: "e21",
		roots: []rigRoot{
			{org: "us", key: usKey, revisions: e21RevisionsUS},
			{org: "uk", key: ukKey, revisions: e21RevisionsUK},
		},
		perRoot:  e21FleetPerOrg,
		policies: e21Policies,
		verifier: ring,
	}, p.Seed, workers)
	if err != nil {
		return E21Outcome{}, err
	}
	us, uk := rig.devices["us"], rig.devices["uk"]

	// The compromised-key attack, after the chaos windows heal:
	// alternately a namespace smuggle pushed at a us device (manifest
	// org "us", records "uk.*") and a root claim pushed at a uk device
	// (manifest org "uk", signed by the us key). Every one is validly
	// signed; none may activate.
	smuggle, claim, err := e21AttackCorpus()
	if err != nil {
		return E21Outcome{}, err
	}
	var sends []rigSend
	for i := 0; i < e21Attacks; i++ {
		payload, to := smuggle, us[i/2%e21FleetPerOrg]
		if i%2 == 1 {
			payload, to = claim, uk[i/2%e21FleetPerOrg]
		}
		sends = append(sends, rigSend{
			at:  320*time.Millisecond + time.Duration(i)*7*time.Millisecond,
			msg: network.Message{From: "attacker", To: to, Topic: core.TopicBundle, Payload: payload},
		})
	}
	// Forged status reports from the attacker node: an ack claiming
	// us-00 already holds revision 999 (which would mask it from
	// repair), and a pull claiming uk-00 needs a full re-push. Both
	// must be dropped, counted and audited — the claimed devices'
	// ledger standing must come only from their own reports.
	sends = append(sends,
		rigSend{at: 300 * time.Millisecond, msg: network.Message{
			From: "attacker", To: "bundle-distributor", Topic: core.TopicBundleAck,
			Payload: core.BundleAck{Device: us[0], Org: "us", Revision: 999, Applied: true},
		}},
		rigSend{at: 307 * time.Millisecond, msg: network.Message{
			From: "attacker", To: "bundle-distributor", Topic: core.TopicBundlePull,
			Payload: core.BundlePull{Device: uk[0], Org: "uk", Have: 0},
		}})
	if err := rig.run(sends); err != nil {
		return E21Outcome{}, err
	}

	dist, log, reg := rig.dist, rig.log, rig.reg
	ledgerUS, ledgerUK := dist.RootLedger("us"), dist.RootLedger("uk")
	out := E21Outcome{
		Workers:        workers,
		RevUS:          dist.RootRevision("us"),
		RevUK:          dist.RootRevision("uk"),
		Converged:      dist.Converged(),
		ForgedAckedUS:  dist.AckedRevisionRoot("us", us[0]),
		ActivatedFull:  reg.Counter("bundle.activated", "kind", "full").Value(),
		ActivatedDelta: reg.Counter("bundle.activated", "kind", "delta").Value(),
		RejectedScope:  reg.Counter("bundle.rejected", "cause", "scope").Value(),
		RejectedGap:    reg.Counter("bundle.rejected", "cause", "gap").Value(),
		ScopeRejUS:     reg.Counter("bundle.scope_rejected", "root", "us").Value(),
		ScopeRejUK:     reg.Counter("bundle.scope_rejected", "root", "uk").Value(),
		ForgedAcks:     reg.Counter("bundle.forged_report", "topic", core.TopicBundleAck).Value(),
		ForgedPulls:    reg.Counter("bundle.forged_report", "topic", core.TopicBundlePull).Value(),
		Pushes:         reg.Counter("bundle.pushed").Value(),
		Acks:           reg.Counter("bundle.acked").Value(),
		Repairs:        reg.Counter("bundle.repairs").Value(),
		Pulls:          reg.Counter("bundle.pulls").Value(),
		BytesFull:      reg.Counter("bundle.bytes_on_wire", "kind", "full").Value(),
		BytesDelta:     reg.Counter("bundle.bytes_on_wire", "kind", "delta").Value(),
		JournalLen:     log.Len(),
		JournalTip:     tipOf(log),
		LedgerLenUS:    ledgerUS.Len(),
		LedgerTipUS:    tipOf(ledgerUS),
		LedgerLenUK:    ledgerUK.Len(),
		LedgerTipUK:    tipOf(ledgerUK),
	}
	out.RejectedOther = reg.CounterTotal("bundle.rejected") -
		out.RejectedScope - out.RejectedGap -
		reg.Counter("bundle.rejected", "cause", "signature").Value() -
		reg.Counter("bundle.rejected", "cause", "decode").Value()
	finals := map[string]uint64{"us": out.RevUS, "uk": out.RevUK}
	onFinal := make(map[string]int, len(finals))
	for org, ids := range rig.devices {
		for _, id := range ids {
			d, _ := rig.collective.Device(id)
			set := d.Policies()
			if set.OrgRevision(org) == finals[org] {
				onFinal[org]++
			}
			for other := range finals {
				if other != org && set.OrgRevision(other) != 0 {
					out.CrossActive++
				}
			}
		}
	}
	out.OnFinalUS, out.OnFinalUK = onFinal["us"], onFinal["uk"]
	for _, e := range log.ByKind(audit.KindBundle) {
		switch e.Detail {
		case "bundle.rejected":
			if e.Context["cause"] == "scope" {
				out.AuditedScope++
			}
		case "bundle.forged_report":
			out.AuditedForged++
		}
	}
	return out, nil
}

// RunE21 proves the coalition trust-boundary claims: two disjoint org
// roots on one fleet and one bus each converge to their own published
// revision under 30% loss plus symmetric and one-way partition
// windows; every cross-boundary push signed with the stolen org key is
// refused with cause "scope" and exact books (injected == rejected ==
// audited, zero activated, zero foreign revisions on any device);
// forged acks and pulls from the attacker node are dropped, counted
// and inert; and the audit journal plus BOTH per-root activation
// ledgers are byte-identical at every engine parallelism, with the
// publish fan-out running as sharded batch events rather than a
// synchronous per-device loop.
func RunE21(p E21Params) (Result, error) {
	p.defaults()
	result := Result{
		ID:    "E21",
		Title: "Coalition roots: cross-boundary refusal and per-root convergence under chaos",
		Headers: []string{"workers", "rev_us", "rev_uk", "converged", "act_full", "act_delta",
			"rej_scope", "scope_us", "scope_uk", "forged", "repairs", "pulls", "identical"},
	}
	var base E21Outcome
	for i, workers := range p.Workers {
		out, err := RunE21Workers(p, workers)
		if err != nil {
			return Result{}, err
		}
		if !out.Converged || out.OnFinalUS != e21FleetPerOrg || out.OnFinalUK != e21FleetPerOrg {
			return Result{}, fmt.Errorf("e21: fleet not converged at workers=%d: us %d/%d on rev %d, uk %d/%d on rev %d",
				workers, out.OnFinalUS, e21FleetPerOrg, out.RevUS, out.OnFinalUK, e21FleetPerOrg, out.RevUK)
		}
		if out.RevUS == out.RevUK {
			return Result{}, fmt.Errorf("e21: roots ended on the same revision (%d) — stream independence not demonstrated", out.RevUS)
		}
		if out.CrossActive != 0 {
			return Result{}, fmt.Errorf("e21: %d devices hold a foreign org's revision — trust boundary breached", out.CrossActive)
		}
		if out.RejectedScope != e21Attacks {
			return Result{}, fmt.Errorf("e21: scope refusals %d != injected attacks %d (workers=%d)",
				out.RejectedScope, e21Attacks, workers)
		}
		if out.AuditedScope != e21Attacks {
			return Result{}, fmt.Errorf("e21: %d scope refusals audited, want %d", out.AuditedScope, e21Attacks)
		}
		if want := int64(e21Attacks / 2); out.ScopeRejUS != want || out.ScopeRejUK != want {
			return Result{}, fmt.Errorf("e21: per-root scope refusals us=%d uk=%d, want %d each",
				out.ScopeRejUS, out.ScopeRejUK, want)
		}
		if out.RejectedOther != 0 {
			return Result{}, fmt.Errorf("e21: unexpected rejection causes (count %d) beyond scope/gap", out.RejectedOther)
		}
		if out.ForgedAcks != 1 || out.ForgedPulls != 1 || out.AuditedForged != 2 {
			return Result{}, fmt.Errorf("e21: forged-report books unbalanced: acks=%d pulls=%d audited=%d, want 1/1/2",
				out.ForgedAcks, out.ForgedPulls, out.AuditedForged)
		}
		if out.ForgedAckedUS != out.RevUS {
			return Result{}, fmt.Errorf("e21: us-00 acked revision %d (forged ack claimed 999, final is %d) — forged ack not inert",
				out.ForgedAckedUS, out.RevUS)
		}
		if out.ActivatedDelta == 0 || out.BytesDelta == 0 {
			return Result{}, fmt.Errorf("e21: no delta activations measured — delta path untested")
		}
		if i == 0 {
			base = out
		}
		norm := out
		norm.Workers = base.Workers
		result.Rows = append(result.Rows, []string{
			itoa(workers), itoa(int(out.RevUS)), itoa(int(out.RevUK)), fmt.Sprint(out.Converged),
			itoa(int(out.ActivatedFull)), itoa(int(out.ActivatedDelta)),
			itoa(int(out.RejectedScope)), itoa(int(out.ScopeRejUS)), itoa(int(out.ScopeRejUK)),
			itoa(int(out.ForgedAcks + out.ForgedPulls)), itoa(int(out.Repairs)), itoa(int(out.Pulls)),
			identical(i, norm == base),
		})
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("two org roots (us: %d revisions, uk: %d) over %d devices each, one bus; %s cutting half of each org",
			e21RevisionsUS, e21RevisionsUK, e21FleetPerOrg, rigChaosWindows()),
		fmt.Sprintf("convergence: every device on its own root's final revision (us %d, uk %d); 0 devices hold any foreign revision",
			base.RevUS, base.RevUK),
		fmt.Sprintf("compromised key: %d validly-signed cross-boundary pushes (namespace smuggles + root claims), %d refused with cause scope (us %d / uk %d), %d activated; every refusal audited",
			e21Attacks, base.RejectedScope, base.ScopeRejUS, base.ScopeRejUK, 0),
		fmt.Sprintf("forged reports: 1 ack (claiming us-00 at rev 999) + 1 pull dropped, counted and audited; us-00's ledger standing unaffected (acked %d)",
			base.ForgedAckedUS),
		fmt.Sprintf("fan-out ran as sharded batch events (batch=%d) sending through their lanes; equal tips over equal lengths = byte-identical journal AND both per-root ledgers at every parallelism",
			rigFanoutBatch))
	return result, nil
}
