package experiments

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/network"
)

// E17Params configures the bundle-distribution experiment: a fleet
// receiving a stream of signed policy revisions from one default root
// on the distribution-chaos rig, plus a burst of corrupted pushes that
// must all be refused.
type E17Params struct {
	// Seed drives the bus fault sampling.
	Seed int64
	// Workers are the engine parallelism levels to compare; the first
	// must be 1 (the serial baseline).
	Workers []int
}

func (p *E17Params) defaults() {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4}
	}
}

// E17's world on the rig: one default root publishing e17Revisions
// revisions of e17Policies policies to e17Fleet devices.
const (
	e17Fleet     = 8
	e17Revisions = 10
	e17Policies  = 8
	// e17Corruptions tampered pushes are injected, half rogue-signed
	// and half undecodable.
	e17Corruptions = 6
)

// E17Outcome is one configuration's exact books: distribution
// accounting, fail-closed accounting, byte costs, and the digests the
// determinism gate compares across worker counts.
type E17Outcome struct {
	Workers        int
	FinalRevision  uint64
	Converged      bool
	DevicesOnFinal int
	ActivatedFull  int64
	ActivatedDelta int64
	RejectedSig    int64
	RejectedDecode int64
	RejectedGap    int64
	RejectedOther  int64
	AuditedCorrupt int
	Pushes         int64
	Acks           int64
	Repairs        int64
	Pulls          int64
	BytesFull      int64
	BytesDelta     int64
	JournalLen     int
	JournalTip     string
	LedgerLen      int
	LedgerTip      string
}

// RunE17Workers runs the distribution plane through the chaos schedule
// at one parallelism level and returns the exact outcome.
func RunE17Workers(p E17Params, workers int) (E17Outcome, error) {
	p.defaults()
	key := bundle.HMACKey{ID: "fleet-key", Secret: []byte("e17 shared secret")}
	rig, err := newBundleRig(rigConfig{
		name:     "e17",
		roots:    []rigRoot{{key: key, revisions: e17Revisions}},
		perRoot:  e17Fleet,
		policies: e17Policies,
		verifier: key,
	}, p.Seed, workers)
	if err != nil {
		return E17Outcome{}, err
	}

	// Corrupted pushes after the fault windows heal, alternately
	// rogue-signed (wrong key) and undecodable bytes. None may
	// activate; every one must be audited.
	rogue := bundle.NewPublisher(bundle.HMACKey{ID: "rogue", Secret: []byte("stolen-ish")})
	roguePols, err := rigRevision("", e17Policies, 999)
	if err != nil {
		return E17Outcome{}, err
	}
	rogueFull, _, err := rogue.Publish(roguePols)
	if err != nil {
		return E17Outcome{}, err
	}
	rogueBytes, err := bundle.Encode(rogueFull)
	if err != nil {
		return E17Outcome{}, err
	}
	deviceIDs := rig.devices[""]
	sends := make([]rigSend, e17Corruptions)
	for i := range sends {
		payload := rogueBytes
		if i%2 == 1 {
			payload = []byte("!! not a bundle !!")
		}
		sends[i] = rigSend{
			at: 300*time.Millisecond + time.Duration(i)*7*time.Millisecond,
			msg: network.Message{
				From: "attacker", To: deviceIDs[i%len(deviceIDs)],
				Topic: core.TopicBundle, Payload: payload,
			},
		}
	}
	if err := rig.run(sends); err != nil {
		return E17Outcome{}, err
	}

	dist, log, reg, ledger := rig.dist, rig.log, rig.reg, rig.dist.RootLedger("")
	out := E17Outcome{
		Workers:        workers,
		FinalRevision:  dist.RootRevision(""),
		Converged:      dist.Converged(),
		ActivatedFull:  reg.Counter("bundle.activated", "kind", "full").Value(),
		ActivatedDelta: reg.Counter("bundle.activated", "kind", "delta").Value(),
		RejectedSig:    reg.Counter("bundle.rejected", "cause", "signature").Value(),
		RejectedDecode: reg.Counter("bundle.rejected", "cause", "decode").Value(),
		RejectedGap:    reg.Counter("bundle.rejected", "cause", "gap").Value(),
		Pushes:         reg.Counter("bundle.pushed").Value(),
		Acks:           reg.Counter("bundle.acked").Value(),
		Repairs:        reg.Counter("bundle.repairs").Value(),
		Pulls:          reg.Counter("bundle.pulls").Value(),
		BytesFull:      reg.Counter("bundle.bytes_on_wire", "kind", "full").Value(),
		BytesDelta:     reg.Counter("bundle.bytes_on_wire", "kind", "delta").Value(),
		JournalLen:     log.Len(),
		JournalTip:     tipOf(log),
		LedgerLen:      ledger.Len(),
		LedgerTip:      tipOf(ledger),
	}
	out.RejectedOther = reg.CounterTotal("bundle.rejected") -
		out.RejectedSig - out.RejectedDecode - out.RejectedGap
	for _, id := range deviceIDs {
		d, _ := rig.collective.Device(id)
		if d.Policies().Revision() == out.FinalRevision {
			out.DevicesOnFinal++
		}
	}
	for _, e := range log.ByKind(audit.KindBundle) {
		if e.Detail == "bundle.rejected" &&
			(e.Context["cause"] == "signature" || e.Context["cause"] == "decode") {
			out.AuditedCorrupt++
		}
	}
	return out, nil
}

// RunE17 proves the distribution plane's robustness claims: 100% fleet
// convergence to the final signed revision under 30% loss plus
// symmetric and asymmetric partition windows; zero corrupted bundles
// activated (fail-closed count equals the injection count, every one
// audited); deltas measurably cheaper than fulls on the wire; and
// byte-identical audit journal and activation ledger at every engine
// parallelism.
func RunE17(p E17Params) (Result, error) {
	p.defaults()
	result := Result{
		ID:    "E17",
		Title: "Signed bundle distribution: fail-closed activation under chaos",
		Headers: []string{"workers", "rev", "converged", "act_full", "act_delta",
			"rej_sig", "rej_dec", "rej_gap", "repairs", "pulls", "tip", "identical"},
	}
	var base E17Outcome
	for i, workers := range p.Workers {
		out, err := RunE17Workers(p, workers)
		if err != nil {
			return Result{}, err
		}
		if !out.Converged || out.DevicesOnFinal != e17Fleet {
			return Result{}, fmt.Errorf("e17: fleet not converged at workers=%d: %d/%d devices on revision %d",
				workers, out.DevicesOnFinal, e17Fleet, out.FinalRevision)
		}
		if got := out.RejectedSig + out.RejectedDecode; got != e17Corruptions {
			return Result{}, fmt.Errorf("e17: fail-closed count %d != injected corruptions %d (workers=%d)",
				got, e17Corruptions, workers)
		}
		if out.AuditedCorrupt != e17Corruptions {
			return Result{}, fmt.Errorf("e17: %d corruption rejections audited, want %d",
				out.AuditedCorrupt, e17Corruptions)
		}
		if out.RejectedOther != 0 {
			return Result{}, fmt.Errorf("e17: unexpected rejection causes (count %d) beyond signature/decode/gap",
				out.RejectedOther)
		}
		if out.ActivatedDelta == 0 || out.BytesDelta == 0 {
			return Result{}, fmt.Errorf("e17: no delta activations measured — delta path untested")
		}
		if i == 0 {
			base = out
		}
		norm := out
		norm.Workers = base.Workers
		result.Rows = append(result.Rows, []string{
			itoa(workers), itoa(int(out.FinalRevision)), fmt.Sprint(out.Converged),
			itoa(int(out.ActivatedFull)), itoa(int(out.ActivatedDelta)),
			itoa(int(out.RejectedSig)), itoa(int(out.RejectedDecode)), itoa(int(out.RejectedGap)),
			itoa(int(out.Repairs)), itoa(int(out.Pulls)), shortTip(out.JournalTip),
			identical(i, norm == base),
		})
	}
	// The byte-cost claim, measured on a representative revision step:
	// one full bundle vs the delta for the same two-policy change.
	fullLen, deltaLen, err := e17WireCost()
	if err != nil {
		return Result{}, err
	}
	if deltaLen >= fullLen {
		return Result{}, fmt.Errorf("e17: delta bundle (%d B) not smaller than full (%d B)", deltaLen, fullLen)
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("fleet=%d revisions=%d (%d policies each) published every %v; %s",
			e17Fleet, e17Revisions, e17Policies, rigPublishEvery, rigChaosWindows()),
		fmt.Sprintf("convergence: %d/%d devices on the final signed revision; anti-entropy used %d repair pushes and %d pull repairs",
			e17Fleet, e17Fleet, base.Repairs, base.Pulls),
		fmt.Sprintf("fail-closed: %d corrupted pushes injected (rogue-signed + undecodable), %d rejected, %d activated; every rejection audited with its cause",
			e17Corruptions, base.RejectedSig+base.RejectedDecode, 0),
		fmt.Sprintf("wire cost: representative revision step is %d B as a delta vs %d B as a full bundle (%.0f%% saved; deltas carry only changed policies plus the coverage map); on-wire totals: full %d B, delta %d B",
			deltaLen, fullLen, 100*(1-float64(deltaLen)/float64(fullLen)), base.BytesFull, base.BytesDelta),
		"equal tip hashes over equal lengths = byte-identical audit journal AND activation ledger at every parallelism")
	return result, nil
}

// e17WireCost encodes one revision step both ways and returns the
// encoded sizes (full, delta).
func e17WireCost() (int, int, error) {
	pub := bundle.NewPublisher(bundle.HMACKey{ID: "probe", Secret: []byte("probe")})
	for rev := 1; rev <= 2; rev++ {
		pols, err := rigRevision("", e17Policies, rev)
		if err != nil {
			return 0, 0, err
		}
		if _, _, err := pub.Publish(pols); err != nil {
			return 0, 0, err
		}
	}
	full, err := pub.Full()
	if err != nil {
		return 0, 0, err
	}
	delta, ok := pub.DeltaFrom(1)
	if !ok {
		return 0, 0, fmt.Errorf("e17: probe delta unavailable")
	}
	fullBytes, err := bundle.Encode(full)
	if err != nil {
		return 0, 0, err
	}
	deltaBytes, err := bundle.Encode(delta)
	if err != nil {
		return 0, 0, err
	}
	return len(fullBytes), len(deltaBytes), nil
}
