package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// E17Params configures the bundle-distribution experiment: a fleet
// receiving a stream of signed policy revisions while chaos injects
// loss, a symmetric partition and an asymmetric (one-way) partition,
// plus a burst of corrupted pushes that must all be refused.
type E17Params struct {
	// Seed drives the bus fault sampling.
	Seed int64
	// Fleet is the number of devices.
	Fleet int
	// Revisions is the number of policy revisions published.
	Revisions int
	// PolicyCount is the number of policies per revision.
	PolicyCount int
	// PublishEvery is the cadence of revision publishes.
	PublishEvery time.Duration
	// SweepEvery is the anti-entropy repair cadence.
	SweepEvery time.Duration
	// Corruptions is the number of tampered pushes injected (half
	// rogue-signed, half undecodable).
	Corruptions int
	// Loss is the loss probability during the loss window.
	Loss float64
	// Horizon is the virtual run length.
	Horizon time.Duration
	// Workers are the engine parallelism levels to compare; the first
	// must be 1 (the serial baseline).
	Workers []int
}

func (p *E17Params) defaults() {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Fleet <= 0 {
		p.Fleet = 8
	}
	if p.Revisions <= 0 {
		p.Revisions = 10
	}
	if p.PolicyCount <= 0 {
		p.PolicyCount = 8
	}
	if p.PublishEvery <= 0 {
		p.PublishEvery = 25 * time.Millisecond
	}
	if p.SweepEvery <= 0 {
		p.SweepEvery = 40 * time.Millisecond
	}
	if p.Corruptions <= 0 {
		p.Corruptions = 6
	}
	if p.Loss <= 0 {
		p.Loss = 0.30
	}
	if p.Horizon <= 0 {
		p.Horizon = 700 * time.Millisecond
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4}
	}
}

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

// e17Revision compiles the policy set for one revision: PolicyCount
// policies whose action target carries the revision tag, with a
// rotating subset mutated each revision so deltas stay small but
// non-empty.
func e17Revision(count, rev int) ([]policy.Policy, error) {
	var src string
	for i := 0; i < count; i++ {
		// Two policies change per revision; the rest keep their
		// previous source (same hash → not in the delta).
		tag := "base"
		if i == rev%count || i == (rev+1)%count {
			tag = fmt.Sprintf("rev%d", rev)
		}
		src += fmt.Sprintf(
			"policy fleet%02d priority %d:\n    on tick\n    when intensity > 0\n    do adjust target %s category surveillance\n",
			i, i+1, tag)
	}
	return policylang.CompileSource(src, policy.OriginHuman)
}

// RunE17Workers runs the distribution plane through the chaos schedule
// at one parallelism level and returns the exact outcome.
func RunE17Workers(p E17Params, workers int) (E17Outcome, error) {
	p.defaults()
	clock := sim.NewClock(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	reg := telemetry.NewRegistry()
	bus := network.NewBus(rand.New(rand.NewSource(p.Seed)),
		network.WithEngine(engine),
		network.WithMetrics(reg),
		network.WithLatency(time.Millisecond, time.Millisecond))

	collective, err := core.New(core.Config{
		Name:       "e17",
		KillSecret: []byte("e17-secret"),
		Audit:      log,
		Bus:        bus,
		Telemetry:  reg,
	})
	if err != nil {
		return E17Outcome{}, err
	}

	schema, err := statespace.NewSchema(
		statespace.Var("heat", 0, 100),
		statespace.Var("fuel", 0, 100),
	)
	if err != nil {
		return E17Outcome{}, err
	}
	key := bundle.HMACKey{ID: "fleet-key", Secret: []byte("e17 shared secret")}
	dist, err := core.NewDistributor(core.DistributorConfig{
		Collective:     collective,
		Roots:          []core.RootConfig{{Signer: key}},
		Telemetry:      reg,
		Clock:          clock.Now,
		StuckThreshold: 3,
	})
	if err != nil {
		return E17Outcome{}, err
	}

	deviceIDs := make([]string, p.Fleet)
	for i := 0; i < p.Fleet; i++ {
		id := fmt.Sprintf("dev-%02d", i)
		deviceIDs[i] = id
		initial, err := schema.StateFromMap(map[string]float64{"heat": 20, "fuel": 100})
		if err != nil {
			return E17Outcome{}, err
		}
		d, err := device.New(device.Config{
			ID: id, Type: "drone", Organization: "us",
			Initial:    initial,
			KillSwitch: collective.KillSwitch(),
			Audit:      log,
		})
		if err != nil {
			return E17Outcome{}, err
		}
		if err := collective.AddDevice(d, nil); err != nil {
			return E17Outcome{}, err
		}
		if err := dist.EnrollRoots(id, key, ""); err != nil {
			return E17Outcome{}, err
		}
	}

	// Publish cadence: one revision per tick, from barrier events so
	// the bus's fault sampling order is serial and reproducible.
	published := 0
	var publishErr error
	engine.ScheduleEvery(p.PublishEvery, func() bool { return published < p.Revisions && publishErr == nil }, func() {
		pols, err := e17Revision(p.PolicyCount, published+1)
		if err != nil {
			publishErr = err
			return
		}
		if _, err := dist.PublishRoot("", pols); err != nil {
			publishErr = err
			return
		}
		published++
	})

	// Anti-entropy repair, also on barriers, until the horizon.
	engine.ScheduleEvery(p.SweepEvery, func() bool { return true }, func() {
		dist.RepairSweep()
	})

	// Chaos windows, sized against the publish stream (10 revisions at
	// 25ms → publishes end at 250ms):
	//   - 30% loss across the middle of the stream,
	//   - a symmetric partition cutting half the fleet off,
	//   - a one-way partition silencing half the fleet's acks while
	//     pushes still arrive (the push-succeeded/ack-lost case).
	half := deviceIDs[:p.Fleet/2]
	groups := make(map[string]int, len(half))
	for _, id := range half {
		groups[id] = 1
	}
	injector := &chaos.Injector{Engine: engine, Bus: bus, Metrics: reg}
	faults := []chaos.Fault{
		chaos.Loss{Prob: p.Loss, At: 50 * time.Millisecond, For: 100 * time.Millisecond},
		chaos.Partition{Groups: groups, At: 60 * time.Millisecond, For: 50 * time.Millisecond},
		chaos.OneWayPartition{
			From: half, To: []string{"bundle-distributor"},
			At: 160 * time.Millisecond, For: 50 * time.Millisecond,
		},
	}
	for _, f := range faults {
		f.Inject(injector)
	}

	// Corrupted pushes after the fault windows heal (so delivery is
	// guaranteed and the fail-closed count must equal the injection
	// count exactly): alternately rogue-signed (wrong key) and
	// undecodable bytes. None may activate; every one must be audited.
	rogue := bundle.NewPublisher(bundle.HMACKey{ID: "rogue", Secret: []byte("stolen-ish")})
	roguePols, err := e17Revision(p.PolicyCount, 999)
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
	// The injections are scheduled after every chaos window has healed,
	// so delivery is guaranteed and the fail-closed books must balance
	// exactly; a lost injection would silently weaken the assertion, so
	// it fails the run instead.
	corruptLost := 0
	for i := 0; i < p.Corruptions; i++ {
		i := i
		at := 300*time.Millisecond + time.Duration(i)*7*time.Millisecond
		engine.Schedule(at, func() {
			payload := rogueBytes
			if i%2 == 1 {
				payload = []byte("!! not a bundle !!")
			}
			if err := bus.Send(network.Message{
				From: "attacker", To: deviceIDs[i%len(deviceIDs)],
				Topic: core.TopicBundle, Payload: payload,
			}); err != nil {
				corruptLost++
			}
		})
	}

	if err := engine.Run(clock.Now().Add(p.Horizon)); err != nil {
		return E17Outcome{}, err
	}
	if publishErr != nil {
		return E17Outcome{}, publishErr
	}
	if corruptLost != 0 {
		return E17Outcome{}, fmt.Errorf("corruption injection (workers=%d): %d of %d pushes failed to deliver after the chaos windows healed",
			workers, corruptLost, p.Corruptions)
	}
	if err := log.Verify(); err != nil {
		return E17Outcome{}, fmt.Errorf("audit chain (workers=%d): %w", workers, err)
	}
	if err := dist.RootLedger("").Verify(); err != nil {
		return E17Outcome{}, fmt.Errorf("activation ledger (workers=%d): %w", workers, err)
	}

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
		LedgerLen:      dist.RootLedger("").Len(),
	}
	out.RejectedOther = reg.CounterTotal("bundle.rejected") -
		out.RejectedSig - out.RejectedDecode - out.RejectedGap
	for _, id := range deviceIDs {
		d, _ := collective.Device(id)
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
	if entries := log.Entries(); len(entries) > 0 {
		out.JournalTip = entries[len(entries)-1].Hash
	}
	if entries := dist.RootLedger("").Entries(); len(entries) > 0 {
		out.LedgerTip = entries[len(entries)-1].Hash
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
		if !out.Converged || out.DevicesOnFinal != p.Fleet {
			return Result{}, fmt.Errorf("e17: fleet not converged at workers=%d: %d/%d devices on revision %d",
				workers, out.DevicesOnFinal, p.Fleet, out.FinalRevision)
		}
		if got := out.RejectedSig + out.RejectedDecode; got != int64(p.Corruptions) {
			return Result{}, fmt.Errorf("e17: fail-closed count %d != injected corruptions %d (workers=%d)",
				got, p.Corruptions, workers)
		}
		if out.AuditedCorrupt != p.Corruptions {
			return Result{}, fmt.Errorf("e17: %d corruption rejections audited, want %d",
				out.AuditedCorrupt, p.Corruptions)
		}
		if out.RejectedOther != 0 {
			return Result{}, fmt.Errorf("e17: unexpected rejection causes (count %d) beyond signature/decode/gap",
				out.RejectedOther)
		}
		if out.ActivatedDelta == 0 || out.BytesDelta == 0 {
			return Result{}, fmt.Errorf("e17: no delta activations measured — delta path untested")
		}
		identical := "baseline"
		if i == 0 {
			base = out
		} else {
			identical = "yes"
			norm := out
			norm.Workers = base.Workers
			if norm != base {
				identical = "NO"
			}
		}
		tip := out.JournalTip
		if len(tip) > 12 {
			tip = tip[:12]
		}
		result.Rows = append(result.Rows, []string{
			itoa(workers), itoa(int(out.FinalRevision)), fmt.Sprint(out.Converged),
			itoa(int(out.ActivatedFull)), itoa(int(out.ActivatedDelta)),
			itoa(int(out.RejectedSig)), itoa(int(out.RejectedDecode)), itoa(int(out.RejectedGap)),
			itoa(int(out.Repairs)), itoa(int(out.Pulls)), tip, identical,
		})
	}
	// The byte-cost claim, measured on a representative revision step:
	// one full bundle vs the delta for the same two-policy change.
	fullLen, deltaLen, err := e17WireCost(p.PolicyCount)
	if err != nil {
		return Result{}, err
	}
	if deltaLen >= fullLen {
		return Result{}, fmt.Errorf("e17: delta bundle (%d B) not smaller than full (%d B)", deltaLen, fullLen)
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("fleet=%d revisions=%d (%d policies each) published every %v; 30%% loss %v–%v, symmetric partition %v–%v, one-way (ack-silencing) partition %v–%v",
			p.Fleet, p.Revisions, p.PolicyCount, p.PublishEvery,
			50*time.Millisecond, 150*time.Millisecond,
			60*time.Millisecond, 110*time.Millisecond,
			160*time.Millisecond, 210*time.Millisecond),
		fmt.Sprintf("convergence: %d/%d devices on the final signed revision; anti-entropy used %d repair pushes and %d pull repairs",
			p.Fleet, p.Fleet, base.Repairs, base.Pulls),
		fmt.Sprintf("fail-closed: %d corrupted pushes injected (rogue-signed + undecodable), %d rejected, %d activated; every rejection audited with its cause",
			p.Corruptions, base.RejectedSig+base.RejectedDecode, 0),
		fmt.Sprintf("wire cost: representative revision step is %d B as a delta vs %d B as a full bundle (%.0f%% saved; deltas carry only changed policies plus the coverage map); on-wire totals: full %d B, delta %d B",
			deltaLen, fullLen, 100*(1-float64(deltaLen)/float64(fullLen)), base.BytesFull, base.BytesDelta),
		"equal tip hashes over equal lengths = byte-identical audit journal AND activation ledger at every parallelism")
	return result, nil
}

// e17WireCost encodes one revision step both ways and returns the
// encoded sizes (full, delta).
func e17WireCost(policyCount int) (int, int, error) {
	pub := bundle.NewPublisher(bundle.HMACKey{ID: "probe", Secret: []byte("probe")})
	for rev := 1; rev <= 2; rev++ {
		pols, err := e17Revision(policyCount, rev)
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
