package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/bench/internal/report"
	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// fanout is the distribution path: two org roots, each device
// subscribed to its own org's root, a bus that loses 10% of messages,
// and the engine at two workers. Publishes alternate roots; after each
// the benchmark sweeps for repairs every fanoutSweep of virtual time
// until the root has no lagging subscriber. The first revision of each
// root is set-up (enrolment), so every timed publish is a delta.
const (
	fanoutWorkers   = 2
	fanoutLoss      = 0.10
	fanoutLatency   = time.Millisecond
	fanoutSweep     = 50 * time.Millisecond
	fanoutMaxSweeps = 200
	fanoutPolicies  = 6
	applyReplays    = 200
)

var fanoutOrgs = []string{"us", "uk"}

type fanoutWorld struct {
	clock  *sim.Clock
	engine *sim.Engine
	bus    *network.Bus
	log    *audit.Log
	reg    *telemetry.Registry
	col    *core.Collective
	dist   *core.Distributor
	keys   map[string]bundle.HMACKey
	ring   *bundle.KeyRing
	ids    map[string][]string
	// revisions[org][r] is the policy set of the org's revision r+1.
	revisions map[string][][]policy.Policy
	published map[string]int
	publishes int

	sign, verify *timer

	before       fanoutBooks
	ledgerBefore map[string]int
	converge     []float64
}

// fanoutBooks is a reading of the distribution plane's counters.
type fanoutBooks struct {
	activated, activatedFull, activatedDelta int64
	pushed, wireBytes, repairs               int64
	sent, dropped                            int
	logLen, ledgerLen                        int
}

func (w *fanoutWorld) books() fanoutBooks {
	b := fanoutBooks{
		activatedFull:  w.reg.Counter("bundle.activated", "kind", bundle.KindFull).Value(),
		activatedDelta: w.reg.Counter("bundle.activated", "kind", bundle.KindDelta).Value(),
		pushed:         w.reg.Counter("bundle.pushed").Value(),
		wireBytes: w.reg.Counter("bundle.bytes_on_wire", "kind", bundle.KindFull).Value() +
			w.reg.Counter("bundle.bytes_on_wire", "kind", bundle.KindDelta).Value(),
		repairs: w.reg.Counter("bundle.repairs").Value(),
		sent:    w.bus.Sent(),
		logLen:  w.log.Len(),
	}
	b.activated = b.activatedFull + b.activatedDelta
	_, b.dropped = w.bus.Stats()
	for _, org := range fanoutOrgs {
		b.ledgerLen += w.dist.RootLedger(org).Len()
	}
	return b
}

// fanoutRevisions generates each org's revision stream from the seed:
// fanoutPolicies policies in the org's namespace, two of which change
// at every revision, so each delta carries a few records.
func fanoutRevisions(rng *rand.Rand, org string, count int) ([][]policy.Policy, error) {
	thresholds := make([]int, fanoutPolicies)
	for i := range thresholds {
		thresholds[i] = rng.Intn(10)
	}
	var out [][]policy.Policy
	for rev := 1; rev <= count; rev++ {
		var src strings.Builder
		for i := 0; i < fanoutPolicies; i++ {
			tag := "base"
			if i == rev%fanoutPolicies || i == (rev+1)%fanoutPolicies {
				tag = fmt.Sprintf("rev%d-%d", rev, rng.Intn(1000))
			}
			fmt.Fprintf(&src, "policy %s.fleet%02d priority %d:\n    on tick\n    when intensity > %d\n    do adjust target %s category surveillance\n",
				org, i, i+1, thresholds[i], tag)
		}
		pols, err := policylang.CompileSource(src.String(), policy.OriginHuman)
		if err != nil {
			return nil, err
		}
		out = append(out, pols)
	}
	return out, nil
}

func buildFanout(e env) (world, error) {
	rng := rand.New(rand.NewSource(e.seed))
	clock := sim.NewClock(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(fanoutWorkers)
	w := &fanoutWorld{
		clock:  clock,
		engine: engine,
		bus: network.NewBus(rand.New(rand.NewSource(e.seed)),
			network.WithEngine(engine),
			network.WithLoss(fanoutLoss),
			network.WithLatency(fanoutLatency, fanoutLatency)),
		log: audit.New(audit.WithClock(clock.Now)),
		reg: telemetry.NewRegistry(),
		keys: map[string]bundle.HMACKey{
			"us": {ID: "us-root", Secret: []byte("bench us signing secret")},
			"uk": {ID: "uk-root", Secret: []byte("bench uk signing secret")},
		},
		ids:       make(map[string][]string),
		revisions: make(map[string][][]policy.Policy),
		published: make(map[string]int),
		publishes: e.size.fanoutPublishes,
	}
	perOrg := e.size.fanoutPerOrg
	var err error
	w.col, err = core.New(core.Config{
		Name:            "bench-fanout",
		Audit:           w.log,
		KillSecret:      []byte("bench-fanout"),
		Bus:             w.bus,
		Telemetry:       w.reg,
		ExpectedMembers: perOrg * len(fanoutOrgs),
	})
	if err != nil {
		return nil, err
	}
	w.ring = bundle.NewKeyRing()
	var verifier bundle.Verifier = w.ring
	if e.traced {
		w.sign, w.verify = new(timer), new(timer)
		verifier = timedVerifier{inner: w.ring, t: w.verify}
	}
	var roots []core.RootConfig
	for _, org := range fanoutOrgs {
		key := w.keys[org]
		w.ring.Add(key.ID, key, bundle.Scope{Org: org})
		var signer bundle.Signer = key
		if e.traced {
			signer = timedSigner{inner: key, t: w.sign}
		}
		roots = append(roots, core.RootConfig{Org: org, Signer: signer})
		// Revision 1 is enrolment; each timed publish needs one more.
		count := 1 + (w.publishes+len(fanoutOrgs)-1)/len(fanoutOrgs)
		if w.revisions[org], err = fanoutRevisions(rng, org, count); err != nil {
			return nil, err
		}
	}
	w.dist, err = core.NewDistributor(core.DistributorConfig{
		Collective: w.col,
		Roots:      roots,
		Telemetry:  w.reg,
		Clock:      clock.Now,
		Engine:     engine,
	})
	if err != nil {
		return nil, err
	}
	schema, err := statespace.NewSchema(statespace.Var("heat", 0, 100))
	if err != nil {
		return nil, err
	}
	initial, err := schema.StateFromMap(map[string]float64{"heat": 20})
	if err != nil {
		return nil, err
	}
	for _, org := range fanoutOrgs {
		for i := 0; i < perOrg; i++ {
			id := fmt.Sprintf("%s-%06d", org, i)
			d, err := device.New(device.Config{
				ID: id, Type: "drone", Organization: org,
				Initial:    initial,
				KillSwitch: w.col.KillSwitch(),
				Audit:      w.log,
				Telemetry:  w.reg,
			})
			if err != nil {
				return nil, err
			}
			if err := w.col.AddDevice(d, nil); err != nil {
				return nil, err
			}
			if err := w.dist.EnrollRoots(id, verifier, org); err != nil {
				return nil, err
			}
			w.ids[org] = append(w.ids[org], id)
		}
	}
	for _, org := range fanoutOrgs {
		if _, _, err := w.publish(org); err != nil {
			return nil, fmt.Errorf("enrolment publish: %w", err)
		}
	}
	if e.traced {
		w.sign.reset()
		w.verify.reset()
	}
	w.before = w.books()
	w.ledgerBefore = make(map[string]int, len(fanoutOrgs))
	for _, org := range fanoutOrgs {
		w.ledgerBefore[org] = w.dist.RootLedger(org).Len()
	}
	return w, nil
}

// publish cuts org's next revision and runs the engine until every
// subscriber has acknowledged it. Each sweep first counts the
// subscribers still lagging: those that converged since the previous
// sweep are latency samples of the wall time since the publish.
func (w *fanoutWorld) publish(org string) (time.Duration, []sample, error) {
	pols := w.revisions[org][w.published[org]]
	w.published[org]++
	subs := len(w.ids[org])
	var (
		start     time.Time
		pubErr    error
		lat       []sample
		converged int
		sweeps    int
		done      bool
	)
	w.engine.Schedule(0, func() {
		start = time.Now()
		_, pubErr = w.dist.PublishRoot(org, pols)
	})
	w.engine.ScheduleEvery(fanoutSweep,
		func() bool { return !done && pubErr == nil && sweeps < fanoutMaxSweeps },
		func() {
			sweeps++
			lagging := len(w.dist.LaggingRoot(org))
			at := time.Since(start)
			if now := subs - lagging; now > converged {
				lat = append(lat, sample{ms: ms(at), n: int64(now - converged)})
				converged = now
			}
			if lagging == 0 {
				done = true
				w.converge = append(w.converge, ms(at))
				return
			}
			w.dist.RepairSweep()
		})
	begin := time.Now()
	err := w.engine.Run(w.clock.Now().Add(time.Hour))
	wall := time.Since(begin)
	switch {
	case err != nil:
		return wall, nil, err
	case pubErr != nil:
		return wall, nil, pubErr
	case !done:
		return wall, nil, fmt.Errorf("root %s revision %d: %d subscribers still lagging after %d sweeps",
			org, w.published[org], subs-converged, sweeps)
	}
	return wall, lat, nil
}

func (w *fanoutWorld) run() (phase, error) {
	var p phase
	w.converge = w.converge[:0]
	for k := 0; k < w.publishes; k++ {
		org := fanoutOrgs[k%len(fanoutOrgs)]
		before := w.books().activated
		wall, lat, err := w.publish(org)
		p.wall += wall
		if err != nil {
			return p, err
		}
		p.lat = append(p.lat, lat...)
		p.windows = append(p.windows, window{ops: w.books().activated - before, wall: wall})
		p.attempted += int64(len(w.ids[org]))
	}
	p.ops = w.books().activated - w.before.activated
	p.failed = int64(w.offRevision())
	return p, nil
}

// offRevision counts subscribers not on their root's published
// revision.
func (w *fanoutWorld) offRevision() int {
	off := 0
	for _, org := range fanoutOrgs {
		rev := w.dist.RootRevision(org)
		for _, id := range w.ids[org] {
			d, ok := w.col.Device(id)
			if !ok || d.Policies().OrgRevision(org) != rev {
				off++
			}
		}
	}
	return off
}

func (w *fanoutWorld) check(c *checks) {
	c.expect(w.offRevision() == 0, "%d subscribers are not on their root's published revision", w.offRevision())
	// Every root has the same number of subscribers.
	want := int64(w.publishes * len(w.ids[fanoutOrgs[0]]))
	got := w.books().activated - w.before.activated
	c.expect(got == want, "%d activations, want one per subscriber per publish (%d)", got, want)
	var tips []string
	for _, org := range fanoutOrgs {
		ledger := w.dist.RootLedger(org)
		c.expect(ledger.Verify() == nil, "%s activation ledger does not verify", org)
		c.expect(len(w.dist.LaggingRoot(org)) == 0, "root %s has lagging subscribers", org)
		tips = append(tips, org+" "+tipOf(ledger))
	}
	c.expect(len(w.dist.Stuck()) == 0, "%d subscribers flagged stuck", len(w.dist.Stuck()))
	c.expect(w.bus.CheckConservation() == nil, "bus books do not balance: %v", w.bus.CheckConservation())
	c.expect(w.log.Verify() == nil, "journal does not verify")
	c.fingerprint = fmt.Sprintf("journal %s, ledgers %s", tipOf(w.log), strings.Join(tips, ", "))
	c.note("revisions us %d uk %d; converge median %.1f ms over %d publishes; %s",
		w.dist.RootRevision("us"), w.dist.RootRevision("uk"), report.Median(w.converge), len(w.converge), c.fingerprint)
}

// tipOf returns the hash of a log's last entry.
func tipOf(log *audit.Log) string {
	if entries, _ := log.EntriesSince(log.Len() - 1); len(entries) == 1 {
		return entries[0].Hash
	}
	return ""
}

func (w *fanoutWorld) layers(p phase) (layerValues, error) {
	m := layerValues{}
	now := w.books()
	publishes := float64(w.publishes)
	sign, verify := w.sign.read(), w.verify.read()
	m["bundle.sign_us"] = sign.meanUS()
	m["bundle.verify_us"] = verify.meanUS()
	m["bundle.verifies_per_publish"] = float64(verify.calls) / publishes

	// Replay one org's stream from a publisher fed the same inputs:
	// each iteration activates the full revision 1, then the delta to
	// revision 2, on a fresh device policy set.
	pub := bundle.NewOrgPublisher(w.keys["us"], "us")
	full, _, err := pub.Publish(w.revisions["us"][0])
	if err != nil {
		return nil, err
	}
	_, delta, err := pub.Publish(w.revisions["us"][1])
	if err != nil {
		return nil, err
	}
	fullWire, err := bundle.Encode(full)
	if err != nil {
		return nil, err
	}
	deltaWire, err := bundle.Encode(delta)
	if err != nil {
		return nil, err
	}
	var fullTime, deltaTime time.Duration
	for i := 0; i < applyReplays; i++ {
		agent := bundle.NewOrgAgent(policy.NewSet(), w.ring, "us")
		start := time.Now()
		okFull, errFull := agent.ApplyWire(fullWire)
		mid := time.Now()
		okDelta, errDelta := agent.ApplyWire(deltaWire)
		fullTime += mid.Sub(start)
		deltaTime += time.Since(mid)
		if !okFull || !okDelta || errFull != nil || errDelta != nil {
			return nil, fmt.Errorf("apply replay refused: full %v, delta %v", errFull, errDelta)
		}
	}
	m["bundle.apply_full_us"] = us(fullTime) / applyReplays
	m["bundle.apply_delta_us"] = us(deltaTime) / applyReplays

	m["bundle.wire_bytes_per_push"] = ratio(float64(now.wireBytes-w.before.wireBytes), float64(now.pushed-w.before.pushed))
	m["bundle.repairs_per_publish"] = float64(now.repairs-w.before.repairs) / publishes
	sent := now.sent - w.before.sent
	m["network.sends_per_publish"] = float64(sent) / publishes
	m["network.drop_share"] = ratio(float64(now.dropped-w.before.dropped), float64(sent))
	m["audit.ledger_entries_per_publish"] = float64(now.ledgerLen-w.before.ledgerLen) / publishes

	shape, _ := w.log.EntriesSince(w.before.logLen)
	for _, org := range fanoutOrgs {
		tail, _ := w.dist.RootLedger(org).EntriesSince(w.ledgerBefore[org])
		shape = append(shape, tail...)
	}
	total := now.logLen + now.ledgerLen
	appended := now.logLen - w.before.logLen + now.ledgerLen - w.before.ledgerLen
	m["audit.append_us"] = replayAppend(shape, total)
	m["audit.entries_per_op"] = ratio(float64(appended), float64(p.ops))
	m["telemetry.series"] = float64(len(w.reg.Snapshot()))

	// Signing, activation (decode, verify, checks, install), the
	// verification of re-pushed revisions and the journal appends do
	// not overlap. Encoding, the bus, acks and the distributor's own
	// bookkeeping are unexplained.
	activations := now.activated - w.before.activated
	busyUS := us(sign.busy()) +
		m["bundle.apply_full_us"]*float64(now.activatedFull-w.before.activatedFull) +
		m["bundle.apply_delta_us"]*float64(now.activatedDelta-w.before.activatedDelta) +
		verify.meanUS()*float64(verify.calls-activations) +
		m["audit.append_us"]*float64(appended)
	m["unexplained_share"] = 1 - busyUS/(us(p.wall)*fanoutWorkers)
	return m, nil
}

func (w *fanoutWorld) close() {}
