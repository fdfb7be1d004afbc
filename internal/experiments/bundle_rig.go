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

// The distribution-chaos rig's fixed schedule, as offsets from the
// start of a run. The chaos windows are sized against the publish
// stream: 10 revisions at 25ms end at 250ms.
const (
	rigPublishEvery = 25 * time.Millisecond
	rigSweepEvery   = 40 * time.Millisecond
	rigHorizon      = 700 * time.Millisecond

	rigLoss                         = 0.30
	rigLossAt, rigLossEnd           = 50 * time.Millisecond, 150 * time.Millisecond
	rigPartitionAt, rigPartitionEnd = 60 * time.Millisecond, 110 * time.Millisecond
	rigOneWayAt, rigOneWayEnd       = 160 * time.Millisecond, 210 * time.Millisecond

	// rigFanoutBatch is small so even the test fleets exercise
	// multi-batch sharded fan-out.
	rigFanoutBatch = 3
)

// rigChaosWindows describes the chaos windows for result notes.
func rigChaosWindows() string {
	return fmt.Sprintf("%.0f%% loss %v–%v, symmetric partition %v–%v, one-way (ack-silencing) partition %v–%v",
		100*rigLoss, rigLossAt, rigLossEnd, rigPartitionAt, rigPartitionEnd, rigOneWayAt, rigOneWayEnd)
}

// rigRoot is one org root of the rig and the revision stream it
// publishes.
type rigRoot struct {
	// org is the root's organization; "" is the default root.
	org string
	// key signs the root's bundles.
	key bundle.HMACKey
	// revisions is how many revisions the root publishes.
	revisions int
}

// devices returns the ID prefix and organization of the root's
// devices: an org root names and owns its devices; the default root's
// are dev-NN in org "us".
func (r rigRoot) devices() (prefix, org string) {
	if r.org == "" {
		return "dev", "us"
	}
	return r.org, r.org
}

// rigConfig is what the experiments on the rig differ in.
type rigConfig struct {
	// name names the collective; its kill secret is name+"-secret".
	name  string
	roots []rigRoot
	// perRoot is the number of devices subscribed to each root.
	perRoot int
	// policies is the number of policies per revision.
	policies int
	// verifier is what every device checks bundle signatures against.
	verifier bundle.Verifier
}

// rigSend is one injected bus send, delivered at the given virtual
// offset.
type rigSend struct {
	at  time.Duration
	msg network.Message
}

// bundleRig is the distribution-chaos world E17 and E21 run: a seeded
// bus, the collective, and a multi-root distributor with sharded
// fan-out; each root's publish cadence and the repair sweeps; and three
// chaos windows over half of each root's devices.
type bundleRig struct {
	workers    int
	clock      *sim.Clock
	engine     *sim.Engine
	bus        *network.Bus
	log        *audit.Log
	reg        *telemetry.Registry
	collective *core.Collective
	dist       *core.Distributor
	roots      []rigRoot
	// devices lists each root's device IDs, keyed by root org.
	devices    map[string][]string
	publishErr error
}

// rigRevision compiles one root's policy set for one revision: count
// policies with a rotating subset mutated each revision, so deltas stay
// small but non-empty. IDs are fleetNN on the default root and
// <org>.fleetNN on an org root (the coalition namespace convention).
func rigRevision(org string, count, rev int) ([]policy.Policy, error) {
	ns := ""
	if org != "" {
		ns = org + "."
	}
	var src string
	for i := 0; i < count; i++ {
		// Two policies change per revision; the rest keep their
		// previous source (same hash → not in the delta).
		tag := "base"
		if i == rev%count || i == (rev+1)%count {
			tag = fmt.Sprintf("rev%d", rev)
		}
		src += fmt.Sprintf(
			"policy %sfleet%02d priority %d:\n    on tick\n    when intensity > 0\n    do adjust target %s category surveillance\n",
			ns, i, i+1, tag)
	}
	return policylang.CompileSource(src, policy.OriginHuman)
}

// newBundleRig builds the rig at one parallelism level and schedules,
// in this order, each root's publishes, the repair sweeps and the
// chaos windows. Events at equal timestamps run in scheduling order,
// so the order is part of every journal the rig produces.
func newBundleRig(cfg rigConfig, seed int64, workers int) (*bundleRig, error) {
	clock := sim.NewClock(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	reg := telemetry.NewRegistry()
	bus := network.NewBus(rand.New(rand.NewSource(seed)),
		network.WithEngine(engine),
		network.WithMetrics(reg),
		network.WithLatency(time.Millisecond, time.Millisecond))

	collective, err := core.New(core.Config{
		Name:       cfg.name,
		KillSecret: []byte(cfg.name + "-secret"),
		Audit:      log,
		Bus:        bus,
		Telemetry:  reg,
	})
	if err != nil {
		return nil, err
	}
	roots := make([]core.RootConfig, len(cfg.roots))
	for i, r := range cfg.roots {
		roots[i] = core.RootConfig{Org: r.org, Signer: r.key}
	}
	dist, err := core.NewDistributor(core.DistributorConfig{
		Collective:     collective,
		Roots:          roots,
		Telemetry:      reg,
		Clock:          clock.Now,
		Engine:         engine,
		FanoutBatch:    rigFanoutBatch,
		StuckThreshold: 3,
	})
	if err != nil {
		return nil, err
	}
	rig := &bundleRig{
		workers: workers, clock: clock, engine: engine, bus: bus, log: log, reg: reg,
		collective: collective, dist: dist, roots: cfg.roots,
		devices: make(map[string][]string, len(cfg.roots)),
	}

	schema, err := statespace.NewSchema(
		statespace.Var("heat", 0, 100),
		statespace.Var("fuel", 0, 100),
	)
	if err != nil {
		return nil, err
	}
	for _, r := range cfg.roots {
		prefix, org := r.devices()
		for i := 0; i < cfg.perRoot; i++ {
			id := fmt.Sprintf("%s-%02d", prefix, i)
			rig.devices[r.org] = append(rig.devices[r.org], id)
			initial, err := schema.StateFromMap(map[string]float64{"heat": 20, "fuel": 100})
			if err != nil {
				return nil, err
			}
			d, err := device.New(device.Config{
				ID: id, Type: "drone", Organization: org,
				Initial:    initial,
				KillSwitch: collective.KillSwitch(),
				Audit:      log,
			})
			if err != nil {
				return nil, err
			}
			if err := collective.AddDevice(d, nil); err != nil {
				return nil, err
			}
			if err := dist.EnrollRoots(id, cfg.verifier, r.org); err != nil {
				return nil, err
			}
		}
	}

	// Publish cadence: every root with revisions left cuts its next one,
	// from barrier events so the bus's fault sampling order is serial
	// and reproducible.
	published := make([]int, len(cfg.roots))
	pending := func() bool {
		for i, r := range cfg.roots {
			if published[i] < r.revisions {
				return true
			}
		}
		return false
	}
	engine.ScheduleEvery(rigPublishEvery, func() bool { return pending() && rig.publishErr == nil }, func() {
		for i, r := range cfg.roots {
			if published[i] == r.revisions {
				continue
			}
			pols, err := rigRevision(r.org, cfg.policies, published[i]+1)
			if err == nil {
				_, err = dist.PublishRoot(r.org, pols)
			}
			if err != nil {
				rig.publishErr = err
				return
			}
			published[i]++
		}
	})

	// Anti-entropy repair across every root, also on barriers, until
	// the horizon.
	engine.ScheduleEvery(rigSweepEvery, nil, func() { dist.RepairSweep() })

	// Chaos windows over half of each root's devices, so every root
	// must repair through them:
	//   - 30% loss across the middle of the stream,
	//   - a symmetric partition cutting that half off,
	//   - a one-way partition silencing the same devices' acks while
	//     pushes still arrive (the push-succeeded/ack-lost case).
	var half []string
	for _, r := range cfg.roots {
		half = append(half, rig.devices[r.org][:cfg.perRoot/2]...)
	}
	groups := make(map[string]int, len(half))
	for _, id := range half {
		groups[id] = 1
	}
	injector := &chaos.Injector{Engine: engine, Bus: bus, Metrics: reg}
	faults := []chaos.Fault{
		chaos.Loss{Prob: rigLoss, At: rigLossAt, For: rigLossEnd - rigLossAt},
		chaos.Partition{Groups: groups, At: rigPartitionAt, For: rigPartitionEnd - rigPartitionAt},
		chaos.OneWayPartition{
			From: half, To: []string{"bundle-distributor"},
			At: rigOneWayAt, For: rigOneWayEnd - rigOneWayAt,
		},
	}
	for _, f := range faults {
		f.Inject(injector)
	}
	return rig, nil
}

// run schedules the injected sends in list order, runs the engine to
// the horizon, and verifies the audit journal and every root's
// activation ledger. The sends are timed after every chaos window has
// healed, so delivery is guaranteed and the books they feed must
// balance exactly; a lost send would silently weaken that check, so it
// fails the run instead.
func (r *bundleRig) run(sends []rigSend) error {
	lost := 0
	for _, s := range sends {
		r.engine.Schedule(s.at, func() {
			if err := r.bus.Send(s.msg); err != nil {
				lost++
			}
		})
	}
	if err := r.engine.Run(r.clock.Now().Add(rigHorizon)); err != nil {
		return err
	}
	if r.publishErr != nil {
		return r.publishErr
	}
	if lost != 0 {
		return fmt.Errorf("injection (workers=%d): %d of %d sends failed to deliver after the chaos windows healed",
			r.workers, lost, len(sends))
	}
	if err := r.log.Verify(); err != nil {
		return fmt.Errorf("audit chain (workers=%d): %w", r.workers, err)
	}
	for _, root := range r.roots {
		if err := r.dist.RootLedger(root.org).Verify(); err != nil {
			return fmt.Errorf("activation ledger %q (workers=%d): %w", root.org, r.workers, err)
		}
	}
	return nil
}
