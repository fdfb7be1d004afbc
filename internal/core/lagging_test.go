package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestDistributorLaggingBooks is the differential for the per-root
// lagging books. A seeded random sequence of enrolments (one root,
// both, or a second root added later), publishes, repair sweeps and
// acks — honest, self-claimed ahead of the published revision, forged,
// naming an org with no root, and from senders that never enrolled —
// runs on a two-worker engine over a lossy bus. After every step the
// bundle.lagging gauge, RootLagging and len(LaggingRoot) must equal a
// brute-force recount from per-device acked revisions, and Converged
// must agree with it. Removing any one maintenance site (enrolment,
// ack, publish) breaks the equality.
func TestDistributorLaggingBooks(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { laggingBooksRun(t, seed) })
	}
}

func laggingBooksRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clock := sim.NewClock(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(2)
	bus := network.NewBus(rand.New(rand.NewSource(seed)),
		network.WithEngine(engine),
		network.WithLoss(0.2),
		network.WithLatency(time.Millisecond, 3*time.Millisecond))
	c := newCollective(t, func(cfg *Config) { cfg.Bus = bus })
	var devices []string
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("dev-%02d", i)
		if err := c.AddDevice(newMember(t, c, id, 10), nil); err != nil {
			t.Fatalf("AddDevice %s: %v", id, err)
		}
		devices = append(devices, id)
	}
	orgs := []string{"us", "uk"}
	keys := map[string]bundle.HMACKey{
		"us": {ID: "us-root", Secret: []byte("us secret")},
		"uk": {ID: "uk-root", Secret: []byte("uk secret")},
	}
	ring := bundle.NewKeyRing()
	var roots []RootConfig
	for _, org := range orgs {
		ring.Add(keys[org].ID, keys[org], bundle.Scope{Org: org})
		roots = append(roots, RootConfig{Org: org, Signer: keys[org]})
	}
	reg := telemetry.NewRegistry()
	dist, err := NewDistributor(DistributorConfig{
		Collective: c,
		Roots:      roots,
		Telemetry:  reg,
		Clock:      clock.Now,
		Engine:     engine,
		OnStuck:    func(string) {},
	})
	if err != nil {
		t.Fatalf("NewDistributor: %v", err)
	}
	revisions := map[string][][]policy.Policy{}
	for _, org := range orgs {
		for _, tag := range []string{"r1", "r2", "r3"} {
			revisions[org] = append(revisions[org], orgPolicies(t, org, tag, 3))
		}
	}

	// subs is the oracle's subscription table: org → subscribed device.
	subs := map[string]map[string]bool{"us": {}, "uk": {}}
	enrolledOn := func(id string) []string {
		var out []string
		for _, org := range orgs {
			if subs[org][id] {
				out = append(out, org)
			}
		}
		return out
	}
	pickEnrolled := func() (string, string, bool) {
		var ids []string
		for _, id := range devices {
			if len(enrolledOn(id)) > 0 {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return "", "", false
		}
		id := ids[rng.Intn(len(ids))]
		on := enrolledOn(id)
		return id, on[rng.Intn(len(on))], true
	}
	ack := func(from string, a BundleAck) {
		// A lost ack is part of the scenario, not a failure.
		_ = bus.Send(nil, network.Message{From: from, To: dist.id, Topic: TopicBundleAck, Payload: a})
	}

	published := 0
	sawLagging, sawConverged := false, false
	for step := 0; step < 300; step++ {
		var what string
		switch op := rng.Intn(9); op {
		case 0, 1: // enrol on one root or both, or add the missing root
			id := devices[rng.Intn(len(devices))]
			on := enrolledOn(id)
			switch {
			case len(on) == len(orgs):
				continue
			case len(on) == 1:
				for _, org := range orgs {
					if org != on[0] {
						on = append(on, org)
					}
				}
			case rng.Intn(3) == 0:
				on = orgs
			default:
				on = []string{orgs[rng.Intn(len(orgs))]}
			}
			if err := dist.EnrollRoots(id, ring, on...); err != nil {
				t.Fatalf("EnrollRoots %s %v: %v", id, on, err)
			}
			for _, org := range on {
				subs[org][id] = true
			}
			what = fmt.Sprintf("enrol %s on %v", id, on)
		case 2: // publish
			org := orgs[rng.Intn(len(orgs))]
			pols := revisions[org][int(dist.RootRevision(org))%len(revisions[org])]
			if _, err := dist.PublishRoot(org, pols); err != nil {
				t.Fatalf("PublishRoot %s: %v", org, err)
			}
			published++
			what = "publish " + org
		case 3:
			dist.RepairSweep()
			what = "repair sweep"
		case 4: // honest ack of the device's real revision
			id, org, ok := pickEnrolled()
			if !ok {
				continue
			}
			d, _ := c.Device(id)
			ack(id, BundleAck{Device: id, Org: org, Revision: d.Policies().OrgRevision(org), Applied: true})
			what = "honest ack " + id + " " + org
		case 5: // self-ack claiming a revision ahead of the published one
			id, org, ok := pickEnrolled()
			if !ok {
				continue
			}
			rev := dist.RootRevision(org) + 1 + uint64(rng.Intn(3))
			ack(id, BundleAck{Device: id, Org: org, Revision: rev, Applied: true})
			what = fmt.Sprintf("self-ack %s %s rev %d", id, org, rev)
		case 6: // forged ack on another device's behalf
			victim, org, ok := pickEnrolled()
			if !ok {
				continue
			}
			from := devices[rng.Intn(len(devices))]
			if from == victim {
				continue
			}
			ack(from, BundleAck{Device: victim, Org: org, Revision: dist.RootRevision(org) + 5, Applied: true})
			what = "forged ack " + from + " as " + victim
		case 7: // ack naming an org with no root
			id := devices[rng.Intn(len(devices))]
			ack(id, BundleAck{Device: id, Org: "zz", Revision: 9, Applied: true})
			what = "unknown-org ack " + id
		case 8: // ack from a sender that never enrolled (a ghost, or a
			// member not yet enrolled on any root)
			id := fmt.Sprintf("ghost-%d", rng.Intn(3))
			if cand := devices[rng.Intn(len(devices))]; len(enrolledOn(cand)) == 0 && rng.Intn(2) == 0 {
				id = cand
			}
			org := orgs[rng.Intn(len(orgs))]
			rev := uint64(rng.Intn(int(dist.RootRevision(org)) + 2))
			ack(id, BundleAck{Device: id, Org: org, Revision: rev, Applied: true})
			what = fmt.Sprintf("unenrolled ack %s %s rev %d", id, org, rev)
		}
		if err := engine.Run(clock.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatalf("step %d (%s): run: %v", step, what, err)
		}
		total := checkLaggingBooks(t, dist, reg, subs, fmt.Sprintf("step %d (%s)", step, what))
		sawLagging = sawLagging || total > 0
		sawConverged = sawConverged || (total == 0 && published > 0)
	}
	if !sawLagging || !sawConverged || published == 0 {
		t.Fatalf("degenerate run: published %d, saw lagging %v, saw converged %v", published, sawLagging, sawConverged)
	}
}

// checkLaggingBooks asserts every view of the lagging books against a
// brute-force recount and returns the total lagging over all roots.
func checkLaggingBooks(t *testing.T, dist *Distributor, reg *telemetry.Registry, subs map[string]map[string]bool, at string) int {
	t.Helper()
	total := 0
	for _, org := range dist.Orgs() {
		rev := dist.RootRevision(org)
		var want []string
		for id := range subs[org] {
			if dist.AckedRevisionRoot(org, id) < rev {
				want = append(want, id)
			}
		}
		sort.Strings(want)
		got := dist.LaggingRoot(org)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: LaggingRoot(%s) = %v, recount %v", at, org, got, want)
		}
		if n := dist.RootLagging(org); n != len(want) {
			t.Fatalf("%s: RootLagging(%s) = %d, recount %d", at, org, n, len(want))
		}
		if g := reg.Gauge("bundle.lagging", "root", org).Value(); g != float64(len(want)) {
			t.Fatalf("%s: bundle.lagging{%s} = %g, recount %d", at, org, g, len(want))
		}
		total += len(want)
	}
	if conv := dist.Converged(); conv != (total == 0) {
		t.Fatalf("%s: Converged() = %v with %d lagging", at, conv, total)
	}
	return total
}
