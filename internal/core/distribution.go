package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Bundle-plane bus topics. TopicBundle carries pushes (guard class
// under admission — policy updates are control traffic); acks and pulls
// are background, surviving on the strength of anti-entropy repair
// rather than priority.
const (
	TopicBundle     = "bundle"
	TopicBundleAck  = "bundle_ack"
	TopicBundlePull = "bundle_pull"
)

// defaultFanoutBatch is how many devices one sharded fan-out event
// covers when DistributorConfig.FanoutBatch is unset.
const defaultFanoutBatch = 512

// encodeBundle is the wire encoder, a seam so tests can force the
// encode-failure path (bundle.Encode itself never fails).
var encodeBundle = bundle.Encode

// BundleAck is a device's activation status report: the org root the
// report concerns, the revision the device is on after handling a
// push, and — when the push was refused — the fail-closed cause. Both
// outcomes flow into the root's hash-chained activation ledger, so
// "which device ran which revision when, and what it refused" is
// tamper-evident history per trust boundary.
type BundleAck struct {
	Device   string
	Org      string
	Revision uint64
	Applied  bool
	Cause    string
}

// BundlePull asks the distributor for repair of one root from the
// device's current revision — sent when a device detects a delta-chain
// gap.
type BundlePull struct {
	Device string
	Org    string
	Have   uint64
}

// RootConfig is one org root of a multi-root distributor: an
// independent revision stream signed by that organization's key.
type RootConfig struct {
	// Org names the organization; a single-root deployment is one root
	// with Org "".
	Org string
	// Signer signs every bundle the root publishes (required).
	Signer bundle.Signer
}

// DistributorConfig assembles a Distributor.
type DistributorConfig struct {
	// Collective is the managed fleet (required).
	Collective *Collective
	// Roots declares the org roots (at least one), each with its own
	// signing key, revision stream and activation ledger. A single-root
	// deployment is []RootConfig{{Signer: key}}.
	Roots []RootConfig
	// ID is the distributor's bus node name; defaults to
	// "bundle-distributor".
	ID string
	// Telemetry counts the bundle.* metrics; may be nil.
	Telemetry *telemetry.Registry
	// Clock stamps activation-ledger entries; defaults to time.Now.
	// Deterministic runs must pass the engine clock.
	Clock func() time.Time
	// Engine, when set, shards publish fan-out into batch events keyed
	// like bus deliveries, so a publish to a large fleet spreads over
	// the worker pool; it must be the engine the collective's bus runs
	// on. Nil runs the same batches inline (small fleets, engine-less
	// tests).
	Engine *sim.Engine
	// FanoutBatch is how many devices one sharded fan-out event covers;
	// zero means 512.
	FanoutBatch int
	// StuckThreshold flags a device after this many consecutive repair
	// pushes without an acknowledged catch-up on a root; zero means 3.
	StuckThreshold int
	// OnStuck is invoked (once per stall per root) for a device that
	// exceeded StuckThreshold. Nil reports the device to the
	// collective's watchdog as a denial, feeding distribution stalls
	// into the same deactivation pressure as guard denials.
	OnStuck func(deviceID string)
}

// distRoot is one org root's control-plane state: publisher, ledger
// segment, per-root gauges and the per-revision wire cache.
type distRoot struct {
	org    string
	label  string // telemetry label ("" org renders as "default")
	pub    *bundle.Publisher
	ledger *audit.Log

	gRevision     *telemetry.Gauge
	gLagging      *telemetry.Gauge
	cScopeRej     *telemetry.Counter
	cEncodeFailed *telemetry.Counter

	// The lagging books, guarded by Distributor.mu: published mirrors
	// pub.Revision() and lagging counts the subscribers whose acked
	// revision trails it — always what LaggingRoot would list. They are
	// kept where an input changes (enrolment, ack, publish) so an ack
	// costs O(1) instead of a scan of the fleet.
	published uint64
	lagging   int

	// The wire cache memoizes encoded bundles per (revision, base):
	// a fan-out to N devices sharing a handful of acked bases encodes
	// each distinct bundle once instead of N times. Guarded by wmu so
	// concurrent sharded batches share entries; contents are a pure
	// function of publisher state, so sharing is deterministic.
	wmu  sync.Mutex
	wrev uint64
	wire map[uint64]wireEntry
}

type wireEntry struct {
	data []byte
	kind string
}

// setLaggingLocked records the root's lagging count and mirrors it into
// the bundle.lagging gauge. Caller holds Distributor.mu.
func (r *distRoot) setLaggingLocked(n int) {
	r.lagging = n
	r.gLagging.Set(float64(n))
}

// errNothingPublished marks a push attempted before the root's first
// revision — benign, nothing to send.
var errNothingPublished = errors.New("core: nothing published yet")

// wireFor returns the encoded bundle a device at the given acked base
// should receive: a delta when the base is in history, a full bundle
// otherwise, cached per (revision, base).
func (r *distRoot) wireFor(base uint64) (wireEntry, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	rev := r.pub.Revision()
	if rev == 0 {
		return wireEntry{}, errNothingPublished
	}
	if r.wrev != rev {
		r.wrev = rev
		r.wire = make(map[uint64]wireEntry, 4)
	}
	if w, ok := r.wire[base]; ok {
		return w, nil
	}
	b, ok := r.pub.DeltaFrom(base)
	if !ok {
		full, err := r.pub.Full()
		if err != nil {
			return wireEntry{}, errNothingPublished
		}
		b = full
	}
	data, err := encodeBundle(b)
	if err != nil {
		return wireEntry{}, err
	}
	w := wireEntry{data: data, kind: b.Kind()}
	r.wire[base] = w
	return w, nil
}

// Distributor is the control-plane half of the policy-distribution
// plane: it publishes signed, monotonically versioned bundles — one
// independent revision stream per org root — pushes them to enrolled
// devices over the bus, tracks per-device, per-root acknowledged
// revisions in hash-chained activation ledgers, and repairs lagging
// devices by anti-entropy re-push (delta when the device's base is
// still in history, full otherwise). All state a push or repair reads
// is guarded by one mutex; PublishRoot and RepairSweep scan the whole
// fleet and append to the journal directly, so they run from
// serial-barrier context (engine.Schedule callbacks or outside a run).
// With an Engine configured, the per-device pushes fan out as sharded
// batch events that send through their lanes, keeping journals and
// ledgers byte-identical at any worker count.
type Distributor struct {
	col   *Collective
	id    string
	clock func() time.Time

	engine      *sim.Engine
	fanoutBatch int

	stuckThreshold int
	onStuck        func(string)

	roots  []*distRoot
	rootOf map[string]int

	reg         *telemetry.Registry
	cPushed     *telemetry.Counter
	cAcked      *telemetry.Counter
	cRepairs    *telemetry.Counter
	cPulls      *telemetry.Counter
	cBadPayload *telemetry.Counter
	cForgedAck  *telemetry.Counter
	cForgedPull *telemetry.Counter
	cBytesFull  *telemetry.Counter
	cBytesDelta *telemetry.Counter
	cActFull    *telemetry.Counter
	cActDelta   *telemetry.Counter

	// The fleet index is dense: every device the distributor has seen
	// (enrolled, or merely heard an ack from) owns one stable slot in
	// fleet. order holds the enrolled slots sorted by device ID — the
	// canonical fan-out order of PublishRoot and RepairSweep — and sweep
	// is the reusable repair snapshot (serial-barrier callers only).
	mu     sync.Mutex
	slotOf map[string]int32
	fleet  []fleetEntry
	order  []int32
	sweep  []int32
}

// fleetEntry is one device's distribution-plane record; sub holds its
// per-root subscription state, indexed like Distributor.roots.
type fleetEntry struct {
	id       string
	enrolled bool
	sub      []rootSub
}

// rootSub is one device's standing on one org root.
type rootSub struct {
	subscribed bool
	acked      uint64
	repairs    int
	stuck      bool
}

// slotLocked returns the device's slot, creating one on first sight.
// Caller holds x.mu.
func (x *Distributor) slotLocked(deviceID string) int32 {
	slot, ok := x.slotOf[deviceID]
	if !ok {
		slot = int32(len(x.fleet))
		x.fleet = append(x.fleet, fleetEntry{id: deviceID, sub: make([]rootSub, len(x.roots))})
		x.slotOf[deviceID] = slot
	}
	return slot
}

// rootLabel renders an org for the root-labeled bundle metrics.
func rootLabel(org string) string {
	if org == "" {
		return "default"
	}
	return org
}

// NewDistributor builds the distributor and attaches it to the bus as
// its own node, so acknowledgements and pulls reach it subject to the
// same partitions, loss and admission as any other traffic.
func NewDistributor(cfg DistributorConfig) (*Distributor, error) {
	if cfg.Collective == nil {
		return nil, errors.New("core: distributor needs a collective")
	}
	roots := cfg.Roots
	if len(roots) == 0 {
		return nil, errors.New("core: distributor needs at least one root")
	}
	id := cfg.ID
	if id == "" {
		id = "bundle-distributor"
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	threshold := cfg.StuckThreshold
	if threshold <= 0 {
		threshold = 3
	}
	batch := cfg.FanoutBatch
	if batch <= 0 {
		batch = defaultFanoutBatch
	}
	x := &Distributor{
		col:            cfg.Collective,
		id:             id,
		clock:          clock,
		engine:         cfg.Engine,
		fanoutBatch:    batch,
		stuckThreshold: threshold,
		onStuck:        cfg.OnStuck,
		rootOf:         make(map[string]int, len(roots)),
		reg:            cfg.Telemetry,
		cPushed:        cfg.Telemetry.Counter("bundle.pushed"),
		cAcked:         cfg.Telemetry.Counter("bundle.acked"),
		cRepairs:       cfg.Telemetry.Counter("bundle.repairs"),
		cPulls:         cfg.Telemetry.Counter("bundle.pulls"),
		cBadPayload:    cfg.Telemetry.Counter("bundle.bad_payload"),
		cForgedAck:     cfg.Telemetry.Counter("bundle.forged_report", "topic", TopicBundleAck),
		cForgedPull:    cfg.Telemetry.Counter("bundle.forged_report", "topic", TopicBundlePull),
		cBytesFull:     cfg.Telemetry.Counter("bundle.bytes_on_wire", "kind", bundle.KindFull),
		cBytesDelta:    cfg.Telemetry.Counter("bundle.bytes_on_wire", "kind", bundle.KindDelta),
		cActFull:       cfg.Telemetry.Counter("bundle.activated", "kind", bundle.KindFull),
		cActDelta:      cfg.Telemetry.Counter("bundle.activated", "kind", bundle.KindDelta),
		slotOf:         make(map[string]int32),
	}
	for _, rc := range roots {
		if rc.Signer == nil {
			return nil, fmt.Errorf("core: root %q needs a signer", rc.Org)
		}
		if _, dup := x.rootOf[rc.Org]; dup {
			return nil, fmt.Errorf("core: duplicate root org %q", rc.Org)
		}
		label := rootLabel(rc.Org)
		x.rootOf[rc.Org] = len(x.roots)
		x.roots = append(x.roots, &distRoot{
			org:           rc.Org,
			label:         label,
			pub:           bundle.NewOrgPublisher(rc.Signer, rc.Org),
			ledger:        audit.New(audit.WithClock(clock)),
			gRevision:     cfg.Telemetry.Gauge("bundle.revision", "root", label),
			gLagging:      cfg.Telemetry.Gauge("bundle.lagging", "root", label),
			cScopeRej:     cfg.Telemetry.Counter("bundle.scope_rejected", "root", label),
			cEncodeFailed: cfg.Telemetry.Counter("bundle.encode_failed", "root", label),
		})
	}
	if x.onStuck == nil {
		x.onStuck = func(deviceID string) {
			cfg.Collective.Watchdog().ObserveDenial(deviceID)
		}
	}
	if err := cfg.Collective.bus.AttachLane(id, x.handle); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return x, nil
}

// Orgs returns the root orgs in configuration order.
func (x *Distributor) Orgs() []string {
	out := make([]string, len(x.roots))
	for i, r := range x.roots {
		out[i] = r.org
	}
	return out
}

// RootLedger returns one org root's activation ledger — one
// hash-chained entry per status report (ack or rejection) the root
// received — or nil for an unknown org.
func (x *Distributor) RootLedger(org string) *audit.Log {
	if ri, ok := x.rootOf[org]; ok {
		return x.roots[ri].ledger
	}
	return nil
}

// RootRevision returns one org root's latest published revision (0
// for an unknown org).
func (x *Distributor) RootRevision(org string) uint64 {
	if ri, ok := x.rootOf[org]; ok {
		return x.roots[ri].pub.Revision()
	}
	return 0
}

// AckedRevisionRoot returns a device's last acknowledged revision on
// one org root.
func (x *Distributor) AckedRevisionRoot(org, deviceID string) uint64 {
	ri, ok := x.rootOf[org]
	if !ok {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if slot, ok := x.slotOf[deviceID]; ok {
		return x.fleet[slot].sub[ri].acked
	}
	return 0
}

// LaggingRoot returns the devices lagging one org root, sorted.
func (x *Distributor) LaggingRoot(org string) []string {
	ri, ok := x.rootOf[org]
	if !ok {
		return nil
	}
	cur := x.roots[ri].pub.Revision()
	var out []string
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, slot := range x.order {
		if e := &x.fleet[slot]; e.sub[ri].subscribed && e.sub[ri].acked < cur {
			out = append(out, e.id)
		}
	}
	return out
}

// RootLagging counts the devices lagging one org root — len(LaggingRoot)
// read from the root's books, without listing them (0 for an unknown
// org).
func (x *Distributor) RootLagging(org string) int {
	ri, ok := x.rootOf[org]
	if !ok {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.roots[ri].lagging
}

// Converged reports whether every enrolled device acknowledged the
// current revision of every root it subscribes to.
func (x *Distributor) Converged() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, r := range x.roots {
		if r.lagging > 0 {
			return false
		}
	}
	return true
}

// Stuck returns devices flagged as stuck on any root (repairs beyond
// the threshold), sorted.
func (x *Distributor) Stuck() []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	var out []string
	for _, slot := range x.order {
		e := &x.fleet[slot]
		for ri := range x.roots {
			if e.sub[ri].stuck {
				out = append(out, e.id)
				break
			}
		}
	}
	return out
}

// EnrollRoots registers a collective member into the distribution
// plane, subscribed to the given org roots: one device-side bundle
// agent per root, each verifying against v and bound to the member's
// policy set, with the member's bundle topics routed to them. In the
// coalition shape each org's devices follow their own root's revision
// stream; a bundle claiming an org the device is not subscribed to is
// refused with cause "scope". The agents fail closed — every refused
// bundle is audited to the shared log with its cause, reported back to
// the distributor, and leaves the device on its previous verified
// revision.
func (x *Distributor) EnrollRoots(deviceID string, v bundle.Verifier, orgs ...string) error {
	d, ok := x.col.Device(deviceID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, deviceID)
	}
	if len(orgs) == 0 {
		return fmt.Errorf("core: device %q enrolled with no roots", deviceID)
	}
	agents := make(map[string]*bundle.Agent, len(orgs))
	var primary *bundle.Agent
	primaryOrg := ""
	ris := make([]int, 0, len(orgs))
	for _, org := range orgs {
		ri, known := x.rootOf[org]
		if !known {
			return fmt.Errorf("core: unknown root org %q", org)
		}
		if _, dup := agents[org]; dup {
			continue
		}
		agent := bundle.NewOrgAgent(d.Policies(), v, org)
		agents[org] = agent
		if primary == nil {
			primary = agent
			primaryOrg = org
		}
		ris = append(ris, ri)
	}
	x.col.SetBundleHandler(deviceID, x.deviceHandler(deviceID, agents, primary, primaryOrg))
	x.mu.Lock()
	slot := x.slotLocked(deviceID)
	for _, ri := range ris {
		sub := &x.fleet[slot].sub[ri]
		if sub.subscribed {
			continue
		}
		sub.subscribed = true
		if r := x.roots[ri]; sub.acked < r.published {
			r.setLaggingLocked(r.lagging + 1)
		}
	}
	if !x.fleet[slot].enrolled {
		x.fleet[slot].enrolled = true
		at := sort.Search(len(x.order), func(i int) bool {
			return x.fleet[x.order[i]].id >= deviceID
		})
		x.order = append(x.order, 0)
		copy(x.order[at+1:], x.order[at:])
		x.order[at] = slot
	}
	x.mu.Unlock()
	return nil
}

// PublishRoot cuts and signs one org root's next revision from the
// desired policy set and fans it out to that root's subscribers — a
// delta from each device's acked revision when that base is still in
// history, a full bundle otherwise. With an engine configured the
// fan-out runs as sharded batch events; either way it must be called
// from serial-barrier context.
func (x *Distributor) PublishRoot(org string, desired []policy.Policy) (uint64, error) {
	ri, ok := x.rootOf[org]
	if !ok {
		return 0, fmt.Errorf("core: unknown root org %q", org)
	}
	r := x.roots[ri]
	full, _, err := r.pub.Publish(desired)
	if err != nil {
		return 0, err
	}
	rev := full.Manifest.Revision
	x.reg.Counter("bundle.published", "kind", full.Kind()).Inc()
	r.gRevision.Set(float64(rev))
	x.col.Audit().Append(audit.KindBundle, x.id, "bundle.published",
		map[string]string{"root": r.label, "revision": strconv.FormatUint(rev, 10), "policies": strconv.Itoa(len(full.Manifest.Coverage))})
	x.fanoutRoot(ri, rev)
	return rev, nil
}

// fanoutRoot pushes the root's current revision to every subscriber.
// It slices the canonical order into batches of FanoutBatch devices;
// with an engine each batch is a sharded event keyed by its first
// device, with none it runs inline (serial-barrier caller, nil lane).
// The scan that collects the subscribers also recounts the root's
// lagging books against rev, the one O(fleet) pass per publish, before
// any push can draw an ack (on the synchronous bus acks arrive inside
// the fan-out).
func (x *Distributor) fanoutRoot(ri int, rev uint64) {
	r := x.roots[ri]
	x.mu.Lock()
	subs := make([]int32, 0, len(x.order))
	lagging := 0
	for _, slot := range x.order {
		if sub := &x.fleet[slot].sub[ri]; sub.subscribed {
			subs = append(subs, slot)
			if sub.acked < rev {
				lagging++
			}
		}
	}
	r.published = rev
	r.setLaggingLocked(lagging)
	x.mu.Unlock()

	for start := 0; start < len(subs); start += x.fanoutBatch {
		end := start + x.fanoutBatch
		if end > len(subs) {
			end = len(subs)
		}
		batch := subs[start:end]
		if x.engine == nil {
			x.pushBatch(ri, batch, nil)
			continue
		}
		x.mu.Lock()
		shard := x.fleet[batch[0]].id
		x.mu.Unlock()
		x.engine.ScheduleShard(0, shard, func(lane *sim.Lane) {
			x.pushBatch(ri, batch, lane)
		})
	}
}

// pushBatch is one sharded fan-out event: it pushes to each device of
// the batch from its acked base, read under the fleet lock.
func (x *Distributor) pushBatch(ri int, batch []int32, lane *sim.Lane) {
	for _, slot := range batch {
		x.mu.Lock()
		id, base := x.fleet[slot].id, x.fleet[slot].sub[ri].acked
		x.mu.Unlock()
		x.pushTo(lane, ri, id, base)
	}
}

// RepairSweep is the anti-entropy pass over every root: each
// subscribed device whose acknowledged revision trails the root's
// published one gets a repair push. Devices that keep needing repair
// beyond the stuck threshold are audited and escalated through OnStuck
// exactly once per stall per root. Must run from serial-barrier
// context. Returns the number of repair pushes.
func (x *Distributor) RepairSweep() int {
	repaired := 0
	for ri := range x.roots {
		repaired += x.repairRoot(ri)
	}
	return repaired
}

func (x *Distributor) repairRoot(ri int) int {
	r := x.roots[ri]
	cur := r.pub.Revision()
	if cur == 0 {
		return 0
	}
	repaired := 0
	for _, slot := range x.repairSweepOrder() {
		x.mu.Lock()
		e := &x.fleet[slot]
		sub := &e.sub[ri]
		if !sub.subscribed {
			x.mu.Unlock()
			continue
		}
		id := e.id
		base := sub.acked
		if base >= cur {
			sub.repairs = 0
			x.mu.Unlock()
			continue
		}
		sub.repairs++
		count := sub.repairs
		alreadyStuck := sub.stuck
		if count > x.stuckThreshold && !alreadyStuck {
			sub.stuck = true
		}
		x.mu.Unlock()

		if count > x.stuckThreshold && !alreadyStuck {
			x.col.Audit().Append(audit.KindBundle, x.id, "bundle.stuck",
				map[string]string{"device": id, "root": r.label, "repairs": fmt.Sprint(count)})
			x.onStuck(id)
		}
		x.cRepairs.Inc()
		x.pushTo(nil, ri, id, base)
		repaired++
	}
	return repaired
}

// repairSweepOrder snapshots the canonical order into the reusable
// sweep buffer. RepairSweep runs from serial-barrier context, so one
// buffer suffices.
func (x *Distributor) repairSweepOrder() []int32 {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.sweep = append(x.sweep[:0], x.order...)
	return x.sweep
}

// pushTo encodes and sends the best bundle for a device at the given
// base revision on one root, from the wire cache.
func (x *Distributor) pushTo(lane *sim.Lane, ri int, deviceID string, base uint64) {
	w, err := x.roots[ri].wireFor(base)
	if err != nil {
		x.recordWireErr(ri, deviceID, err, lane)
		return
	}
	x.countPush(w)
	x.send(lane, network.Message{From: x.id, To: deviceID, Topic: TopicBundle, Payload: w.data})
}

// recordWireErr accounts a failed bundle materialization. A root with
// nothing published yet is benign (nothing to send); an encode failure
// is a real drop and is counted and audited — the PR 5 rule: a message
// may die, but never silently.
func (x *Distributor) recordWireErr(ri int, deviceID string, err error, lane *sim.Lane) {
	if errors.Is(err, errNothingPublished) {
		return
	}
	r := x.roots[ri]
	r.cEncodeFailed.Inc()
	audit.Resolve(lane, x.col.Audit()).Append(audit.KindBundle, x.id, "bundle.encode_failed",
		map[string]string{"device": deviceID, "root": r.label, "error": err.Error()})
}

// countPush accounts one outbound bundle push.
func (x *Distributor) countPush(w wireEntry) {
	if w.kind == bundle.KindDelta {
		x.cBytesDelta.Add(int64(len(w.data)))
	} else {
		x.cBytesFull.Add(int64(len(w.data)))
	}
	x.cPushed.Inc()
}

// send pushes one distribution-plane message through the caller's
// lane. A failed send is survivable by design — lost pushes are
// re-pushed by repair sweeps, lost acks re-acked on the next stale
// re-delivery, lost pulls retried on the next gap — but never silent:
// each is counted by topic so a persistently failing link shows up in
// telemetry before the watchdog escalation does.
func (x *Distributor) send(lane *sim.Lane, m network.Message) {
	if err := x.col.bus.Send(lane, m); err != nil {
		x.reg.Counter("bundle.send_failed", "topic", m.Topic).Inc()
	}
}

// handle is the distributor's lane handler: all acks and pulls shard on
// the distributor's bus ID, so ledger appends and revision bookkeeping
// are serialized and deterministic. Pull repairs are sent through the
// lane.
//
// A report's device identity is taken from the bus envelope, never
// from the payload: a compromised device claiming another device's
// identity in an ack (masking that device from repair) or in a pull is
// dropped, counted and audited instead of believed. A report naming an
// org with no root is malformed and dropped the same way, never
// credited to another root.
func (x *Distributor) handle(m network.Message, lane *sim.Lane) {
	switch m.Topic {
	case TopicBundleAck:
		ack, ok := m.Payload.(BundleAck)
		if !ok {
			x.recordBadPayload(m, lane)
			return
		}
		if m.From != ack.Device {
			x.recordForged(m, ack.Device, x.cForgedAck, lane)
			return
		}
		ri, known := x.rootOf[ack.Org]
		if !known {
			x.recordBadPayload(m, lane)
			return
		}
		r := x.roots[ri]
		x.cAcked.Inc()
		ctx := map[string]string{
			"revision": strconv.FormatUint(ack.Revision, 10),
			"applied":  strconv.FormatBool(ack.Applied),
		}
		if ack.Cause != "" {
			ctx["cause"] = ack.Cause
		}
		audit.Resolve(lane, r.ledger).Append(audit.KindBundle, ack.Device, "bundle.status", ctx)
		x.mu.Lock()
		sub := &x.fleet[x.slotLocked(ack.Device)].sub[ri]
		// Acked revisions only rise: an ack can take a subscriber off
		// the lagging books, never put one on.
		wasLagging := sub.subscribed && sub.acked < r.published
		if ack.Revision > sub.acked {
			sub.acked = ack.Revision
		}
		if sub.acked >= r.published {
			if wasLagging {
				r.setLaggingLocked(r.lagging - 1)
			}
			sub.repairs = 0
			sub.stuck = false
		}
		x.mu.Unlock()
	case TopicBundlePull:
		pull, ok := m.Payload.(BundlePull)
		if !ok {
			x.recordBadPayload(m, lane)
			return
		}
		if m.From != pull.Device {
			x.recordForged(m, pull.Device, x.cForgedPull, lane)
			return
		}
		ri, known := x.rootOf[pull.Org]
		if !known {
			x.recordBadPayload(m, lane)
			return
		}
		x.cPulls.Inc()
		x.pushTo(lane, ri, pull.Device, pull.Have)
	}
}

// recordForged accounts a status report whose payload claims a device
// other than the bus sender: dropped, counted, audited — never
// believed.
func (x *Distributor) recordForged(m network.Message, claimed string, c *telemetry.Counter, lane *sim.Lane) {
	c.Inc()
	audit.Resolve(lane, x.col.Audit()).Append(audit.KindBundle, x.id, "bundle.forged_report",
		map[string]string{"topic": m.Topic, "from": m.From, "claimed": claimed})
}

// recordBadPayload accounts a bundle-plane message whose payload is
// not the expected type or names an org with no root.
func (x *Distributor) recordBadPayload(m network.Message, lane *sim.Lane) {
	x.cBadPayload.Inc()
	audit.Resolve(lane, x.col.Audit()).Append(audit.KindBundle, x.id, "bundle.bad_payload",
		map[string]string{"topic": m.Topic, "from": m.From})
}

// deviceHandler builds the device-side lane handler: route the bundle
// to the agent of its claimed org root, verify, activate atomically,
// audit the outcome, and report status back. Rejections leave the
// policy set untouched and are counted by cause; a bundle for a root
// the device does not subscribe to is a scope refusal — the device
// never even verifies streams outside its coalition membership.
func (x *Distributor) deviceHandler(deviceID string, agents map[string]*bundle.Agent, primary *bundle.Agent, primaryOrg string) network.LaneHandler {
	return func(m network.Message, lane *sim.Lane) {
		if m.Topic != TopicBundle {
			return
		}
		data, ok := m.Payload.([]byte)
		if !ok {
			x.recordBadPayload(m, lane)
			return
		}
		log := x.col.Audit()
		b, err := bundle.Decode(data)
		agent, org := primary, primaryOrg
		if err == nil {
			if a, subscribed := agents[b.Manifest.Org]; subscribed {
				agent, org = a, b.Manifest.Org
			} else {
				org = b.Manifest.Org
				err = fmt.Errorf("%w: device not subscribed to org %q", bundle.ErrScope, org)
			}
		}
		var applied bool
		if err == nil {
			applied, err = agent.Apply(b)
		}
		rev := agent.Revision()
		ack := BundleAck{Device: deviceID, Org: org, Revision: rev, Applied: applied}
		if err != nil {
			cause := bundle.CauseOf(err)
			ack.Cause = cause
			x.reg.Counter("bundle.rejected", "cause", cause).Inc()
			if ri, known := x.rootOf[org]; known && cause == "scope" {
				x.roots[ri].cScopeRej.Inc()
			}
			audit.Resolve(lane, log).Append(audit.KindBundle, deviceID, "bundle.rejected",
				map[string]string{"cause": cause, "revision": strconv.FormatUint(rev, 10)})
			if errors.Is(err, bundle.ErrGap) {
				// The device knows it is behind a chain it cannot patch
				// from: pull repair instead of waiting for the sweep.
				x.send(lane, network.Message{
					From: deviceID, To: x.id, Topic: TopicBundlePull,
					Payload: BundlePull{Device: deviceID, Org: org, Have: rev},
				})
			}
		} else if applied {
			if b.Kind() == bundle.KindDelta {
				x.cActDelta.Inc()
			} else {
				x.cActFull.Inc()
			}
			audit.Resolve(lane, log).Append(audit.KindBundle, deviceID, "bundle.activated",
				map[string]string{"revision": strconv.FormatUint(rev, 10), "kind": b.Kind()})
		}
		x.send(lane, network.Message{From: deviceID, To: x.id, Topic: TopicBundleAck, Payload: ack})
	}
}
