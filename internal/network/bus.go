// Package network provides the collective's communication substrate:
// an in-memory message bus with configurable latency, loss and
// partitions; a device registry with discovery notifications (the
// trigger for generative policy creation); and an anti-entropy gossip
// protocol for sharing policies and learned intelligence between
// devices ("enabling devices to share the intelligence they learn",
// Section I).
package network

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Common bus errors.
var (
	// ErrUnknownNode is returned when sending to a node that is not
	// attached.
	ErrUnknownNode = errors.New("network: unknown node")
	// ErrDropped is returned when the message was lost or blocked by a
	// partition.
	ErrDropped = errors.New("network: message dropped")
)

// Message is one unit of communication between devices.
type Message struct {
	From    string
	To      string
	Topic   string
	Payload any
}

// LaneHandler consumes delivered messages together with the delivery
// event's engine lane, so ordered side effects (audit appends, future
// schedules) stay deterministic when the engine runs in parallel. The
// lane is nil for synchronous (engine-less) deliveries; sim.Lane's
// methods treat a nil lane as direct, so one handler serves both modes.
type LaneHandler func(Message, *sim.Lane)

// Bus is an in-memory message bus. Delivery is synchronous when no
// engine is attached, or scheduled with uniform random latency when
// one is. Loss probability and partitions model degraded coalition
// networks. All methods are safe for concurrent use.
type Bus struct {
	mu sync.Mutex
	// seed keys every fault draw; unkeyed counts the lane-less sends,
	// the position of the next one (see Send).
	seed        uint64
	unkeyed     uint64
	engine      *sim.Engine
	metrics     *telemetry.Registry
	intake      *admission.Controller
	cSent       *telemetry.Counter
	cDelivered  *telemetry.Counter
	cDropLoss   *telemetry.Counter
	cDropPart   *telemetry.Counter
	cDropOneWay *telemetry.Counter
	cDup        *telemetry.Counter
	nodes       map[string]LaneHandler
	partition   map[string]int
	oneWay      map[string]map[string]bool
	lossProb    float64
	dupProb     float64
	minLatency  time.Duration
	maxLatency  time.Duration
	sent        int
	delivered   int
	dropped     int
	shed        int
	pending     int
	duplicated  int
	bridgeDrop  int
}

// BusOption configures a Bus.
type BusOption interface {
	apply(*Bus)
}

type busOptionFunc func(*Bus)

func (f busOptionFunc) apply(b *Bus) { f(b) }

// WithEngine schedules deliveries on the simulation engine with the
// configured latency instead of delivering synchronously.
func WithEngine(e *sim.Engine) BusOption {
	return busOptionFunc(func(b *Bus) { b.engine = e })
}

// WithLatency sets the uniform delivery latency range (requires an
// engine to take effect).
func WithLatency(min, max time.Duration) BusOption {
	return busOptionFunc(func(b *Bus) {
		if min < 0 {
			min = 0
		}
		if max < min {
			max = min
		}
		b.minLatency, b.maxLatency = min, max
	})
}

// WithLoss sets the probability a message is silently lost.
func WithLoss(p float64) BusOption {
	return busOptionFunc(func(b *Bus) { b.lossProb = clamp01(p) })
}

// WithDuplication sets the probability a delivered message is
// delivered a second time (with independent latency, so duplicates
// also reorder).
func WithDuplication(p float64) BusOption {
	return busOptionFunc(func(b *Bus) { b.dupProb = clamp01(p) })
}

// WithMetrics mirrors the bus's delivery accounting into a metrics
// registry (bus.sent, bus.delivered, bus.dropped labeled by cause, and
// bus.duplicated), making the fault model observable by experiments.
func WithMetrics(reg *telemetry.Registry) BusOption {
	return busOptionFunc(func(b *Bus) {
		b.metrics = reg
		if reg != nil {
			b.cSent = reg.Counter("bus.sent")
			b.cDelivered = reg.Counter("bus.delivered")
			b.cDropLoss = reg.Counter("bus.dropped", "cause", "loss")
			b.cDropPart = reg.Counter("bus.dropped", "cause", "partition")
			b.cDropOneWay = reg.Counter("bus.dropped", "cause", "oneway")
			b.cDup = reg.Counter("bus.duplicated")
		}
	})
}

// WithAdmission puts an admission controller in front of delivery:
// every Send that passes the fault model is classified by topic and
// either admitted into the recipient's bounded intake queue or shed
// with a typed cause (admission.ErrQueueFull,
// admission.ErrRateLimited). With an engine attached, queues drain in
// batches on engine events sharded by recipient, so a fixed seed
// yields identical delivery sequences at any parallelism; without an
// engine, admitted messages drain synchronously.
func WithAdmission(ctrl *admission.Controller) BusOption {
	return busOptionFunc(func(b *Bus) {
		b.intake = ctrl
		// A queued original displaced by a higher-priority arrival
		// must leave the bus's books as a shed, not vanish: the
		// controller already counted it (admission.shed, cause
		// queue_full), the hook keeps sent == delivered + dropped +
		// shed + pending exact. Evicted duplicates touch nothing —
		// they were never counted.
		ctrl.SetOnEvict(func(_ string, it admission.Item) {
			am, ok := it.Payload.(admittedMsg)
			if !ok || am.dup {
				return
			}
			b.mu.Lock()
			b.pending--
			b.shed++
			b.mu.Unlock()
		})
	})
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// NewBus builds a bus. Loss, duplication and latency are drawn from
// a seed taken from rng (a fixed one when rng is nil), so a fault
// injected at any point always takes effect.
func NewBus(rng *rand.Rand, opts ...BusOption) *Bus {
	b := &Bus{
		seed:      1,
		nodes:     make(map[string]LaneHandler),
		partition: make(map[string]int),
	}
	if rng != nil {
		b.seed = rng.Uint64()
	}
	for _, o := range opts {
		o.apply(b)
	}
	return b
}

// Presize grows the endpoint table to hold n lanes without incremental
// rehashing — call it before attaching a fleet of known size. It is a
// hint, not a limit, and is cheapest on a still-empty bus.
func (b *Bus) Presize(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= len(b.nodes) {
		return
	}
	nodes := make(map[string]LaneHandler, n)
	for k, v := range b.nodes {
		nodes[k] = v
	}
	b.nodes = nodes
}

// AttachLane registers a node's shard-safe handler under its ID: with
// an engine, deliveries are scheduled as engine events sharded by
// recipient ID, so a parallel engine may run deliveries to different
// recipients concurrently while each recipient's deliveries stay
// ordered. The handler must confine mutable state to the recipient
// (plus commutative telemetry) and route audit appends and
// re-schedules through the lane.
func (b *Bus) AttachLane(id string, h LaneHandler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if id == "" || h == nil {
		return errors.New("network: attach requires an id and handler")
	}
	if _, dup := b.nodes[id]; dup {
		return fmt.Errorf("network: node %q already attached", id)
	}
	b.nodes[id] = h
	return nil
}

// Detach removes a node and reports whether it was attached.
func (b *Bus) Detach(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.nodes[id]
	delete(b.nodes, id)
	delete(b.partition, id)
	return ok
}

// Nodes returns the attached node IDs, sorted.
func (b *Bus) Nodes() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.nodes))
	for id := range b.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Partition assigns nodes to partition groups; nodes in different
// groups cannot exchange messages. Unlisted nodes stay in group 0.
func (b *Bus) Partition(groups map[string]int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partition = make(map[string]int, len(groups))
	for id, g := range groups {
		b.partition[id] = g
	}
}

// Heal removes all partitions, symmetric and one-way.
func (b *Bus) Heal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partition = make(map[string]int)
	b.oneWay = nil
}

// PartitionOneWay blocks messages from any node in from to any node in
// to — but not the reverse direction. This is the asymmetric-partition
// fault: a push can arrive while its acknowledgement is lost (or vice
// versa), the failure mode anti-entropy repair exists for. Calls
// accumulate; HealOneWay or Heal clears them. Blocked sends are
// dropped with cause "oneway" on the bus's books.
func (b *Bus) PartitionOneWay(from, to []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.oneWay == nil {
		b.oneWay = make(map[string]map[string]bool)
	}
	for _, f := range from {
		blocked := b.oneWay[f]
		if blocked == nil {
			blocked = make(map[string]bool, len(to))
			b.oneWay[f] = blocked
		}
		for _, t := range to {
			blocked[t] = true
		}
	}
}

// HealOneWay removes every one-way block, leaving symmetric
// partitions in place.
func (b *Bus) HealOneWay() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.oneWay = nil
}

// SetLoss changes the loss probability at runtime (fault injection).
func (b *Bus) SetLoss(p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lossProb = clamp01(p)
}

// SetDuplication changes the duplication probability at runtime.
func (b *Bus) SetDuplication(p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dupProb = clamp01(p)
}

// SetLatency changes the delivery latency range at runtime (slow-link
// fault injection; requires an engine to take effect).
func (b *Bus) SetLatency(min, max time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	b.minLatency, b.maxLatency = min, max
}

// Send delivers a message to msg.To. It returns ErrUnknownNode for
// unattached receivers and ErrDropped for losses and partition blocks.
// With an engine attached, delivery is asynchronous and Send reports
// only send-time failures.
//
// Every loss, duplication and latency draw is a pure function of the
// bus seed and the send's position, so a fixed seed realizes the same
// faults at any worker count. A send from an engine event passes the
// event's lane: it is keyed by lane.Key and its delivery is scheduled
// through the lane. A lane-less send (nil lane, or any send on an
// engine-less bus) is keyed by the bus's count of such sends, so it
// must come from a serial context: a barrier event or a caller outside
// the run.
func (b *Bus) Send(lane *sim.Lane, msg Message) error {
	if b.engine == nil {
		lane = nil
	}
	seq, n, keyed := lane.Key()
	b.mu.Lock()
	h, ok := b.nodes[msg.To]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.To)
	}
	b.sent++
	b.cSent.Inc()
	if !keyed {
		n = b.unkeyed
		b.unkeyed++
	}
	if b.partition[msg.From] != b.partition[msg.To] {
		b.dropped++
		b.cDropPart.Inc()
		b.mu.Unlock()
		return fmt.Errorf("%w: partition between %q and %q", ErrDropped, msg.From, msg.To)
	}
	if b.oneWay != nil && b.oneWay[msg.From][msg.To] {
		b.dropped++
		b.cDropOneWay.Inc()
		b.mu.Unlock()
		return fmt.Errorf("%w: one-way partition %q -> %q", ErrDropped, msg.From, msg.To)
	}
	d := draws(mix64(mix64(b.seed^seq) + n))
	if d.chance(drawLoss, b.lossProb) {
		b.dropped++
		b.cDropLoss.Inc()
		b.mu.Unlock()
		return fmt.Errorf("%w: loss", ErrDropped)
	}
	latency := b.latencyLocked(d, drawLatency)
	duplicate := d.chance(drawDup, b.dupProb)
	if b.intake != nil {
		b.pending++
		b.mu.Unlock()
		if lane == nil {
			return b.admit(nil, msg, h, latency, duplicate)
		}
		// Arrival order decides what a full queue sheds, so admission
		// runs on the recipient's shard; its shed is booked, not returned.
		lane.ScheduleShard(0, msg.To, func(l *sim.Lane) { _ = b.admit(l, msg, h, latency, duplicate) })
		return nil
	}
	var dupLatency time.Duration
	if duplicate {
		// An independent latency sample makes duplicates arrive out of
		// order relative to the original.
		dupLatency = b.latencyLocked(d, drawDupLatency)
		b.duplicated++
		b.cDup.Inc()
	}
	b.delivered++
	b.cDelivered.Inc()
	b.mu.Unlock()

	if b.engine == nil {
		h(msg, nil)
		if duplicate {
			h(msg, nil)
		}
		return nil
	}
	deliver := func(l *sim.Lane) { h(msg, l) }
	b.schedule(lane, latency, msg.To, deliver)
	if duplicate {
		b.schedule(lane, dupLatency, msg.To, deliver)
	}
	return nil
}

// schedule queues fn on the recipient's shard: through the sender's
// lane when it has one, straight on the engine for serial callers.
func (b *Bus) schedule(lane *sim.Lane, delay time.Duration, to string, fn func(*sim.Lane)) {
	if lane == nil {
		b.engine.ScheduleShard(delay, to, fn)
		return
	}
	lane.ScheduleShard(delay, to, fn)
}

// admittedMsg is one bus message queued behind the admission
// controller; dup marks the extra copy injected by the duplication
// fault (delivered, but not counted as a delivered original).
type admittedMsg struct {
	msg Message
	dup bool
}

// admit offers a pending message to the recipient's intake queue: a
// shed moves it from pending to shed; an admitted one drains to the
// handler in priority order — synchronously without an engine, in
// batched drain events sharded by recipient with one.
func (b *Bus) admit(lane *sim.Lane, msg Message, h LaneHandler, latency time.Duration, duplicate bool) error {
	intake := b.intake
	class := admission.ClassifyTopic(msg.Topic)
	if err := intake.Admit(msg.To, class, admittedMsg{msg: msg}); err != nil {
		b.mu.Lock()
		b.pending--
		b.shed++
		b.mu.Unlock()
		return err
	}
	if duplicate {
		// The duplicate is a second admission attempt: under pressure
		// it sheds like any other arrival instead of bypassing the
		// bound. It stays off the conservation books — it counts as
		// duplicated only if it actually reaches the recipient.
		_ = intake.Admit(msg.To, class, admittedMsg{msg: msg, dup: true})
	}
	if b.engine == nil {
		for {
			items := intake.Drain(msg.To)
			if len(items) == 0 {
				return nil
			}
			b.deliverAdmitted(items, h, nil)
		}
	}
	if intake.BeginDrain(msg.To) {
		b.schedule(lane, latency, msg.To, func(l *sim.Lane) { b.drainPass(msg.To, h, l) })
	}
	return nil
}

// drainPass delivers one batch from the recipient's intake queue and
// reschedules itself (through the lane, keeping parallel runs
// deterministic) while messages remain.
func (b *Bus) drainPass(to string, h LaneHandler, lane *sim.Lane) {
	intake := b.intake
	items := intake.Drain(to)
	b.deliverAdmitted(items, h, lane)
	if !intake.FinishDrain(to) {
		return
	}
	lane.ScheduleShard(intake.DrainInterval(), to, func(l *sim.Lane) { b.drainPass(to, h, l) })
}

// deliverAdmitted hands drained items to the handler: originals move
// from pending to delivered, duplicates count as duplicated.
func (b *Bus) deliverAdmitted(items []admission.Item, h LaneHandler, lane *sim.Lane) {
	for _, it := range items {
		am, ok := it.Payload.(admittedMsg)
		if !ok {
			continue
		}
		b.mu.Lock()
		if am.dup {
			b.duplicated++
		} else {
			b.pending--
			b.delivered++
		}
		b.mu.Unlock()
		if am.dup {
			b.cDup.Inc()
		} else {
			b.cDelivered.Inc()
		}
		h(am.msg, lane)
	}
}

// Stats returns the delivered and dropped message counts. Every Send
// to an attached receiver counts exactly once as delivered, dropped,
// shed, or still pending behind admission, so
// sent == delivered + dropped + shed + pending at every instant
// (duplicates are tracked separately by Duplicated; CheckConservation
// asserts the invariant).
func (b *Bus) Stats() (delivered, dropped int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.delivered, b.dropped
}

// Sent returns how many Send calls addressed an attached recipient.
func (b *Bus) Sent() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sent
}

// Shed returns how many sends the admission controller refused with a
// typed cause (queue full, rate limited).
func (b *Bus) Shed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shed
}

// PendingAdmitted returns how many originals are offered to admission
// but not yet delivered or shed: queued awaiting drain, or, for a lane
// send, awaiting admission on the recipient's shard (0 without an
// admission controller; fault-injected duplicates queue alongside but
// are not counted here).
func (b *Bus) PendingAdmitted() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// BridgeDropped returns how many wire-bridged messages the bus
// refused (see BridgeToBus).
func (b *Bus) BridgeDropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bridgeDrop
}

// CheckConservation verifies the bus's books balance exactly:
// sent == delivered + dropped + shed + pending. Every message a
// caller handed to an attached recipient is therefore provably
// delivered, dropped-with-cause, shed-with-cause, or still queued —
// there is no silent path out.
func (b *Bus) CheckConservation() error {
	b.mu.Lock()
	sent, delivered, dropped, shed, pending := b.sent, b.delivered, b.dropped, b.shed, b.pending
	intake := b.intake
	b.mu.Unlock()
	if sent != delivered+dropped+shed+pending {
		return fmt.Errorf("network: conservation violated: sent %d != delivered %d + dropped %d + shed %d + pending %d",
			sent, delivered, dropped, shed, pending)
	}
	if intake != nil {
		if err := intake.CheckConservation(); err != nil {
			return err
		}
	}
	return nil
}

// countBridgeDrop records one wire-bridged message the bus refused.
func (b *Bus) countBridgeDrop(cause string) {
	b.mu.Lock()
	b.bridgeDrop++
	reg := b.metrics
	b.mu.Unlock()
	reg.Counter("bus.bridge_dropped", "cause", cause).Inc()
}

// Duplicated returns how many messages were delivered twice by the
// duplication fault.
func (b *Bus) Duplicated() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.duplicated
}

// latencyLocked returns a latency in [minLatency, maxLatency] from the
// send's draw at slot i.
func (b *Bus) latencyLocked(d draws, i uint64) time.Duration {
	span := uint64(b.maxLatency - b.minLatency)
	if span == 0 {
		return b.minLatency
	}
	offset, _ := bits.Mul64(d.at(i), span+1)
	return b.minLatency + time.Duration(offset)
}

// The draw slots of one send.
const drawLoss, drawLatency, drawDup, drawDupLatency = 0, 1, 2, 3

// draws is one send's SplitMix64 stream, started from a mix of the bus
// seed and the send's position: every fault draw is a pure function of
// those, never of the order in which workers reach the bus.
type draws uint64

// at returns the stream's i-th value.
func (d draws) at(i uint64) uint64 { return mix64(uint64(d) + (i+1)*0x9e3779b97f4a7c15) }

// chance reports whether slot i's draw falls under probability p.
func (d draws) chance(i uint64, p float64) bool {
	return p > 0 && float64(d.at(i)>>11)*0x1p-53 < p
}

// mix64 is SplitMix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
