// Package admission is the command plane's bounded front door: every
// message aimed at a recipient is either admitted into that
// recipient's bounded intake queue, shed with a typed cause
// (ErrQueueFull, ErrRateLimited), or — for gate-only callers —
// reserved against the same budget. Nothing is ever lost silently:
// the controller keeps exact per-class admitted/delivered/shed
// accounting, so the conservation invariant
//
//	admitted == delivered + queued
//	offered  == admitted + shed{cause}
//
// holds at every instant, which is what the paper's tamper-evident
// audit argument (Section VI) demands of a guarded collective and
// what an execution control plane for autonomous action paths
// requires: every request admitted, bounded, and attributable.
//
// Intake is prioritized: human commands outrank guard/collaboration
// traffic, which outranks gossip and other background chatter. When a
// queue is full, an arriving higher-priority message evicts the
// newest lowest-priority occupant (the eviction is shed-with-cause,
// never silent); an arriving message that is itself lowest priority
// is rejected. Token buckets refill on a caller-supplied clock —
// the simulation's virtual clock in tests and experiments — so
// admission decisions are deterministic and reproducible.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Class is a message priority class. Lower values are higher
// priority.
type Class int

// Priority classes, highest first.
const (
	// ClassHuman is direct human command intake — never outranked.
	ClassHuman Class = iota
	// ClassGuard is guard verdict and device-collaboration traffic.
	ClassGuard
	// ClassBackground is gossip, anti-entropy and other chatter.
	ClassBackground

	numClasses = 3
)

// String returns the class's canonical label (used on metrics).
func (c Class) String() string {
	switch c {
	case ClassHuman:
		return "human"
	case ClassGuard:
		return "guard"
	case ClassBackground:
		return "background"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists every priority class, highest priority first.
func Classes() []Class {
	return []Class{ClassHuman, ClassGuard, ClassBackground}
}

// ClassifyTopic maps a bus topic onto its priority class: "command"
// is human intake; "action"/"guard"/"oversight" are collaboration
// traffic, as is "bundle" — a policy revision push is the oversight
// collective reasserting control, so it must not starve behind
// background chatter; everything else (gossip, bundle acks/pulls,
// telemetry chatter) is background — repair re-pushes make lost acks
// survivable, so the return path need not outrank guard traffic.
func ClassifyTopic(topic string) Class {
	switch topic {
	case "command":
		return ClassHuman
	case "action", "guard", "oversight", "bundle":
		return ClassGuard
	}
	return ClassBackground
}

// Typed shed errors. Callers branch on these with errors.Is; CauseOf
// maps them to the label used on admission.shed counters.
var (
	// ErrQueueFull means the recipient's bounded intake queue had no
	// room and the message could not displace a lower-priority one.
	ErrQueueFull = errors.New("admission: queue full")
	// ErrRateLimited means the recipient's token bucket was empty.
	ErrRateLimited = errors.New("admission: rate limited")
)

// Shed causes, as labeled on admission.shed.
const (
	CauseQueueFull   = "queue_full"
	CauseRateLimited = "rate_limited"
)

// CauseOf returns the canonical cause label for a shed error ("" for
// nil or non-admission errors).
func CauseOf(err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return CauseQueueFull
	case errors.Is(err, ErrRateLimited):
		return CauseRateLimited
	}
	return ""
}

// Config sizes a Controller.
type Config struct {
	// QueueCapacity bounds each recipient's intake queue (default 64).
	QueueCapacity int
	// Rate is the per-recipient token refill rate in tokens per
	// second; 0 disables rate limiting.
	Rate float64
	// Burst is the token bucket capacity (default max(Rate, 1)).
	Burst float64
	// Now supplies the time used for token refill and queue-wait
	// measurement; nil defaults to time.Now. Pass a virtual clock for
	// deterministic admission decisions.
	Now func() time.Time
	// DrainBatch bounds how many messages one Drain call pops
	// (default 32).
	DrainBatch int
	// DrainInterval is the suggested redrain period for schedulers
	// that batch-drain the queues (default 1ms); the controller only
	// stores it.
	DrainInterval time.Duration
	// Metrics, when set, registers the admission telemetry family:
	// admission.admitted{class}, admission.delivered{class},
	// admission.shed{cause,class}, the admission.queue_depth gauge
	// and the admission.wait_ms{class} histogram.
	Metrics *telemetry.Registry
	// OnEvict observes each queued item displaced by a
	// higher-priority arrival, after the controller's lock is
	// released — the owner of the queued payloads uses it to keep its
	// own books exact. May be nil.
	OnEvict func(recipient string, item Item)
}

// Item is one admitted message awaiting drain.
type Item struct {
	// Class is the priority class the item was admitted under.
	Class Class
	// Payload is the caller's message.
	Payload any
	// EnqueuedAt is the admission time (from Config.Now).
	EnqueuedAt time.Time
}

// Counts is a point-in-time accounting snapshot, by class.
type Counts struct {
	// Offered counts every Admit/Allow attempt.
	Offered [numClasses]int64
	// Admitted counts attempts that passed the gate.
	Admitted [numClasses]int64
	// Delivered counts items popped by Drain (Allow reservations are
	// delivered implicitly and counted on admission).
	Delivered [numClasses]int64
	// ShedQueueFull and ShedRateLimited count sheds by cause.
	ShedQueueFull   [numClasses]int64
	ShedRateLimited [numClasses]int64
	// Evicted counts the subset of ShedQueueFull that were already
	// queued when a higher-priority arrival displaced them.
	Evicted [numClasses]int64
}

// Of returns the per-class slot for c (panics on out-of-range
// classes, which cannot be produced by this package).
func classIdx(c Class) int {
	if c < 0 || c >= numClasses {
		panic(fmt.Sprintf("admission: invalid class %d", int(c)))
	}
	return int(c)
}

// Total sums one per-class array.
func Total(a [numClasses]int64) int64 {
	var t int64
	for _, v := range a {
		t += v
	}
	return t
}

// queue is one recipient's intake state.
type queue struct {
	perClass [numClasses][]Item
	depth    int

	tokens     float64
	lastRefill time.Time
	primed     bool

	// draining marks that a scheduler already has a drain pass
	// pending for this recipient (see BeginDrain/FinishDrain).
	draining bool
}

// Controller is the admission front door for a set of recipients.
// All methods are safe for concurrent use; determinism under a
// parallel scheduler comes from callers admitting to and draining each
// recipient on its own shard (or from a serial context), since a
// queue's arrival order decides what it sheds.
type Controller struct {
	cfg Config

	mu     sync.Mutex
	queues map[string]*queue
	depth  int // total queued across recipients
	counts Counts

	// cached metric handles, indexed by class (nil without Metrics).
	cAdmitted  [numClasses]*telemetry.Counter
	cDelivered [numClasses]*telemetry.Counter
	cShedFull  [numClasses]*telemetry.Counter
	cShedRate  [numClasses]*telemetry.Counter
	hWait      [numClasses]*telemetry.Histogram
	gDepth     *telemetry.Gauge
}

// New builds a Controller, validating and defaulting the config.
func New(cfg Config) (*Controller, error) {
	if cfg.QueueCapacity < 0 {
		return nil, fmt.Errorf("admission: negative queue capacity %d", cfg.QueueCapacity)
	}
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("admission: negative rate %g", cfg.Rate)
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.DrainBatch <= 0 {
		cfg.DrainBatch = 32
	}
	if cfg.DrainInterval <= 0 {
		cfg.DrainInterval = time.Millisecond
	}
	c := &Controller{cfg: cfg, queues: make(map[string]*queue)}
	if reg := cfg.Metrics; reg != nil {
		for _, cl := range Classes() {
			i := classIdx(cl)
			c.cAdmitted[i] = reg.Counter("admission.admitted", "class", cl.String())
			c.cDelivered[i] = reg.Counter("admission.delivered", "class", cl.String())
			c.cShedFull[i] = reg.Counter("admission.shed", "cause", CauseQueueFull, "class", cl.String())
			c.cShedRate[i] = reg.Counter("admission.shed", "cause", CauseRateLimited, "class", cl.String())
			c.hWait[i] = reg.Histogram("admission.wait_ms", "class", cl.String())
		}
		c.gDepth = reg.Gauge("admission.queue_depth")
	}
	return c, nil
}

// SetOnEvict installs the eviction observer (see Config.OnEvict).
// Setup-time only — the transport that owns the queued payloads calls
// it once before traffic flows; it is not safe concurrently with
// Admit.
func (c *Controller) SetOnEvict(fn func(recipient string, item Item)) {
	c.cfg.OnEvict = fn
}

// DrainBatch returns the configured per-pass drain bound.
func (c *Controller) DrainBatch() int { return c.cfg.DrainBatch }

// DrainInterval returns the suggested redrain period.
func (c *Controller) DrainInterval() time.Duration { return c.cfg.DrainInterval }

// queueFor returns (creating if needed) the recipient's queue; the
// caller holds c.mu.
func (c *Controller) queueFor(recipient string) *queue {
	q := c.queues[recipient]
	if q == nil {
		q = &queue{}
		c.queues[recipient] = q
	}
	return q
}

// takeToken refills and consumes one token; the caller holds c.mu.
// Rate 0 admits unconditionally.
func (c *Controller) takeToken(q *queue, now time.Time) bool {
	if c.cfg.Rate <= 0 {
		return true
	}
	if !q.primed {
		q.tokens = c.cfg.Burst
		q.lastRefill = now
		q.primed = true
	} else if dt := now.Sub(q.lastRefill); dt > 0 {
		q.tokens += c.cfg.Rate * dt.Seconds()
		if q.tokens > c.cfg.Burst {
			q.tokens = c.cfg.Burst
		}
		q.lastRefill = now
	}
	if q.tokens < 1 {
		return false
	}
	q.tokens--
	return true
}

// Admit classifies one message into the recipient's intake queue. On
// success the message is queued for Drain; on failure the typed shed
// error names the cause and the shed is counted — an Admit is never a
// silent drop. A full queue admits a higher-priority arrival by
// evicting the newest lowest-priority occupant (that eviction is
// itself counted as shed with cause queue_full, under the evicted
// item's class).
func (c *Controller) Admit(recipient string, class Class, payload any) error {
	i := classIdx(class)
	now := c.cfg.Now()
	c.mu.Lock()
	q := c.queueFor(recipient)
	c.counts.Offered[i]++
	if !c.takeToken(q, now) {
		c.counts.ShedRateLimited[i]++
		c.mu.Unlock()
		c.cShedRate[i].Inc()
		return fmt.Errorf("%w: %s intake for %q", ErrRateLimited, class, recipient)
	}
	var evicted Item
	var didEvict bool
	if q.depth >= c.cfg.QueueCapacity {
		evicted, didEvict = c.evictLocked(q, class)
		if !didEvict {
			depth := q.depth
			c.counts.ShedQueueFull[i]++
			c.mu.Unlock()
			c.cShedFull[i].Inc()
			return fmt.Errorf("%w: %s intake for %q (depth %d)", ErrQueueFull, class, recipient, depth)
		}
	}
	q.perClass[i] = append(q.perClass[i], Item{Class: class, Payload: payload, EnqueuedAt: now})
	q.depth++
	c.depth++
	c.counts.Admitted[i]++
	// The depth gauge updates under the lock so its final value is
	// exact (last-writer races would leave it stale).
	c.gDepth.Set(float64(c.depth))
	c.mu.Unlock()
	c.cAdmitted[i].Inc()
	if didEvict {
		c.cShedFull[classIdx(evicted.Class)].Inc()
		if c.cfg.OnEvict != nil {
			c.cfg.OnEvict(recipient, evicted)
		}
	}
	return nil
}

// evictLocked removes the newest occupant of the lowest-priority
// non-empty class, provided that class is strictly lower priority
// than the arrival, and returns it. The eviction is accounted as a
// shed with cause queue_full under the evicted item's class.
func (c *Controller) evictLocked(q *queue, arriving Class) (Item, bool) {
	for i := numClasses - 1; i > classIdx(arriving); i-- {
		n := len(q.perClass[i])
		if n == 0 {
			continue
		}
		it := q.perClass[i][n-1]
		q.perClass[i] = q.perClass[i][:n-1]
		q.depth--
		c.depth--
		c.counts.ShedQueueFull[i]++
		c.counts.Evicted[i]++
		return it, true
	}
	return Item{}, false
}

// Allow is the gate-only form of Admit for callers that deliver
// through their own path (a dispatcher admitting before it enters the
// resilience stack): it consumes a token and checks queue headroom but
// enqueues nothing. An allowed call counts as admitted and delivered
// at once, keeping the conservation counts exact.
func (c *Controller) Allow(recipient string, class Class) error {
	i := classIdx(class)
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queueFor(recipient)
	c.counts.Offered[i]++
	if !c.takeToken(q, now) {
		c.counts.ShedRateLimited[i]++
		c.cShedRate[i].Inc()
		return fmt.Errorf("%w: %s intake for %q", ErrRateLimited, class, recipient)
	}
	if q.depth >= c.cfg.QueueCapacity {
		c.counts.ShedQueueFull[i]++
		c.cShedFull[i].Inc()
		return fmt.Errorf("%w: %s intake for %q (depth %d)", ErrQueueFull, class, recipient, q.depth)
	}
	c.counts.Admitted[i]++
	c.counts.Delivered[i]++
	c.cAdmitted[i].Inc()
	c.cDelivered[i].Inc()
	return nil
}

// Drain pops up to DrainBatch admitted items for the recipient, in
// strict priority order (FIFO within a class), recording each item's
// queue wait. Returns nil when the queue is empty.
func (c *Controller) Drain(recipient string) []Item {
	now := c.cfg.Now()
	c.mu.Lock()
	q := c.queues[recipient]
	if q == nil || q.depth == 0 {
		c.mu.Unlock()
		return nil
	}
	max := c.cfg.DrainBatch
	out := make([]Item, 0, min(max, q.depth))
	for i := 0; i < numClasses && len(out) < max; i++ {
		cls := q.perClass[i][:]
		take := min(max-len(out), len(cls))
		if take == 0 {
			continue
		}
		out = append(out, cls[:take]...)
		rest := cls[take:]
		// Copy down instead of re-slicing so dropped prefixes do not
		// pin the backing array.
		q.perClass[i] = append(q.perClass[i][:0], rest...)
		q.depth -= take
		c.depth -= take
		c.counts.Delivered[i] += int64(take)
		c.cDelivered[i].Add(int64(take))
	}
	c.gDepth.Set(float64(c.depth))
	hw := c.hWait
	c.mu.Unlock()
	for _, it := range out {
		if h := hw[classIdx(it.Class)]; h != nil {
			h.Observe(float64(now.Sub(it.EnqueuedAt).Microseconds()) / 1000)
		}
	}
	return out
}

// BeginDrain marks the recipient as having a drain pass scheduled and
// reports whether this call made the transition (false when a pass is
// already pending). Schedulers use it to keep exactly one drain event
// in flight per recipient.
func (c *Controller) BeginDrain(recipient string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queueFor(recipient)
	if q.draining {
		return false
	}
	q.draining = true
	return true
}

// FinishDrain ends one drain pass: when the recipient still has
// queued items it stays marked as draining and FinishDrain returns
// true (the scheduler must run another pass); otherwise the mark is
// cleared and it returns false.
func (c *Controller) FinishDrain(recipient string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queues[recipient]
	if q == nil {
		return false
	}
	if q.depth > 0 {
		return true
	}
	q.draining = false
	return false
}

// Depth returns how many items are queued for the recipient.
func (c *Controller) Depth(recipient string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.queues[recipient]; q != nil {
		return q.depth
	}
	return 0
}

// TotalDepth returns the number of queued items across all
// recipients.
func (c *Controller) TotalDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.depth
}

// Counts returns the accounting snapshot.
func (c *Controller) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// CheckConservation verifies the controller's books balance exactly:
//
//	offered  == admitted + rejected        (every attempt gated once)
//	admitted == delivered + queued + evicted
//
// where rejected is the shed total minus evictions (an eviction sheds
// an already-admitted item, not an arrival). It returns a descriptive
// error on the first violation.
func (c *Controller) CheckConservation() error {
	c.mu.Lock()
	counts := c.counts
	depth := int64(c.depth)
	c.mu.Unlock()
	offered := Total(counts.Offered)
	admitted := Total(counts.Admitted)
	delivered := Total(counts.Delivered)
	evicted := Total(counts.Evicted)
	shed := Total(counts.ShedQueueFull) + Total(counts.ShedRateLimited)
	rejected := shed - evicted
	if rejected < 0 {
		return fmt.Errorf("admission: evictions %d exceed sheds %d", evicted, shed)
	}
	if offered != admitted+rejected {
		return fmt.Errorf("admission: offered %d != admitted %d + rejected %d", offered, admitted, rejected)
	}
	if admitted != delivered+depth+evicted {
		return fmt.Errorf("admission: admitted %d != delivered %d + queued %d + evicted %d",
			admitted, delivered, depth, evicted)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
