package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// E16Params configures the saturation experiment: a fleet driven past
// its admission capacity while chaos windows inject loss and
// duplication, with the conservation invariant checked exactly.
type E16Params struct {
	// Seed drives the bus fault sampling (deterministically).
	Seed int64
	// Fleet is the number of recipients.
	Fleet int
	// Rounds is the number of overload ticks.
	Rounds int
	// LightRounds is the number of within-capacity ticks appended after
	// the overload window (one send per recipient per tick), so the
	// duplication fault can exercise the duplicate-delivery path that
	// saturation starves.
	LightRounds int
	// PerRound is the number of sends per recipient per overload round;
	// with the default token rate it is 2x the admission capacity.
	PerRound int
	// Period is the load tick period.
	Period time.Duration
	// QueueCapacity bounds each recipient's intake queue.
	QueueCapacity int
	// Rate and Burst size the per-recipient token bucket.
	Rate  float64
	Burst float64
	// Horizon is the virtual run length (must leave room for queues to
	// drain after the load stops).
	Horizon time.Duration
	// Workers are the engine parallelism levels to compare; the first
	// must be 1 (the serial baseline).
	Workers []int
}

func (p *E16Params) defaults() {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Fleet <= 0 {
		p.Fleet = 6
	}
	if p.Rounds <= 0 {
		p.Rounds = 30
	}
	if p.LightRounds <= 0 {
		p.LightRounds = 20
	}
	if p.PerRound <= 0 {
		p.PerRound = 6 // 2x the 3-token-per-round refill
	}
	if p.Period <= 0 {
		p.Period = 5 * time.Millisecond
	}
	if p.QueueCapacity <= 0 {
		p.QueueCapacity = 4
	}
	if p.Rate <= 0 {
		p.Rate = 600 // 3 tokens per 5ms round
	}
	if p.Burst <= 0 {
		p.Burst = 3
	}
	if p.Horizon <= 0 {
		p.Horizon = 600 * time.Millisecond
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4}
	}
}

// E16Outcome is one configuration's measured result: the bus's full
// accounting plus a digest of every deterministic output the
// differential gate compares.
type E16Outcome struct {
	Workers    int
	Sent       int
	Delivered  int
	Dropped    int
	Shed       int
	Pending    int
	Duplicated int
	// Counts is the admission controller's per-class books.
	Counts admission.Counts
	// JournalLen and TipHash digest the hash-chained audit journal (one
	// entry per delivery).
	JournalLen int
	TipHash    string
	// Received sums per-recipient receipt counts (a state checksum).
	Received int
}

// e16Topics is the per-round topic mix; the rotation by round index
// spreads rate-limit sheds across all three priority classes while
// queue-full eviction still favors human traffic.
var e16Topics = []string{"command", "action", "gossip", "command", "gossip", "telemetry"}

// RunE16Workers drives the fleet at 2x admission capacity for the load
// window, opens a loss and a duplication window mid-run, lets the
// queues drain, and returns the exact books.
func RunE16Workers(p E16Params, workers int) (E16Outcome, error) {
	p.defaults()
	clock := sim.NewClock(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	metrics := telemetry.NewRegistry()

	ctrl, err := admission.New(admission.Config{
		QueueCapacity: p.QueueCapacity,
		Rate:          p.Rate,
		Burst:         p.Burst,
		Now:           clock.Now,
		DrainBatch:    1,
		DrainInterval: 20 * time.Millisecond,
		Metrics:       metrics,
	})
	if err != nil {
		return E16Outcome{}, err
	}
	bus := network.NewBus(rand.New(rand.NewSource(p.Seed)),
		network.WithEngine(engine),
		network.WithMetrics(metrics),
		network.WithAdmission(ctrl),
		network.WithLatency(time.Millisecond, time.Millisecond))

	received := make([]int, p.Fleet)
	for i := 0; i < p.Fleet; i++ {
		i := i
		id := fmt.Sprintf("node-%02d", i)
		// The lane handler owns only its recipient's slot and routes its
		// audit append through the lane, so parallel drains stay
		// deterministic.
		if err := bus.AttachLane(id, func(msg network.Message, lane *sim.Lane) {
			received[i]++
			lane.Route(log).Append(audit.KindNote, id, "recv "+msg.Topic, nil)
		}); err != nil {
			return E16Outcome{}, err
		}
	}

	// The load generators are barrier events: sends (and therefore the
	// bus's fault sampling order) are serial, which is what makes the
	// run reproducible at any parallelism.
	round := 0
	engine.ScheduleEvery(p.Period, func() bool { return round < p.Rounds }, func() {
		for r := 0; r < p.Fleet; r++ {
			to := fmt.Sprintf("node-%02d", r)
			for k := 0; k < p.PerRound; k++ {
				topic := e16Topics[(k+round)%len(e16Topics)]
				// Every outcome is accounted: nil (delivered or queued),
				// ErrDropped (loss window), or a typed admission shed.
				_ = conservedSend(bus, network.Message{
					From: "human", To: to, Topic: topic,
					Payload: fmt.Sprintf("r%d-k%d", round, k),
				})
			}
		}
		round++
	})

	// After the overload window and a 100ms drain gap, a light
	// within-capacity tail (one send per recipient per round) runs under
	// the duplication fault: under saturation a duplicate's second
	// admission always sheds, so the duplicate-delivery accounting can
	// only be exercised with headroom.
	gap := time.Duration(p.Rounds)*p.Period + 100*time.Millisecond
	light := 0
	engine.Schedule(gap, func() {
		engine.ScheduleEvery(p.Period, func() bool { return light < p.LightRounds }, func() {
			for r := 0; r < p.Fleet; r++ {
				topic := e16Topics[(light+r)%len(e16Topics)]
				_ = conservedSend(bus, network.Message{
					From: "human", To: fmt.Sprintf("node-%02d", r), Topic: topic,
					Payload: fmt.Sprintf("t%d", light),
				})
			}
			light++
		})
	})

	// Chaos windows: a loss burst while the system is saturated, a
	// duplication burst over the light tail. The bus defaults its rng
	// when faults are configured, so these can never be silent no-ops.
	lossOn := time.Duration(p.Rounds/3) * p.Period
	lossOff := time.Duration(2*p.Rounds/3) * p.Period
	dupOff := gap + time.Duration(p.LightRounds+1)*p.Period
	engine.Schedule(lossOn, func() { bus.SetLoss(0.25) })
	engine.Schedule(lossOff, func() { bus.SetLoss(0) })
	engine.Schedule(gap, func() { bus.SetDuplication(0.3) })
	engine.Schedule(dupOff, func() { bus.SetDuplication(0) })

	if err := engine.Run(clock.Now().Add(p.Horizon)); err != nil {
		return E16Outcome{}, err
	}

	if err := log.Verify(); err != nil {
		return E16Outcome{}, fmt.Errorf("audit chain (workers=%d): %w", workers, err)
	}
	if err := bus.CheckConservation(); err != nil {
		return E16Outcome{}, fmt.Errorf("workers=%d: %w", workers, err)
	}
	delivered, dropped := bus.Stats()
	out := E16Outcome{
		Workers:    workers,
		Sent:       bus.Sent(),
		Delivered:  delivered,
		Dropped:    dropped,
		Shed:       bus.Shed(),
		Pending:    bus.PendingAdmitted(),
		Duplicated: bus.Duplicated(),
		Counts:     ctrl.Counts(),
		JournalLen: log.Len(),
	}
	if entries := log.Entries(); len(entries) > 0 {
		out.TipHash = entries[len(entries)-1].Hash
	}
	for _, n := range received {
		out.Received += n
	}
	return out, nil
}

// conservedSend documents the accounting contract at the call site:
// the error is either nil or typed (dropped/shed), and in every case
// the bus's books already hold the outcome — there is nothing for the
// caller to lose.
func conservedSend(bus *network.Bus, msg network.Message) error {
	return bus.Send(msg)
}

// RunE16 measures saturation behavior: the fleet is offered 2x its
// admission capacity with loss and duplication bursts mid-run, and the
// acceptance bar is exact conservation — sent == delivered + dropped +
// shed (+ pending, which must drain to zero) — plus byte-identical
// journals at every parallelism and priority ordering under pressure
// (human commands shed less than background chatter).
func RunE16(p E16Params) (Result, error) {
	p.defaults()
	result := Result{
		ID:    "E16",
		Title: "Saturation: admission control conservation under overload",
		Headers: []string{"workers", "sent", "delivered", "dropped", "shed",
			"pending", "dup", "conserved", "tip", "identical"},
	}
	var base E16Outcome
	for i, workers := range p.Workers {
		out, err := RunE16Workers(p, workers)
		if err != nil {
			return Result{}, err
		}
		if out.Pending != 0 {
			return Result{}, fmt.Errorf("e16: %d admitted messages still queued at horizon (workers=%d)",
				out.Pending, workers)
		}
		if i == 0 {
			base = out
		}
		norm := out
		norm.Workers = base.Workers
		result.Rows = append(result.Rows, []string{
			itoa(workers), itoa(out.Sent), itoa(out.Delivered), itoa(out.Dropped),
			itoa(out.Shed), itoa(out.Pending), itoa(out.Duplicated),
			"exact", shortTip(out.TipHash), identical(i, norm == base),
		})
	}
	c := base.Counts
	human, guard, bg := admission.ClassHuman, admission.ClassGuard, admission.ClassBackground
	shedBy := func(cl admission.Class) int64 {
		return c.ShedQueueFull[cl] + c.ShedRateLimited[cl]
	}
	if shedBy(human) >= shedBy(bg) {
		return Result{}, fmt.Errorf("e16: priority inversion: human shed %d >= background shed %d",
			shedBy(human), shedBy(bg))
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("fleet=%d rounds=%d offered=%d/recipient/round vs capacity %d (2x overload), then a drain gap and %d within-capacity rounds; loss 25%% mid-overload, dup 30%% over the light tail",
			p.Fleet, p.Rounds, p.PerRound, int(p.Rate*p.Period.Seconds()), p.LightRounds),
		"invariant sent == delivered + dropped + shed held exactly; queues drained to 0 after load stopped",
		fmt.Sprintf("shed by class: human=%d guard=%d background=%d (priority preserved: human < background)",
			shedBy(human), shedBy(guard), shedBy(bg)),
		fmt.Sprintf("evictions (queued lower-priority displaced by higher): guard=%d background=%d; duplicates stay off the conservation books",
			c.Evicted[guard], c.Evicted[bg]),
		"equal tip hash over equal length = byte-identical hash-chained journal at every parallelism")
	return result, nil
}
