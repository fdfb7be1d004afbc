package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// benchFleetSize reads DIST_BENCH_FLEET; the default keeps a run of
// every benchmark tolerable, and DIST_BENCH_FLEET=100000 gives the
// 100k-device fan-out measurement.
func benchFleetSize() int {
	if s := os.Getenv("DIST_BENCH_FLEET"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 20000
}

type fanoutWorld struct {
	engine *sim.Engine
	clock  *sim.Clock
	dist   *Distributor
	reg    *telemetry.Registry
	fleet  int
	desire [][]policy.Policy
	rev    int
}

// buildFanoutWorld constructs a two-root fleet (half us, half uk) with
// every device enrolled on its own org's root. workers==0 means no
// engine: the synchronous per-device fan-out loop over an inline bus
// (the pre-sharding shape). workers>0 wires the engine into both the
// bus and the distributor, so fan-out runs as sharded batch events.
func buildFanoutWorld(b *testing.B, fleet, workers int) *fanoutWorld {
	b.Helper()
	w := &fanoutWorld{clock: sim.NewClock(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)), fleet: fleet}
	w.reg = telemetry.NewRegistry()
	busOpts := []network.BusOption{}
	if workers > 0 {
		w.engine = sim.NewEngine(w.clock)
		w.engine.SetParallelism(workers)
		busOpts = append(busOpts, network.WithEngine(w.engine))
	}
	bus := network.NewBus(rand.New(rand.NewSource(1)), busOpts...)
	collective, err := New(Config{
		Name:       "bench",
		KillSecret: []byte("bench-secret"),
		Bus:        bus,
		Telemetry:  w.reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	usKey := bundle.HMACKey{ID: "us-root", Secret: []byte("us bench secret")}
	ukKey := bundle.HMACKey{ID: "uk-root", Secret: []byte("uk bench secret")}
	w.dist, err = NewDistributor(DistributorConfig{
		Collective: collective,
		Roots: []RootConfig{
			{Org: "us", Signer: usKey},
			{Org: "uk", Signer: ukKey},
		},
		Telemetry: w.reg,
		Clock:     w.clock.Now,
		Engine:    w.engine,
	})
	if err != nil {
		b.Fatal(err)
	}
	ring := bundle.NewKeyRing().
		Add(usKey.ID, usKey, bundle.Scope{Org: "us"}).
		Add(ukKey.ID, ukKey, bundle.Scope{Org: "uk"})
	schema, err := statespace.NewSchema(statespace.Var("heat", 0, 100))
	if err != nil {
		b.Fatal(err)
	}
	initial, err := schema.StateFromMap(map[string]float64{"heat": 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fleet; i++ {
		org := "us"
		if i%2 == 1 {
			org = "uk"
		}
		id := fmt.Sprintf("%s-%06d", org, i)
		d, err := device.New(device.Config{
			ID: id, Type: "drone", Organization: org,
			Initial:    initial,
			KillSwitch: collective.KillSwitch(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := collective.AddDevice(d, nil); err != nil {
			b.Fatal(err)
		}
		if err := w.dist.EnrollRoots(id, ring, org); err != nil {
			b.Fatal(err)
		}
	}
	// Two alternating policy sets per org so every revision carries a
	// real (non-empty) delta; compiled once, outside the timed loop.
	for _, tag := range []string{"alpha", "beta"} {
		var src string
		for i := 0; i < 6; i++ {
			src += fmt.Sprintf(
				"policy us.bench%02d priority %d:\n    on tick\n    when intensity > 0\n    do adjust target %s category surveillance\n",
				i, i+1, tag)
		}
		pols, err := policylang.CompileSource(src, policy.OriginHuman)
		if err != nil {
			b.Fatal(err)
		}
		w.desire = append(w.desire, pols)
	}
	return w
}

// publishAndDrain cuts one us-root revision and drains the fan-out to
// every subscriber: inline for the synchronous shape, via engine.Run
// for the sharded shape (the run also processes the resulting acks).
func (w *fanoutWorld) publishAndDrain(b *testing.B) {
	b.Helper()
	w.rev++
	desired := w.desire[w.rev%len(w.desire)]
	if w.engine == nil {
		if _, err := w.dist.PublishRoot("us", desired); err != nil {
			b.Fatal(err)
		}
		return
	}
	var pubErr error
	w.engine.Schedule(0, func() {
		_, pubErr = w.dist.PublishRoot("us", desired)
	})
	if err := w.engine.Run(w.clock.Now().Add(time.Millisecond)); err != nil {
		b.Fatal(err)
	}
	if pubErr != nil {
		b.Fatal(pubErr)
	}
}

// verify fails the benchmark if a run was degenerate: every us-root
// subscriber must have activated every published revision.
func (w *fanoutWorld) verify(b *testing.B) {
	b.Helper()
	if lag := len(w.dist.LaggingRoot("us")); lag != 0 {
		b.Fatalf("%d devices lagging after drain", lag)
	}
	if got := w.reg.CounterTotal("bundle.activated"); got < int64(w.rev)*int64(w.fleet/2) {
		b.Fatalf("activations %d < published %d × %d subscribers", got, w.rev, w.fleet/2)
	}
}

// benchFanout measures one publish fan-out to the us half of the
// fleet, end to end (encode, push, device verify+activate, ack,
// ledger): workers==0 is the synchronous per-device loop baseline,
// workers>0 the sharded batch events. Wire-cache hits make the encode
// cost per distinct acked base, not per device, in both shapes.
func benchFanout(b *testing.B, workers int) {
	w := buildFanoutWorld(b, benchFleetSize(), workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.publishAndDrain(b)
	}
	b.StopTimer()
	w.verify(b)
}

func BenchmarkDistributorFanoutSerial(b *testing.B) { benchFanout(b, 0) }
func BenchmarkDistributorFanout1(b *testing.B)      { benchFanout(b, 1) }
func BenchmarkDistributorFanout2(b *testing.B)      { benchFanout(b, 2) }
func BenchmarkDistributorFanout4(b *testing.B)      { benchFanout(b, 4) }
