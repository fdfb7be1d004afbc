package main

import (
	"sync/atomic"
	"time"

	"repro/internal/bundle"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// The timing wrappers below sit on the interfaces the benchmark hands
// the program in traced rounds only. Each forwards every method the
// program may look for, so wrapping changes no decision: a wrapped
// verifier still answers the key-scope question and a wrapped traced
// actuator still carries the trace across the actuation boundary.

// timer accumulates the calls through one wrapper. Wrappers are called
// from engine workers and server goroutines at once.
type timer struct {
	calls atomic.Int64
	nanos atomic.Int64
	// hits counts calls with a wrapper-specific outcome (a guard
	// denial).
	hits atomic.Int64
}

func (t *timer) since(start time.Time) {
	t.calls.Add(1)
	t.nanos.Add(int64(time.Since(start)))
}

// reset forgets the set-up's calls, so a reading covers the timed
// phase alone.
func (t *timer) reset() {
	t.calls.Store(0)
	t.nanos.Store(0)
	t.hits.Store(0)
}

// snapshot is a timer reading.
type snapshot struct{ calls, nanos, hits int64 }

func (t *timer) read() snapshot {
	return snapshot{calls: t.calls.Load(), nanos: t.nanos.Load(), hits: t.hits.Load()}
}

// meanUS is the mean time per call in microseconds.
func (s snapshot) meanUS() float64 { return ratio(float64(s.nanos)/1e3, float64(s.calls)) }

func (s snapshot) busy() time.Duration { return time.Duration(s.nanos) }

type timedGuard struct {
	inner guard.Guard
	t     *timer
}

func (g timedGuard) Name() string { return g.inner.Name() }

func (g timedGuard) Check(ctx guard.ActionContext) guard.Verdict {
	start := time.Now()
	v := g.inner.Check(ctx)
	g.t.since(start)
	if !v.Allowed() {
		g.t.hits.Add(1)
	}
	return v
}

type timedActuator struct {
	inner device.Actuator
	t     *timer
}

func (a timedActuator) Name() string { return a.inner.Name() }

func (a timedActuator) Invoke(act policy.Action) error {
	start := time.Now()
	err := a.inner.Invoke(act)
	a.t.since(start)
	return err
}

// timedTracedActuator keeps device.TracedActuator: without it a
// wrapped router would forward actions with no span context and the
// receiving device would start a new trace.
type timedTracedActuator struct {
	timedActuator
	traced device.TracedActuator
}

func (a timedTracedActuator) InvokeTraced(act policy.Action, sc telemetry.SpanContext) error {
	start := time.Now()
	err := a.traced.InvokeTraced(act, sc)
	a.t.since(start)
	return err
}

func wrapActuator(a device.Actuator, t *timer) device.Actuator {
	plain := timedActuator{inner: a, t: t}
	if traced, ok := a.(device.TracedActuator); ok {
		return timedTracedActuator{timedActuator: plain, traced: traced}
	}
	return plain
}

type timedSensor struct {
	inner device.Sensor
	t     *timer
}

func (s timedSensor) Name() string { return s.inner.Name() }

func (s timedSensor) Read() (float64, error) {
	start := time.Now()
	v, err := s.inner.Read()
	s.t.since(start)
	return v, err
}

type timedClassifier struct {
	inner statespace.Classifier
	t     *timer
}

func (c timedClassifier) Classify(st statespace.State) statespace.Class {
	start := time.Now()
	class := c.inner.Classify(st)
	c.t.since(start)
	return class
}

type timedSafeness struct {
	inner statespace.SafenessMetric
	t     *timer
}

func (m timedSafeness) Safeness(st statespace.State) float64 {
	start := time.Now()
	v := m.inner.Safeness(st)
	m.t.since(start)
	return v
}

type timedSigner struct {
	inner bundle.Signer
	t     *timer
}

func (s timedSigner) KeyID() string { return s.inner.KeyID() }

func (s timedSigner) Sign(data []byte) string {
	start := time.Now()
	sig := s.inner.Sign(data)
	s.t.since(start)
	return sig
}

// timedVerifier always offers ScopeOf. Over a verifier without scopes
// it answers "unknown key", which is exactly how an agent treats a
// verifier that is not a bundle.ScopedVerifier, so one type serves
// both.
type timedVerifier struct {
	inner bundle.Verifier
	t     *timer
}

func (v timedVerifier) Verify(keyID string, data []byte, sigHex string) bool {
	start := time.Now()
	ok := v.inner.Verify(keyID, data, sigHex)
	v.t.since(start)
	return ok
}

func (v timedVerifier) ScopeOf(keyID string) (bundle.Scope, bool) {
	if sv, ok := v.inner.(bundle.ScopedVerifier); ok {
		return sv.ScopeOf(keyID)
	}
	return bundle.Scope{}, false
}
