package network

import (
	"errors"

	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// ReliableSender wraps Bus.Send with a retry policy and per-peer
// circuit breakers, turning the bus's loss and partition faults from
// silent failures into bounded, observable recovery work. Transient
// errors (ErrDropped) are retried; permanent ones (ErrUnknownNode —
// the receiver crashed or never existed) fail fast and feed the
// peer's breaker, which then spares the retry budget until the peer
// comes back.
type ReliableSender struct {
	// Bus is the underlying transport (required).
	Bus *Bus
	// Retry bounds redelivery attempts; the zero value retries three
	// times immediately.
	Retry resilience.Retry
	// Breakers holds the per-peer circuit breakers; nil disables
	// breaking.
	Breakers *resilience.BreakerSet
	// Metrics observes retries and breaker rejections
	// (resilience.retries, resilience.breaker_rejected, and
	// resilience.sends labeled by result); may be nil.
	Metrics *telemetry.Registry
}

// Send delivers the message with retries, gated by the receiver's
// circuit breaker. It returns resilience.ErrOpen when the breaker
// rejects the call outright.
func (s *ReliableSender) Send(msg Message) error {
	var breaker *resilience.Breaker
	if s.Breakers != nil {
		breaker = s.Breakers.For(msg.To)
		if !breaker.Allow() {
			s.Metrics.Counter("resilience.breaker_rejected").Inc()
			return resilience.ErrOpen
		}
	}
	retry := s.Retry
	if retry.Retryable == nil {
		retry.Retryable = func(err error) bool { return errors.Is(err, ErrDropped) }
	}
	prevOnRetry := retry.OnRetry
	retry.OnRetry = func(attempt int, err error) {
		s.Metrics.Counter("resilience.retries").Inc()
		if prevOnRetry != nil {
			prevOnRetry(attempt, err)
		}
	}
	err := retry.Do(func() error { return s.Bus.Send(msg) })
	if breaker != nil {
		breaker.Record(err)
	}
	if err != nil {
		s.Metrics.Counter("resilience.sends", "result", "failed").Inc()
		return err
	}
	s.Metrics.Counter("resilience.sends", "result", "ok").Inc()
	return nil
}
