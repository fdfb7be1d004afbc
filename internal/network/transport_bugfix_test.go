package network

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestBridgeToBusCountsAndSurfacesErrors(t *testing.T) {
	metrics := telemetry.NewRegistry()
	bus := NewBus(rand.New(rand.NewSource(1)), WithMetrics(metrics))
	if err := bus.AttachLane("d1", func(Message, *sim.Lane) {}); err != nil {
		t.Fatal(err)
	}
	if err := bus.AttachLane("d2", func(Message, *sim.Lane) {}); err != nil {
		t.Fatal(err)
	}
	bus.Partition(map[string]int{"d2": 1})

	var mu sync.Mutex
	var surfaced []error
	handler := BridgeToBus(bus, WithBridgeErrorHandler(func(w WireMessage, err error) {
		mu.Lock()
		surfaced = append(surfaced, err)
		mu.Unlock()
	}))

	handler(WireMessage{From: "remote", To: "d1", Topic: "cmd"})    // delivered
	handler(WireMessage{From: "remote", To: "ghost", Topic: "cmd"}) // unknown
	handler(WireMessage{From: "remote", To: "d2", Topic: "cmd"})    // partitioned

	if got := bus.BridgeDropped(); got != 2 {
		t.Fatalf("BridgeDropped = %d, want 2", got)
	}
	if len(surfaced) != 2 {
		t.Fatalf("surfaced %d errors, want 2", len(surfaced))
	}
	if !errors.Is(surfaced[0], ErrUnknownNode) {
		t.Errorf("first surfaced error = %v, want ErrUnknownNode", surfaced[0])
	}
	if !errors.Is(surfaced[1], ErrDropped) {
		t.Errorf("second surfaced error = %v, want ErrDropped", surfaced[1])
	}
	for _, cause := range []string{"unknown_node", "partition"} {
		if got := metrics.Counter("bus.bridge_dropped", "cause", cause).Value(); got != 1 {
			t.Errorf("bus.bridge_dropped{cause=%q} = %d, want 1", cause, got)
		}
	}
}

func TestBridgeDropCauseMapping(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{fmt.Errorf("%w: %q", ErrUnknownNode, "x"), "unknown_node"},
		{fmt.Errorf("%w: partition between %q and %q", ErrDropped, "a", "b"), "partition"},
		{fmt.Errorf("%w: loss", ErrDropped), "loss"},
		{fmt.Errorf("%w: human intake", admission.ErrQueueFull), "queue_full"},
		{fmt.Errorf("%w: human intake", admission.ErrRateLimited), "rate_limited"},
		{errors.New("boom"), "error"},
	}
	for _, tc := range cases {
		if got := bridgeDropCause(tc.err); got != tc.want {
			t.Errorf("bridgeDropCause(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestResilientClientClosedStaysClosed is the regression test for the
// silent-redial bug: Send on a closed client used to dial a fresh
// connection and resurrect it.
func TestResilientClientClosedStaysClosed(t *testing.T) {
	var mu sync.Mutex
	received := 0
	srv, err := Serve("127.0.0.1:0", func(WireMessage) {
		mu.Lock()
		received++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	c, err := DialResilient(srv.Addr(), resilience.Retry{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(WireMessage{From: "a", To: "b", Topic: "t"}); err != nil {
		t.Fatalf("Send before Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(WireMessage{From: "a", To: "b", Topic: "t"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	c.mu.Lock()
	resurrected := c.conn != nil
	c.mu.Unlock()
	if resurrected {
		t.Fatal("Send after Close redialed the connection")
	}
}

// recordingConn is a fake net.Conn that records every write deadline.
type recordingConn struct {
	mu        sync.Mutex
	deadlines []time.Time
}

func (c *recordingConn) Read(p []byte) (int, error)      { return 0, io.EOF }
func (c *recordingConn) Write(p []byte) (int, error)     { return len(p), nil }
func (c *recordingConn) Close() error                    { return nil }
func (c *recordingConn) LocalAddr() net.Addr             { return &net.TCPAddr{} }
func (c *recordingConn) RemoteAddr() net.Addr            { return &net.TCPAddr{} }
func (c *recordingConn) SetDeadline(time.Time) error     { return nil }
func (c *recordingConn) SetReadDeadline(time.Time) error { return nil }
func (c *recordingConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadlines = append(c.deadlines, t)
	return nil
}

// TestResilientClientClearsWriteDeadline is the regression test for
// the stale-deadline bug: a successful send must disarm the per-call
// write deadline so it cannot fire later.
func TestResilientClientClearsWriteDeadline(t *testing.T) {
	fake := &recordingConn{}
	rc := &ResilientClient{
		SendTimeout: 50 * time.Millisecond,
		conn:        &Client{conn: fake, enc: json.NewEncoder(fake)},
	}
	if err := rc.Send(WireMessage{From: "a", To: "b", Topic: "t"}); err != nil {
		t.Fatal(err)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if len(fake.deadlines) < 2 {
		t.Fatalf("recorded %d deadline calls, want arm + disarm", len(fake.deadlines))
	}
	if fake.deadlines[0].IsZero() {
		t.Fatal("deadline was never armed")
	}
	if last := fake.deadlines[len(fake.deadlines)-1]; !last.IsZero() {
		t.Fatalf("deadline left armed at %v after a successful send", last)
	}
}
