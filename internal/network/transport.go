package network

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/resilience"
)

// WireMessage is the on-the-wire form of a Message: newline-delimited
// JSON with a string payload (callers serialize structured payloads
// themselves, keeping the wire format schema-free).
type WireMessage struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Topic   string `json:"topic"`
	Payload string `json:"payload,omitempty"`
}

// Server accepts TCP connections and delivers decoded wire messages to
// a handler — the real-network counterpart of the in-memory Bus, used
// when devices run in separate processes. Close stops the listener and
// waits for connection handlers to drain.
type Server struct {
	listener    net.Listener
	handler     func(WireMessage)
	idleTimeout time.Duration

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ServeOption configures a Server.
type ServeOption interface {
	applyServe(*Server)
}

type serveOptionFunc func(*Server)

func (f serveOptionFunc) applyServe(s *Server) { f(s) }

// WithIdleTimeout closes a connection when no bytes arrive for the
// given duration, so a stalled peer cannot pin a handler goroutine
// forever. Zero (the default) disables the timeout.
func WithIdleTimeout(d time.Duration) ServeOption {
	return serveOptionFunc(func(s *Server) { s.idleTimeout = d })
}

// Serve starts a server on addr (e.g. "127.0.0.1:0"). The handler is
// invoked for every decoded message, potentially from multiple
// goroutines.
func Serve(addr string, handler func(WireMessage), opts ...ServeOption) (*Server, error) {
	if handler == nil {
		return nil, errors.New("network: server needs a handler")
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen: %w", err)
	}
	s := &Server{listener: l, handler: handler, conns: make(map[net.Conn]struct{})}
	for _, o := range opts {
		o.applyServe(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes the listener and every live
// connection — a stalled peer must not pin shutdown — and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// track registers a live connection for forced shutdown; it reports
// false when the server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer func() { _ = conn.Close() }()
			s.readLoop(conn)
		}()
	}
}

// idleConn arms a fresh read deadline before every Read, so the
// scanner unblocks (and the connection closes) once the peer stalls
// for longer than the timeout.
type idleConn struct {
	net.Conn
	timeout time.Duration
}

func (c idleConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (s *Server) readLoop(conn net.Conn) {
	var r io.Reader = conn
	if s.idleTimeout > 0 {
		r = idleConn{Conn: conn, timeout: s.idleTimeout}
	}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for scanner.Scan() {
		if s.isClosed() {
			return
		}
		var msg WireMessage
		if err := json.Unmarshal(scanner.Bytes(), &msg); err != nil {
			continue // skip malformed frames; the stream stays usable
		}
		s.handler(msg)
	}
}

// ErrClosed is returned by Send on a client that was explicitly
// closed; a closed client never redials.
var ErrClosed = errors.New("network: client closed")

// Client is a TCP sender of wire messages. It is safe for concurrent
// use.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *json.Encoder
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: dial: %w", err)
	}
	return &Client{conn: conn, enc: json.NewEncoder(conn)}, nil
}

// Send transmits one message (json.Encoder writes a trailing newline,
// matching the server's line-delimited framing).
func (c *Client) Send(msg WireMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return ErrClosed
	}
	if err := c.enc.Encode(msg); err != nil {
		return fmt.Errorf("network: send: %w", err)
	}
	return nil
}

// Close shuts the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// ResilientClient is a Client that survives connection failures: each
// Send runs under the retry policy with an optional per-call write
// deadline, and a failed attempt tears the connection down and redials
// before the next one.
type ResilientClient struct {
	// Retry bounds redial-and-resend attempts; the zero value tries
	// three times.
	Retry resilience.Retry
	// SendTimeout bounds each write on the wire; zero disables it.
	SendTimeout time.Duration

	addr   string
	mu     sync.Mutex
	conn   *Client
	closed bool
}

// DialResilient connects to a Server, keeping the address for
// automatic reconnection.
func DialResilient(addr string, retry resilience.Retry) (*ResilientClient, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &ResilientClient{Retry: retry, addr: addr, conn: c}, nil
}

// Send transmits one message, redialing between attempts when the
// connection failed. After Close it fails fast with ErrClosed — a
// closed client must stay closed, not silently resurrect the
// connection by redialing.
func (c *ResilientClient) Send(msg WireMessage) error {
	return c.Retry.Do(func() error {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		client := c.conn
		c.mu.Unlock()
		if client == nil {
			fresh, err := Dial(c.addr)
			if err != nil {
				return err
			}
			c.mu.Lock()
			if c.closed {
				// Close raced the redial; do not resurrect.
				c.mu.Unlock()
				_ = fresh.Close()
				return ErrClosed
			}
			c.conn = fresh
			client = fresh
			c.mu.Unlock()
		}
		if c.SendTimeout > 0 {
			client.mu.Lock()
			if client.conn != nil {
				_ = client.conn.SetWriteDeadline(time.Now().Add(c.SendTimeout))
			}
			client.mu.Unlock()
		}
		if err := client.Send(msg); err != nil {
			c.mu.Lock()
			if c.conn == client {
				_ = client.Close()
				c.conn = nil
			}
			c.mu.Unlock()
			return err
		}
		if c.SendTimeout > 0 {
			// Disarm the per-call deadline so it cannot fire mid-write
			// on a later slow-but-healthy send.
			client.mu.Lock()
			if client.conn != nil {
				_ = client.conn.SetWriteDeadline(time.Time{})
			}
			client.mu.Unlock()
		}
		return nil
	})
}

// Close shuts the current connection down and marks the client
// closed; subsequent Sends return ErrClosed instead of redialing.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// BridgeOption configures BridgeToBus.
type BridgeOption interface {
	applyBridge(*bridge)
}

type bridgeOptionFunc func(*bridge)

func (f bridgeOptionFunc) applyBridge(b *bridge) { f(b) }

// WithBridgeErrorHandler surfaces every bus.Send failure on the bridge
// to the callback, together with the wire message that failed, so the
// server side can log, retry or alert instead of losing the message
// silently.
func WithBridgeErrorHandler(fn func(WireMessage, error)) BridgeOption {
	return bridgeOptionFunc(func(b *bridge) { b.onError = fn })
}

type bridge struct {
	bus     *Bus
	onError func(WireMessage, error)
}

// bridgeDropCause maps a bus.Send error to the bus.bridge_dropped
// cause label.
func bridgeDropCause(err error) string {
	switch {
	case errors.Is(err, ErrUnknownNode):
		return "unknown_node"
	case errors.Is(err, ErrDropped):
		if strings.Contains(err.Error(), "partition") {
			return "partition"
		}
		return "loss"
	case errors.Is(err, admission.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, admission.ErrRateLimited):
		return "rate_limited"
	default:
		return "error"
	}
}

// BridgeToBus returns a Server handler that re-injects received wire
// messages into an in-memory bus, so a remote process can address
// local devices. Payloads are forwarded as strings. A refused message
// is never dropped silently: the bus counts it
// (bus.bridge_dropped{cause}) and the error is surfaced to the
// optional WithBridgeErrorHandler callback.
func BridgeToBus(bus *Bus, opts ...BridgeOption) func(WireMessage) {
	br := &bridge{bus: bus}
	for _, o := range opts {
		o.applyBridge(br)
	}
	return func(w WireMessage) {
		err := bus.Send(nil, Message{From: w.From, To: w.To, Topic: w.Topic, Payload: w.Payload})
		if err == nil {
			return
		}
		bus.countBridgeDrop(bridgeDropCause(err))
		if br.onError != nil {
			br.onError(w, err)
		}
	}
}
