// Package server is the live control plane over a collective: a
// long-lived HTTP/JSON service through which operators submit
// commands, follow each decision's causal trace, stream the
// hash-chained audit journal, and inspect fleet state while the
// fleet runs.
//
// The paper's oversight argument (Sections VI–VIII) presupposes that
// humans can observe and interrogate every decision the guarded
// pipeline makes; a batch runner only allows that post-hoc. This
// package makes the pipeline inspectable in flight: every POST
// /v1/commands is admission-gated, traced from intake to audit entry,
// and measured into a decision-latency histogram, so "is the fleet
// still under oversight, and how fast does oversight decide?" are
// live queries instead of forensic ones.
//
// Routes:
//
//	POST /v1/commands           submit a command (admitted through the
//	                            priority classes), returns the decision
//	                            summary and its trace ID
//	GET  /v1/decisions/{trace}  the reassembled span tree for one
//	                            decision — intake → policy evaluate →
//	                            guard verdicts → execution — joined
//	                            with its trace-stamped audit entries
//	GET  /v1/audit/tail         NDJSON stream of the hash-chained
//	                            journal; every streamed prefix carries
//	                            its anchor hash and verifies with
//	                            audit.VerifyTail
//	GET  /v1/fleet              per-device state, policy epoch and
//	                            bundle revision
//	GET  /metrics, /traces, /healthz — the telemetry endpoint,
//	                            unchanged from batch runs
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Config assembles a Server over an already-built collective.
type Config struct {
	// Collective is the fleet the server fronts (required).
	Collective *core.Collective
	// Audit is the shared journal /v1/audit/tail streams (required).
	Audit *audit.Log
	// Registry backs /metrics and the server.* instrument family; nil
	// serves empty metrics and skips instrumentation.
	Registry *telemetry.Registry
	// Tracer backs /v1/decisions and /traces; nil disables decision
	// reassembly (submissions still work, untraced).
	Tracer *telemetry.Tracer
	// Admission, when set, gates every command target through the
	// collective's AdmitCommand before delivery; sheds are typed,
	// counted, audited and reported in the response, never silent.
	Admission *admission.Controller
	// Distributor, when set, adds the bundle plane to /v1/fleet: one
	// row per org root with its published revision and lagging count,
	// plus each device's per-root activated revisions.
	Distributor *core.Distributor
	// Now supplies wall time for latency measurement; nil uses
	// time.Now.
	Now func() time.Time
}

// Server is the live control plane. Start it with Start, stop it
// with Shutdown (drained) or Close (immediate).
type Server struct {
	collective *core.Collective
	log        *audit.Log
	registry   *telemetry.Registry
	tracer     *telemetry.Tracer
	admission  *admission.Controller
	dist       *core.Distributor
	now        func() time.Time

	handler http.Handler

	cmdOK, cmdShed, cmdErr *telemetry.Counter
	decisionMs             *telemetry.Histogram
	auditStreamed          *telemetry.Counter
	auditStreams           *telemetry.Gauge
	streams                atomic.Int64

	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// New builds a Server; it does not listen until Start.
func New(cfg Config) (*Server, error) {
	if cfg.Collective == nil {
		return nil, errors.New("server: a collective is required")
	}
	if cfg.Audit == nil {
		return nil, errors.New("server: an audit log is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		collective: cfg.Collective,
		log:        cfg.Audit,
		registry:   cfg.Registry,
		tracer:     cfg.Tracer,
		admission:  cfg.Admission,
		dist:       cfg.Distributor,
		now:        cfg.Now,
	}
	if reg := cfg.Registry; reg != nil {
		s.cmdOK = reg.Counter("server.commands", "result", "ok")
		s.cmdShed = reg.Counter("server.commands", "result", "shed")
		s.cmdErr = reg.Counter("server.commands", "result", "error")
		s.decisionMs = reg.Histogram("server.decision_ms")
		s.auditStreamed = reg.Counter("server.audit_streamed")
		s.auditStreams = reg.Gauge("server.audit_streams")
	}

	// The control plane extends the telemetry mux, so /metrics,
	// /traces and /healthz serve exactly what batch runs expose.
	mux := telemetry.Handler(cfg.Registry, cfg.Tracer)
	mux.HandleFunc("/v1/commands", s.route("commands", s.handleCommands))
	mux.HandleFunc("/v1/decisions/", s.route("decisions", s.handleDecision))
	mux.HandleFunc("/v1/audit/tail", s.route("audit_tail", s.handleAuditTail))
	mux.HandleFunc("/v1/fleet", s.route("fleet", s.handleFleet))
	s.handler = mux
	return s, nil
}

// Handler returns the full control-plane route set, for tests or
// embedding into an existing server.
func (s *Server) Handler() http.Handler { return s.handler }

// Start listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves
// in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	srv := s.srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops the server gracefully: the listener closes, in-
// flight requests (including open audit-tail streams, which observe
// the request context) drain until ctx expires, then the remainder
// is force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	if err != nil {
		_ = srv.Close()
	}
	return err
}

// Close stops the server immediately, abandoning in-flight requests.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers keep
// working through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route wraps a handler with per-route request accounting
// (server.requests{route,code}).
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	if s.registry == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.registry.Counter("server.requests", "route", name, "code", strconv.Itoa(rec.code)).Inc()
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform JSON error shape.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// CommandRequest is the POST /v1/commands body.
type CommandRequest struct {
	// Type is the event type delivered to the fleet (required).
	Type string `json:"type"`
	// Target is one device ID, or "*"/"" for a fleet-wide broadcast.
	Target string `json:"target"`
	// Source labels the submitter (default "operator").
	Source string `json:"source,omitempty"`
	// Attrs carries the event's numeric attributes.
	Attrs map[string]float64 `json:"attrs,omitempty"`
	// Labels carries string attributes; a telemetry span context here
	// parents the decision under the caller's trace.
	Labels map[string]string `json:"labels,omitempty"`
}

// ExecutionView summarizes one directed action's outcome.
type ExecutionView struct {
	Action   string `json:"action"`
	Allowed  bool   `json:"allowed"`
	Executed bool   `json:"executed"`
	Guard    string `json:"guard,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ShedView names one target the admission controller refused, with
// its typed cause.
type ShedView struct {
	Target string `json:"target"`
	Cause  string `json:"cause"`
}

// CommandResponse is the POST /v1/commands reply.
type CommandResponse struct {
	// TraceID keys GET /v1/decisions/{traceId} ("" without a tracer).
	TraceID string `json:"traceId,omitempty"`
	// Executed, Denied and Errors tally the fleet's executions.
	Executed int `json:"executed"`
	Denied   int `json:"denied"`
	Errors   int `json:"errors"`
	// Shed lists targets refused by admission (typed, never silent).
	Shed []ShedView `json:"shed,omitempty"`
	// Devices maps device ID to its execution outcomes.
	Devices map[string][]ExecutionView `json:"devices,omitempty"`
	// LatencyMs is the end-to-end decision latency the server
	// measured (intake to final verdict), also observed into the
	// server.decision_ms histogram.
	LatencyMs float64 `json:"latencyMs"`
}

// maxCommandBody bounds the request body; commands are small.
const maxCommandBody = 1 << 20

func (s *Server) handleCommands(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req CommandRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCommandBody))
	if err := dec.Decode(&req); err != nil {
		s.cmdErr.Inc()
		writeError(w, http.StatusBadRequest, "bad command body: %v", err)
		return
	}
	if req.Type == "" {
		s.cmdErr.Inc()
		writeError(w, http.StatusBadRequest, "command needs a type")
		return
	}
	if req.Source == "" {
		req.Source = "operator"
	}

	// Resolve targets up front so an unknown device is a 404, not a
	// half-delivered broadcast.
	var targets []string
	if req.Target == "" || req.Target == "*" {
		for _, d := range s.collective.Devices() {
			targets = append(targets, d.ID())
		}
	} else {
		if _, ok := s.collective.Device(req.Target); !ok {
			s.cmdErr.Inc()
			writeError(w, http.StatusNotFound, "unknown device %q", req.Target)
			return
		}
		targets = []string{req.Target}
	}

	start := s.now()
	span := s.tracer.StartSpan("server.command", req.Source, telemetry.Extract(req.Labels))
	span.SetAttr("event", req.Type)
	span.SetAttr("target", req.Target)

	ev := policy.Event{Type: req.Type, Source: req.Source, Time: start, Attrs: req.Attrs}
	ev.Labels = cloneLabels(req.Labels)
	if sc := span.Context(); sc.Valid() {
		ev.Labels = telemetry.Inject(sc, ev.Labels)
	}

	resp := CommandResponse{Devices: make(map[string][]ExecutionView)}
	for _, id := range targets {
		if cause := s.collective.AdmitCommand(s.admission, req.Source, id, span.Context()); cause != "" {
			resp.Shed = append(resp.Shed, ShedView{Target: id, Cause: cause})
			continue
		}
		execs, err := s.collective.Deliver(id, ev)
		if err != nil {
			// The member left or deactivated between resolution and
			// delivery.
			resp.Errors++
			resp.Devices[id] = []ExecutionView{{Error: err.Error()}}
			continue
		}
		views := make([]ExecutionView, 0, len(execs))
		for _, e := range execs {
			v := ExecutionView{
				Action:   e.Action.Name,
				Allowed:  e.Verdict.Allowed(),
				Executed: e.Executed(),
				Guard:    e.Verdict.Guard,
				Reason:   e.Verdict.Reason,
			}
			if e.Err != nil {
				v.Error = e.Err.Error()
			}
			switch {
			case e.Executed():
				resp.Executed++
			case !e.Verdict.Allowed():
				resp.Denied++
			default:
				resp.Errors++
			}
			views = append(views, v)
		}
		if len(views) > 0 {
			resp.Devices[id] = views
		}
	}
	if sc := span.Context(); sc.Valid() {
		resp.TraceID = sc.Trace.String()
		span.SetAttr("executed", strconv.Itoa(resp.Executed))
		span.SetAttr("denied", strconv.Itoa(resp.Denied))
	}
	span.Finish()

	latency := s.now().Sub(start)
	resp.LatencyMs = float64(latency.Microseconds()) / 1000
	s.decisionMs.Observe(resp.LatencyMs)

	status := http.StatusOK
	switch {
	case len(resp.Shed) == len(targets) && len(targets) > 0:
		// Every target was shed: the command did not enter the fleet.
		s.cmdShed.Inc()
		status = http.StatusTooManyRequests
	case resp.Errors > 0 && resp.Executed == 0 && resp.Denied == 0:
		s.cmdErr.Inc()
	default:
		s.cmdOK.Inc()
	}
	writeJSON(w, status, resp)
}

// cloneLabels copies the caller's label map so trace injection never
// aliases request memory.
func cloneLabels(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels)+2)
	for k, v := range labels {
		out[k] = v
	}
	return out
}
