package server

import (
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/telemetry"
)

// SpanNode is one span with its children — the reassembled causal
// tree GET /v1/decisions/{traceID} returns.
type SpanNode struct {
	telemetry.Span
	Children []*SpanNode `json:"children,omitempty"`
}

// DecisionView is the full record of one decision: the span tree
// from intake through guard verdicts to execution, joined with the
// audit entries that decision stamped.
type DecisionView struct {
	TraceID string `json:"traceId"`
	// Connected reports whether the spans form a single tree under
	// one root — the structural invariant a complete decision trace
	// satisfies (telemetry.CheckConnected).
	Connected bool `json:"connected"`
	// Issue holds the connectivity error when Connected is false.
	Issue string `json:"issue,omitempty"`
	// Spans is the total span count in the tree.
	Spans int `json:"spans"`
	// Roots holds the tree (one root for a connected decision).
	Roots []*SpanNode `json:"roots"`
	// Audit lists the journal entries carrying this trace ID, in
	// journal order — the decision's durable footprint.
	Audit []audit.Entry `json:"audit,omitempty"`
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/decisions/")
	if raw == "" || strings.Contains(raw, "/") {
		writeError(w, http.StatusBadRequest, "want /v1/decisions/{traceID}")
		return
	}
	id, err := strconv.ParseUint(raw, 16, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad trace id %q: %v", raw, err)
		return
	}
	trace := telemetry.TraceID(id)
	spans := s.tracer.TraceSpans(trace)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "no spans for trace %s (expired from the ring, or never created)", trace)
		return
	}

	view := DecisionView{
		TraceID: trace.String(),
		Spans:   len(spans),
		Roots:   buildSpanTree(spans),
		Audit:   s.log.ByTrace(trace.String()),
	}
	if err := telemetry.CheckConnected(spans); err != nil {
		view.Issue = err.Error()
	} else {
		view.Connected = true
	}
	writeJSON(w, http.StatusOK, view)
}

// buildSpanTree links spans into parent/child trees. Spans whose
// parent is unknown (zero, or fallen out of the ring) become roots,
// so a damaged trace still renders rather than vanishing.
func buildSpanTree(spans []Span) []*SpanNode {
	nodes := make(map[telemetry.SpanID]*SpanNode, len(spans))
	for _, sp := range spans {
		nodes[sp.ID] = &SpanNode{Span: sp}
	}
	var roots []*SpanNode
	for _, sp := range spans {
		n := nodes[sp.ID]
		if parent, ok := nodes[sp.Parent]; ok && sp.Parent != sp.ID {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	// Deterministic order: children and roots by start time, then ID.
	var sortNodes func(ns []*SpanNode)
	sortNodes = func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].ID < ns[j].ID
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

// Span aliases telemetry.Span for buildSpanTree's signature.
type Span = telemetry.Span
