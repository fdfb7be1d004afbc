package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/audit"
)

// TailHeader is the first NDJSON line of GET /v1/audit/tail. It
// anchors everything that follows: the entries streamed after it
// start at index From and chain onto PrevHash, so the client can
// hand any received prefix to audit.VerifyTail(From, PrevHash, ...)
// and prove it intact without ever holding the whole journal.
type TailHeader struct {
	From     int    `json:"from"`
	PrevHash string `json:"prevHash"`
}

// Tail streaming knobs: how often follow-mode polls the journal, and
// the floor a client-supplied poll interval is clamped to.
const (
	defaultTailPoll = 100 * time.Millisecond
	minTailPoll     = 5 * time.Millisecond
)

// handleAuditTail streams the hash-chained journal as NDJSON: one
// TailHeader line, then one audit.Entry per line. With ?follow=true
// the stream stays open and ships new entries as they are appended,
// until the client disconnects. Entries are copied out of the log
// under its lock and encoded whole, so a concurrent writer can never
// tear an entry mid-line.
func (s *Server) handleAuditTail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	from := 0
	if v := q.Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from %q", v)
			return
		}
		from = n
	}
	follow := q.Get("follow") == "true" || q.Get("follow") == "1"
	poll := defaultTailPoll
	if v := q.Get("poll"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, "bad poll %q", v)
			return
		}
		if poll = time.Duration(ms) * time.Millisecond; poll < minTailPoll {
			poll = minTailPoll
		}
	}

	// Clamp From to the tip before reading, not after: the log only
	// grows, so EntriesSince then anchors exactly at From, and the
	// header stays verifiable when appends land between the two calls.
	from = min(from, s.log.Len())
	entries, prev := s.log.EntriesSince(from)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if err := enc.Encode(TailHeader{From: from, PrevHash: prev}); err != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	writeBatch := func(batch []audit.Entry) bool {
		for _, e := range batch {
			if err := enc.Encode(e); err != nil {
				return false
			}
		}
		s.auditStreamed.Add(int64(len(batch)))
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !writeBatch(entries) {
		return
	}
	next := from + len(entries)
	if !follow {
		return
	}

	s.auditStreams.Set(float64(s.streams.Add(1)))
	defer func() { s.auditStreams.Set(float64(s.streams.Add(-1))) }()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			batch, _ := s.log.EntriesSince(next)
			if len(batch) == 0 {
				continue
			}
			if !writeBatch(batch) {
				return
			}
			next += len(batch)
		}
	}
}
