package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
)

// readTail consumes one /v1/audit/tail response: the header line,
// then entries until wantEntries are in hand (or the body ends),
// verifying EVERY streamed prefix against the hash chain along the
// way — the exact check a suspicious client would run.
func readTail(t *testing.T, resp *http.Response, wantEntries int) (TailHeader, []audit.Entry) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		t.Fatalf("no header line: %v", sc.Err())
	}
	var hdr TailHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("bad header %q: %v", sc.Text(), err)
	}
	var entries []audit.Entry
	for len(entries) < wantEntries && sc.Scan() {
		var e audit.Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("torn or malformed entry line %q: %v", sc.Text(), err)
		}
		entries = append(entries, e)
		// Every prefix of the stream must verify against the anchor.
		if err := audit.VerifyTail(hdr.From, hdr.PrevHash, entries); err != nil {
			t.Fatalf("prefix of %d entries fails VerifyTail: %v", len(entries), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return hdr, entries
}

// TestAuditTailConcurrentWriters is the satellite acceptance test:
// a follow-mode stream opened mid-write races several goroutines
// appending to the journal. No entry may arrive torn, and every
// streamed prefix must pass the hash-chain verification.
func TestAuditTailConcurrentWriters(t *testing.T) {
	f := newTestFleet(t, nil)

	const writers = 4
	const perWriter = 50
	preexisting := f.log.Len()

	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.log.Append(audit.KindNote, fmt.Sprintf("writer-%d", wtr),
					fmt.Sprintf("concurrent append %d", i),
					map[string]string{"writer": fmt.Sprint(wtr)})
			}
		}(wtr)
	}

	resp, err := http.Get(f.base + "/v1/audit/tail?follow=true&poll=5")
	if err != nil {
		t.Fatalf("GET /v1/audit/tail: %v", err)
	}
	hdr, entries := readTail(t, resp, preexisting+writers*perWriter)
	wg.Wait()

	if hdr.From != 0 || hdr.PrevHash != "" {
		t.Errorf("header = %+v, want from 0 with empty anchor", hdr)
	}
	if got, want := len(entries), preexisting+writers*perWriter; got != want {
		t.Fatalf("streamed %d entries, want %d", got, want)
	}
	// Final end-to-end check: the full stream is the journal's own
	// prefix, hash-linked from genesis.
	if err := audit.VerifyTail(0, "", entries); err != nil {
		t.Fatalf("full stream fails VerifyTail: %v", err)
	}
	perWriterSeen := map[string]int{}
	for _, e := range entries {
		if w := e.Context["writer"]; w != "" {
			perWriterSeen[w]++
		}
	}
	for wtr := 0; wtr < writers; wtr++ {
		if got := perWriterSeen[fmt.Sprint(wtr)]; got != perWriter {
			t.Errorf("writer %d: streamed %d entries, want %d", wtr, got, perWriter)
		}
	}
}

// TestAuditTailFromOffset checks a bounded (non-follow) read from a
// mid-journal offset: the header anchors the prefix and the tail
// verifies without the unseen head.
func TestAuditTailFromOffset(t *testing.T) {
	f := newTestFleet(t, nil)
	for i := 0; i < 10; i++ {
		f.log.Append(audit.KindNote, "seed", fmt.Sprintf("entry %d", i), nil)
	}
	total := f.log.Len()

	resp, err := http.Get(f.base + "/v1/audit/tail?from=4")
	if err != nil {
		t.Fatal(err)
	}
	hdr, entries := readTail(t, resp, total-4)
	if hdr.From != 4 {
		t.Errorf("header from = %d, want 4", hdr.From)
	}
	all := f.log.Entries()
	if hdr.PrevHash != all[3].Hash {
		t.Errorf("anchor = %q, want hash of entry 3 %q", hdr.PrevHash, all[3].Hash)
	}
	if len(entries) != total-4 {
		t.Errorf("entries = %d, want %d", len(entries), total-4)
	}

	// Beyond-tip offset: header clamps, zero entries, still verifiable.
	resp, err = http.Get(fmt.Sprintf("%s/v1/audit/tail?from=%d", f.base, total+100))
	if err != nil {
		t.Fatal(err)
	}
	hdr, entries = readTail(t, resp, 0)
	if hdr.From != total || len(entries) != 0 {
		t.Errorf("beyond-tip = from %d with %d entries, want from %d with 0", hdr.From, len(entries), total)
	}
	if hdr.PrevHash != all[total-1].Hash {
		t.Errorf("beyond-tip anchor = %q, want tip hash", hdr.PrevHash)
	}
}

// TestAuditTailBeyondTipWhileAppending opens follow streams from
// beyond the tip, the polling pattern EntriesSince documents, while a
// goroutine keeps appending. The header's From and anchor must come
// from one tip even when the log grows during the request, so every
// header plus received prefix verifies.
func TestAuditTailBeyondTipWhileAppending(t *testing.T) {
	f := newTestFleet(t, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				f.log.Append(audit.KindNote, "writer", fmt.Sprintf("append %d", i), nil)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 20; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/audit/tail?from=%d&follow=true&poll=5", f.base, 1<<30))
		if err != nil {
			t.Fatalf("GET /v1/audit/tail: %v", err)
		}
		hdr, entries := readTail(t, resp, 3)
		if len(entries) != 3 {
			t.Fatalf("stream %d: %d entries, want 3", i, len(entries))
		}
		if hdr.From >= 1<<30 {
			t.Fatalf("stream %d: header from = %d, want the tip", i, hdr.From)
		}
	}
}

// TestAuditTailValidation covers the query-parameter error paths.
func TestAuditTailValidation(t *testing.T) {
	f := newTestFleet(t, nil)
	for _, bad := range []string{"?from=-1", "?from=x", "?poll=0", "?poll=abc"} {
		resp, err := http.Get(f.base + "/v1/audit/tail" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestAuditTailStreamMetrics checks the gauge tracks open follow
// streams and the counter tallies shipped entries.
func TestAuditTailStreamMetrics(t *testing.T) {
	f := newTestFleet(t, nil)
	f.log.Append(audit.KindNote, "seed", "one", nil)

	resp, err := http.Get(f.base + "/v1/audit/tail?follow=true&poll=5")
	if err != nil {
		t.Fatal(err)
	}
	// Read the header + first entry so the stream is live.
	sc := bufio.NewScanner(resp.Body)
	sc.Scan()
	sc.Scan()
	gauge := f.reg.Gauge("server.audit_streams")
	deadline := time.Now().Add(2 * time.Second)
	for gauge.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := gauge.Value(); got != 1 {
		t.Errorf("server.audit_streams with open stream = %g, want 1", got)
	}
	resp.Body.Close()
	for gauge.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := gauge.Value(); got != 0 {
		t.Errorf("server.audit_streams after close = %g, want 0", got)
	}
	if got := f.reg.Counter("server.audit_streamed").Value(); got < 1 {
		t.Errorf("server.audit_streamed = %d, want >= 1", got)
	}
}
