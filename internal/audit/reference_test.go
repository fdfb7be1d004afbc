package audit

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// refLog is the journal as it was before records went compact: a
// slice of whole Entries with hex hashes and their context maps,
// staged and chained the same way. It is the reference the compact
// Log is checked against.
type refLog struct {
	now     func() time.Time
	staging bool
	entries []Entry
}

// refEncode is the chain encoding the reference hashes: Seq, Time as
// UnixNano, Kind, Actor, Detail, the pair count and the pairs in key
// order, PrevHash; strings are u32-length-prefixed, integers 8-byte
// big-endian.
func refEncode(e *Entry) []byte {
	str := func(b []byte, s string) []byte {
		return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
	}
	b := binary.BigEndian.AppendUint64(nil, uint64(e.Seq))
	b = binary.BigEndian.AppendUint64(b, uint64(e.Time.UnixNano()))
	b = str(b, string(e.Kind))
	b = str(b, e.Actor)
	b = str(b, e.Detail)
	b = binary.BigEndian.AppendUint64(b, uint64(len(e.Context)))
	keys := make([]string, 0, len(e.Context))
	for k := range e.Context {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = str(b, k)
		b = str(b, e.Context[k])
	}
	return str(b, e.PrevHash)
}

func refHash(e *Entry) string {
	sum := sha256.Sum256(refEncode(e))
	return hex.EncodeToString(sum[:])
}

func copyEntry(e Entry) Entry {
	if e.Context != nil {
		m := make(map[string]string, len(e.Context))
		for k, v := range e.Context {
			m[k] = v
		}
		e.Context = m
	}
	return e
}

func (r *refLog) Append(kind Kind, actor, detail string, context map[string]string) {
	e := copyEntry(Entry{Seq: len(r.entries), Time: r.now(), Kind: kind, Actor: actor, Detail: detail, Context: context})
	if len(e.Context) == 0 {
		e.Context = nil
	}
	if !r.staging {
		r.seal(&e)
	}
	r.entries = append(r.entries, e)
}

func (r *refLog) seal(e *Entry) {
	e.Seq = len(r.entries)
	e.PrevHash = ""
	if e.Seq > 0 {
		e.PrevHash = r.entries[e.Seq-1].Hash
	}
	e.Hash = refHash(e)
}

func (r *refLog) Chain(stage *refLog, from, to int) {
	for i := from; i < to; i++ {
		e := copyEntry(stage.entries[i])
		r.seal(&e)
		r.entries = append(r.entries, e)
	}
}

func (r *refLog) Reset() {
	if r.staging {
		r.entries = r.entries[:0]
	}
}

func (r *refLog) Len() int { return len(r.entries) }

func (r *refLog) copies(es []Entry) []Entry {
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = copyEntry(e)
	}
	return out
}

func (r *refLog) Entries() []Entry { return r.copies(r.entries) }

func (r *refLog) EntriesSince(from int) ([]Entry, string) {
	from = max(0, min(from, len(r.entries)))
	prev := ""
	if from > 0 {
		prev = r.entries[from-1].Hash
	}
	if from == len(r.entries) {
		return nil, prev
	}
	return r.copies(r.entries[from:]), prev
}

func (r *refLog) ByKind(kind Kind) []Entry {
	var out []Entry
	for _, e := range r.entries {
		if e.Kind == kind {
			out = append(out, copyEntry(e))
		}
	}
	return out
}

func (r *refLog) ByTrace(trace string) []Entry {
	var out []Entry
	for _, e := range r.entries {
		if v, ok := e.Context[TraceKey]; ok && v == trace {
			out = append(out, copyEntry(e))
		}
	}
	return out
}

func (r *refLog) LatestCheckpoint(actor string) (Entry, bool) {
	for i := len(r.entries) - 1; i >= 0; i-- {
		if e := r.entries[i]; e.Kind == KindCheckpoint && e.Actor == actor {
			return copyEntry(e), true
		}
	}
	return Entry{}, false
}

func (r *refLog) Verify() error { return VerifyEntries(r.entries) }

func (r *refLog) Seal(secret []byte) string {
	mac := hmac.New(sha256.New, secret)
	if n := len(r.entries); n > 0 {
		mac.Write([]byte(r.entries[n-1].Hash))
	}
	return hex.EncodeToString(mac.Sum(nil))
}

func (r *refLog) MarshalJSON() ([]byte, error) { return json.Marshal(r.entries) }

// program drives a compact Log and the reference with the same random
// operations: direct appends, rounds through two stages whose
// interleaved ranges are chained back in order, and resets.
type program struct {
	t       *testing.T
	rng     *rand.Rand
	at      time.Time
	log     *Log
	ref     *refLog
	stages  [2]*Log
	rstages [2]*refLog
	unique  int
	// distinct makes most contexts unique, to overflow the context
	// table while others repeat across its clearing.
	distinct bool
}

var (
	progKinds  = []Kind{KindAction, KindDenial, KindCheckpoint, KindBundle, "custom", "κind-é"}
	progActors = []string{"dev-0", "dev-1", "collective", "устройство"}
	progTraces = []string{"00000000000000a1", "00000000000000b2", "00000000000000c3"}
)

func newProgram(t *testing.T, seed int64, distinct bool) *program {
	p := &program{
		t:        t,
		rng:      rand.New(rand.NewSource(seed)),
		at:       time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
		distinct: distinct,
	}
	now := func() time.Time { return p.at }
	p.log, p.ref = New(WithClock(now)), &refLog{now: now}
	for i := range p.stages {
		p.stages[i], p.rstages[i] = NewStage(WithClock(now)), &refLog{now: now, staging: true}
	}
	return p
}

// context draws a context: nil, empty, empty values, multi-byte text,
// 0–6 keys besides the trace and uniqueness stamps, repeated or
// unique, sometimes trace-stamped.
func (p *program) context() map[string]string {
	r := p.rng
	switch r.Intn(8) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	m := make(map[string]string)
	for i, n := 0, r.Intn(7); i < n; i++ {
		switch r.Intn(4) {
		case 0:
			m[fmt.Sprintf("k%d", r.Intn(4))] = ""
		case 1:
			m["ключ"] = "héllo→世界"
		default:
			m[fmt.Sprintf("k%d", r.Intn(4))] = fmt.Sprintf("v%d", r.Intn(3))
		}
	}
	if r.Intn(3) == 0 {
		m[TraceKey] = progTraces[r.Intn(len(progTraces))]
	}
	if r.Intn(4) == 0 || p.distinct && r.Intn(5) != 0 {
		p.unique++
		m["unique"] = fmt.Sprint(p.unique)
	}
	return m
}

type appendArgs struct {
	kind          Kind
	actor, detail string
	ctx           map[string]string
}

func (p *program) draw() appendArgs {
	r := p.rng
	p.at = p.at.Add(time.Duration(r.Intn(3)) * time.Millisecond)
	return appendArgs{
		kind:   progKinds[r.Intn(len(progKinds))],
		actor:  progActors[r.Intn(len(progActors))],
		detail: fmt.Sprintf("detail %d", r.Intn(5)),
		ctx:    p.context(),
	}
}

func (p *program) step() {
	r := p.rng
	switch r.Intn(6) {
	case 0, 1, 2:
		a := p.draw()
		p.log.Append(a.kind, a.actor, a.detail, a.ctx)
		p.ref.Append(a.kind, a.actor, a.detail, a.ctx)
	case 3, 4:
		type span struct{ stage, from, to int }
		var spans []span
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			s := r.Intn(2)
			a := p.draw()
			from := p.stages[s].Len()
			if from != p.rstages[s].Len() {
				p.t.Fatalf("stage %d Len = %d, reference %d", s, from, p.rstages[s].Len())
			}
			p.stages[s].Append(a.kind, a.actor, a.detail, a.ctx)
			p.rstages[s].Append(a.kind, a.actor, a.detail, a.ctx)
			if k := len(spans); k > 0 && spans[k-1].stage == s {
				spans[k-1].to++
				continue
			}
			spans = append(spans, span{s, from, from + 1})
		}
		for _, sp := range spans {
			p.log.Chain(p.stages[sp.stage], sp.from, sp.to)
			p.ref.Chain(p.rstages[sp.stage], sp.from, sp.to)
		}
	default:
		p.log.Reset()
		s := r.Intn(2)
		p.stages[s].Reset()
		p.rstages[s].Reset()
	}
}

// sameEntries reports whether a and b hold the same entries, times
// compared with == as reflect.DeepEqual would, without reflection.
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Seq != y.Seq || x.Time != y.Time || x.Kind != y.Kind || x.Actor != y.Actor ||
			x.Detail != y.Detail || x.PrevHash != y.PrevHash || x.Hash != y.Hash ||
			len(x.Context) != len(y.Context) || (x.Context == nil) != (y.Context == nil) {
			return false
		}
		for k, v := range x.Context {
			if w, ok := y.Context[k]; !ok || w != v {
				return false
			}
		}
	}
	return true
}

// check compares every reader of the two logs.
func (p *program) check() {
	t, l, ref := p.t, p.log, p.ref
	t.Helper()
	if l.Len() != ref.Len() {
		t.Fatalf("Len = %d, reference %d", l.Len(), ref.Len())
	}
	entries := l.Entries()
	if want := ref.Entries(); !reflect.DeepEqual(entries, want) {
		t.Fatalf("Entries differ from the reference (%d entries)", len(want))
	}
	// The reference's tail from k is its entries from k, which entries
	// has just matched; only its anchor needs asking.
	for k := -1; k <= ref.Len()+1; k++ {
		got, gotPrev := l.EntriesSince(k)
		var want []Entry
		if k := max(k, 0); k < len(entries) {
			want = entries[k:]
		}
		if _, wantPrev := ref.EntriesSince(k); gotPrev != wantPrev || !sameEntries(got, want) {
			t.Fatalf("EntriesSince(%d) differs from the reference", k)
		}
	}
	for _, kind := range append(progKinds, "missing") {
		if got, want := l.ByKind(kind), ref.ByKind(kind); !reflect.DeepEqual(got, want) {
			t.Fatalf("ByKind(%q) differs from the reference", kind)
		}
		if got, want := l.CountKind(kind), len(ref.ByKind(kind)); got != want {
			t.Fatalf("CountKind(%q) = %d, reference %d", kind, got, want)
		}
	}
	for _, trace := range append(progTraces, "missing") {
		if got, want := l.ByTrace(trace), ref.ByTrace(trace); !reflect.DeepEqual(got, want) {
			t.Fatalf("ByTrace(%q) differs from the reference", trace)
		}
	}
	for _, actor := range append(progActors, "missing") {
		got, gotOK := l.LatestCheckpoint(actor)
		want, wantOK := ref.LatestCheckpoint(actor)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("LatestCheckpoint(%q) differs from the reference", actor)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := ref.Verify(); err != nil {
		t.Fatalf("reference Verify: %v", err)
	}
	secret := []byte("seal")
	if l.Seal(secret) != ref.Seal(secret) {
		t.Fatal("Seal differs from the reference")
	}
	got, err := l.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("MarshalJSON differs from the reference")
	}
	// A returned context is the caller's: changing it leaves the log
	// as it was.
	for _, e := range entries {
		for k := range e.Context {
			e.Context[k] = "mutated"
		}
		if e.Context != nil {
			e.Context["added"] = "x"
		}
	}
	if !reflect.DeepEqual(l.Entries(), ref.Entries()) {
		t.Fatal("mutating returned contexts changed the log")
	}
}

// TestCompactMatchesReference drives the compact journal and the
// reference with random programs and compares every reader: entries,
// every tail with its anchor, kind and trace selections and counts,
// latest checkpoints, verification, seals and JSON. One program makes
// most contexts distinct, more of them than the context table holds.
func TestCompactMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := newProgram(t, seed, false)
		for i := 0; i < 4; i++ {
			for j := 0; j < 15; j++ {
				p.step()
			}
			p.check()
		}
	}
	p := newProgram(t, 7, true)
	for p.unique <= maxContexts+50 {
		p.step()
	}
	p.check()
}
