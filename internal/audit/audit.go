// Package audit provides an append-only, hash-chained audit log.
//
// Several of the paper's prevention mechanisms presuppose trustworthy
// records: break-glass rules "would require support for audits to verify
// that devices did not abuse the break-glass rules" (Section VI.B), and
// deactivation decisions must themselves be reviewable. Each entry binds
// its content to the hash of its predecessor, so any in-place
// modification, deletion, or reordering is detectable by Verify.
package audit

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrChainBroken is returned by Verify when the hash chain does not
// validate.
var ErrChainBroken = errors.New("audit: hash chain broken")

// Kind labels the category of an audit entry.
type Kind string

// Well-known entry kinds used by the guard layer.
const (
	KindAction     Kind = "action"
	KindDenial     Kind = "denial"
	KindBreakGlass Kind = "break-glass"
	KindDeactivate Kind = "deactivate"
	KindAdmission  Kind = "admission"
	KindOversight  Kind = "oversight"
	KindTamper     Kind = "tamper"
	KindCheckpoint Kind = "checkpoint"
	KindBundle     Kind = "bundle"
	KindNote       Kind = "note"
)

// TraceKey is the context key under which append sites stamp the ID
// of the trace that caused an entry. A log indexes its entries by
// that value as they are appended, so ByTrace costs O(answer).
const TraceKey = "trace"

// Entry is one immutable audit record.
type Entry struct {
	// Seq is the zero-based position of the entry in the log.
	Seq int `json:"seq"`
	// Time is the (virtual or wall) time the entry was recorded.
	Time time.Time `json:"time"`
	// Kind categorizes the record.
	Kind Kind `json:"kind"`
	// Actor is the device or collective that caused the record.
	Actor string `json:"actor"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
	// Context carries structured key/value context (e.g. the state at
	// the time of a break-glass use).
	Context map[string]string `json:"context,omitempty"`
	// PrevHash is the hex hash of the previous entry ("" for the
	// first).
	PrevHash string `json:"prevHash"`
	// Hash is the hex hash of this entry's content including PrevHash.
	Hash string `json:"hash"`
}

// chunkLen is the number of records in one storage chunk (112 KiB).
// Chunks are allocated whole and never moved, so a growing log copies
// no record.
const chunkLen = 1024

// maxContexts bounds a log's table of distinct context encodings.
// Contexts that repeat (a device's action labels, a revision's acks)
// share one string; a full table is cleared, so contexts unique to one
// entry, such as a trace's, cannot pin it.
const maxContexts = 1 << 10

// record is a chained entry as the log keeps it. Seq is its position
// and PrevHash the previous record's hash, so neither is stored; the
// hash stays binary until an Entry leaves the package.
type record struct {
	at     time.Time
	actor  string
	detail string
	// ctx is the context's canonical encoding (appendContext), the
	// bytes the chain hash covers; equal contexts share one string.
	ctx  string
	hash [sha256.Size]byte
	// kind indexes Log.kinds.
	kind uint32
	// trace is 1 + the position of the previous entry stamped with the
	// same trace ID, or 0: each trace's entries form a list that
	// starts at Log.traces.
	trace uint32
}

// Log is a thread-safe, append-only hash-chained audit log. The zero
// value is ready to use with wall-clock time; use New to inject a
// clock (e.g. a simulation clock).
type Log struct {
	mu  sync.Mutex
	now func() time.Time

	// The chain: n records in fixed-size chunks.
	chunks []*[chunkLen]record
	n      int
	// kinds lists the distinct kinds in order of first append, and
	// counts their entries.
	kinds  []Kind
	counts []int
	// contexts dedups context encodings (at most maxContexts).
	contexts map[string]string
	// traces maps a trace ID to 1 + the position of its latest entry;
	// checkpoints maps an actor to 1 + the position of its latest
	// KindCheckpoint entry.
	traces      map[string]uint32
	checkpoints map[string]uint32

	// enc and buf are scratch for a context encoding and a hash input.
	enc, buf []byte
	keys     []string

	// stage is non-nil on a staging log (NewStage), which buffers
	// entries and holds no chain.
	stage *stageBuf
}

// Journal routes audit appends: given the log an append would normally
// target, it returns the log that should receive it instead — e.g. a
// worker's staging log during parallel simulation (sim.Lane
// implements this). Implementations must return nil for a nil base, so
// "auditing disabled" survives routing.
type Journal interface {
	Route(base *Log) *Log
}

// Resolve applies an optional Journal to a base log: a nil journal (or
// nil base) passes the base through unchanged. Append sites that
// support deterministic parallel execution write to Resolve(j, log)
// instead of log.
func Resolve(j Journal, base *Log) *Log {
	if j == nil || base == nil {
		return base
	}
	return j.Route(base)
}

// Option configures a Log.
type Option interface {
	apply(*Log)
}

type clockOption struct{ now func() time.Time }

func (o clockOption) apply(l *Log) { l.now = o.now }

// WithClock injects the time source used to stamp entries.
func WithClock(now func() time.Time) Option {
	return clockOption{now: now}
}

// New returns an empty log. Its storage comes with the first append.
func New(opts ...Option) *Log {
	l := &Log{}
	for _, o := range opts {
		o.apply(l)
	}
	return l
}

// NewStage returns a staging log: Append buffers entries (stamping
// their time from the clock) without chaining them, and renders each
// one's context encoding, so a stage is cheap to fill concurrently
// with other stages and cheap to merge. A stage is not a chain: Len
// counts its buffered entries, and every other reader sees an empty
// log. Its purpose is to be merged into a real log with Chain, which
// seals ranges of buffered entries onto the log's chain
// deterministically. The sim engine gives each parallel worker one
// stage per destination log.
func NewStage(opts ...Option) *Log {
	l := New(opts...)
	l.stage = &stageBuf{}
	return l
}

// Append records a new entry. The log keeps the context's encoding,
// never the map, so the caller may reuse or mutate it afterwards. On a
// staging log (NewStage) the entry is buffered without hashes.
func (l *Log) Append(kind Kind, actor, detail string, context map[string]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now
	if l.now != nil {
		now = l.now
	}
	at := now()
	if l.stage != nil {
		l.stage.add(at, kind, actor, detail, context)
		return
	}
	l.enc = appendContext(l.enc[:0], context, &l.keys)
	l.push(at, kind, actor, detail, l.enc)
}

// AppendOwned is Append.
//
// Deprecated: the log never retains a context map, so there is no
// ownership to transfer; use Append.
func (l *Log) AppendOwned(kind Kind, actor, detail string, context map[string]string) {
	l.Append(kind, actor, detail, context)
}

// push chains one entry whose context encoding is ctx and updates the
// indexes; the caller holds l.mu.
func (l *Log) push(at time.Time, kind Kind, actor, detail string, ctx []byte) {
	if l.n%chunkLen == 0 {
		l.chunks = append(l.chunks, new([chunkLen]record))
	}
	r := l.rec(l.n)
	*r = record{at: at, actor: actor, detail: detail, ctx: l.intern(ctx), kind: l.kindOf(kind)}
	r.hash = l.digest(l.n, r)
	l.counts[r.kind]++
	pos := uint32(l.n) + 1
	if kind == KindCheckpoint {
		if l.checkpoints == nil {
			l.checkpoints = make(map[string]uint32)
		}
		l.checkpoints[actor] = pos
	}
	if trace, ok := contextValue(r.ctx, TraceKey); ok {
		if l.traces == nil {
			l.traces = make(map[string]uint32)
		}
		r.trace = l.traces[trace]
		l.traces[trace] = pos
	}
	l.n++
}

// rec returns record i; the caller holds l.mu.
func (l *Log) rec(i int) *record {
	return &l.chunks[i/chunkLen][i%chunkLen]
}

// digest returns the chain hash of r at position i, chained onto
// record i-1 (see hasher for the encoding); the caller holds l.mu.
func (l *Log) digest(i int, r *record) [sha256.Size]byte {
	b := binary.BigEndian.AppendUint64(l.buf[:0], uint64(i))
	b = appendHead(b, r.at, l.kinds[r.kind], r.actor, r.detail)
	b = append(b, r.ctx...)
	if i == 0 {
		b = binary.BigEndian.AppendUint32(b, 0)
	} else {
		b = binary.BigEndian.AppendUint32(b, hexHashLen)
		b = hex.AppendEncode(b, l.rec(i - 1).hash[:])
	}
	l.buf = b
	return sha256.Sum256(b)
}

// kindOf returns kind's index in l.kinds, adding it on first use.
func (l *Log) kindOf(kind Kind) uint32 {
	if k := l.kindIndex(kind); k >= 0 {
		return uint32(k)
	}
	l.kinds = append(l.kinds, kind)
	l.counts = append(l.counts, 0)
	return uint32(len(l.kinds) - 1)
}

// noContext is the encoding of an empty context: a zero pair count.
const noContext = "\x00\x00\x00\x00\x00\x00\x00\x00"

// intern returns ctx as a string, shared with earlier records that
// hold the same encoding while the table still lists it.
func (l *Log) intern(ctx []byte) string {
	if string(ctx) == noContext {
		return noContext
	}
	if s, ok := l.contexts[string(ctx)]; ok {
		return s
	}
	s := string(ctx)
	if l.contexts == nil {
		l.contexts = make(map[string]string)
	} else if len(l.contexts) >= maxContexts {
		clear(l.contexts)
	}
	l.contexts[s] = s
	return s
}

// Chain seals the staged entries [from, to) of stage onto l's chain,
// in order and with their recorded times: each is hashed over the
// context encoding the stage rendered, so l ends up exactly as if the
// entries had been appended to it one by one. The stage keeps its
// entries until Reset; l must not be a stage.
func (l *Log) Chain(stage *Log, from, to int) {
	if stage == nil || stage == l || from >= to {
		return
	}
	stage.mu.Lock()
	defer stage.mu.Unlock()
	s := stage.stage
	if s == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := from; i < to; i++ {
		e := &s.entries[i]
		end := len(s.enc)
		if i+1 < len(s.entries) {
			end = s.entries[i+1].ctx
		}
		l.push(e.at, e.kind, e.actor, e.detail, s.enc[e.ctx:end])
	}
}

// Reset empties a staging log for reuse, keeping its buffers and
// dropping its references to entry contents. It does nothing on a
// chained log, which is append-only.
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.stage; s != nil {
		clear(s.entries)
		s.entries = s.entries[:0]
		s.enc = s.enc[:0]
	}
}

// Len returns the number of entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stage != nil {
		return len(l.stage.entries)
	}
	return l.n
}

// hexHashLen is the length of a rendered chain hash (hex SHA-256).
const hexHashLen = 2 * sha256.Size

// hashAt renders the hash of record i, or "" for i < 0; the caller
// holds l.mu.
func (l *Log) hashAt(i int) string {
	if i < 0 {
		return ""
	}
	var out [hexHashLen]byte
	hex.Encode(out[:], l.rec(i).hash[:])
	return string(out[:])
}

// entry renders record i as an Entry whose PrevHash is prev; the
// caller holds l.mu.
func (l *Log) entry(i int, prev string) Entry {
	r := l.rec(i)
	return Entry{
		Seq:      i,
		Time:     r.at,
		Kind:     l.kinds[r.kind],
		Actor:    r.actor,
		Detail:   r.detail,
		Context:  decodeContext(r.ctx),
		PrevHash: prev,
		Hash:     l.hashAt(i),
	}
}

// entries renders records [from, to), the first chained onto prev;
// the caller holds l.mu.
func (l *Log) entries(from, to int, prev string) []Entry {
	out := make([]Entry, 0, to-from)
	for i := from; i < to; i++ {
		e := l.entry(i, prev)
		out = append(out, e)
		prev = e.Hash
	}
	return out
}

// Entries returns a copy of all entries.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries(0, l.n, "")
}

// EntriesSince returns copies of the entries from index on, together
// with the hash the tail chains onto (the hash of entry from-1, or ""
// when from is 0). The pair is exactly what a streaming reader needs
// to hand VerifyTail: the prefix before from is pinned by the
// returned hash, so the tail verifies without rehashing it. A from
// beyond the log's current length returns (nil, tip-hash): streaming
// clients poll with their next expected index and get the anchor for
// entries still to come. Negative from is clamped to 0.
func (l *Log) EntriesSince(from int) ([]Entry, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	from = max(0, min(from, l.n))
	prev := l.hashAt(from - 1)
	if from == l.n {
		return nil, prev
	}
	return l.entries(from, l.n, prev), prev
}

// ByKind returns copies of all entries of the given kind, in order.
func (l *Log) ByKind(kind Kind) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := l.kindIndex(kind)
	if k < 0 || l.counts[k] == 0 {
		return nil
	}
	out := make([]Entry, 0, l.counts[k])
	for i := 0; i < l.n; i++ {
		if l.rec(i).kind == uint32(k) {
			out = append(out, l.entry(i, l.hashAt(i-1)))
		}
	}
	return out
}

// kindIndex returns kind's index in l.kinds, or -1 when no entry has
// it; the caller holds l.mu.
func (l *Log) kindIndex(kind Kind) int {
	for i, k := range l.kinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// CountKind returns the number of entries of the given kind, from a
// count kept at append time.
func (l *Log) CountKind(kind Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := l.kindIndex(kind); k >= 0 {
		return l.counts[k]
	}
	return 0
}

// ByTrace returns copies of the entries whose context stamps trace
// under TraceKey, in order. It reads an index kept at append time, so
// its cost does not grow with the log.
func (l *Log) ByTrace(trace string) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for at := l.traces[trace]; at != 0; at = l.rec(int(at) - 1).trace {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Entry, n)
	for at := l.traces[trace]; at != 0; at = l.rec(int(at) - 1).trace {
		n--
		out[n] = l.entry(int(at)-1, l.hashAt(int(at)-2))
	}
	return out
}

// LatestCheckpoint returns the actor's most recent KindCheckpoint
// entry, from an index kept at append time, and false when it has
// none.
func (l *Log) LatestCheckpoint(actor string) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at := int(l.checkpoints[actor])
	if at == 0 {
		return Entry{}, false
	}
	return l.entry(at-1, l.hashAt(at-2)), true
}

// Verify rehashes the whole chain and returns ErrChainBroken (wrapped
// with the failing sequence number) if any entry's hash is
// inconsistent with its content and its predecessor's hash.
func (l *Log) Verify() error {
	return l.VerifyFrom(0, "")
}

// VerifyFrom walks only the chain tail starting at index, checking
// that the first tail entry back-links to prevHash (the hash of entry
// index-1, or "" for index 0) and that every subsequent entry chains
// correctly. A caller that remembers (index, prevHash) from an earlier
// full Verify can therefore re-verify a long-running journal
// incrementally without rehashing the whole prefix: the prefix is
// pinned by prevHash, so any in-place edit before index still breaks
// the tail's back-link. Index must be within [0, Len()].
func (l *Log) VerifyFrom(index int, prevHash string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index < 0 || index > l.n {
		return fmt.Errorf("%w: verify-from index %d out of range [0,%d]", ErrChainBroken, index, l.n)
	}
	if index < l.n && l.hashAt(index-1) != prevHash {
		return fmt.Errorf("%w: entry %d back-link mismatch", ErrChainBroken, index)
	}
	for i := index; i < l.n; i++ {
		r := l.rec(i)
		if l.digest(i, r) != r.hash {
			return fmt.Errorf("%w: entry %d content hash mismatch", ErrChainBroken, i)
		}
	}
	return nil
}

// MarshalJSON encodes the log as a JSON array of entries.
func (l *Log) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.Entries())
}

// VerifyEntries validates a chain of entries exported from a Log (for
// example, after JSON round-tripping on another machine).
func VerifyEntries(entries []Entry) error {
	return VerifyTail(0, "", entries)
}

// VerifyTail validates an exported tail of a chain: entries must be
// the records from index from on, and prevHash the hash of the entry
// before the tail ("" when from is 0). It is the exported-slice form
// of Log.VerifyFrom — an audit-stream consumer that received
// (from, prevHash, entries) over the wire can verify every streamed
// prefix incrementally without ever holding the full journal.
func VerifyTail(from int, prevHash string, entries []Entry) error {
	if from < 0 {
		return fmt.Errorf("%w: negative tail index %d", ErrChainBroken, from)
	}
	prev := prevHash
	h := hasherPool.Get().(*hasher)
	defer hasherPool.Put(h)
	for i := range entries {
		e := &entries[i]
		if e.Seq != from+i {
			return fmt.Errorf("%w: entry %d has seq %d", ErrChainBroken, from+i, e.Seq)
		}
		if e.PrevHash != prev {
			return fmt.Errorf("%w: entry %d back-link mismatch", ErrChainBroken, from+i)
		}
		if !h.matches(e) {
			return fmt.Errorf("%w: entry %d content hash mismatch", ErrChainBroken, from+i)
		}
		prev = e.Hash
	}
	return nil
}

// hasher computes the chain hash of an exported Entry over a reusable
// buffer. The canonical encoding is length-prefixed (every string is
// u32 length + bytes, integers are fixed-width big-endian, context
// keys sorted), so it is injective over the hashed fields and orders
// of magnitude cheaper than a reflective JSON marshal. Time is hashed
// as UnixNano, which survives JSON round-trips (encoding drops only
// the monotonic reading), so exported logs still verify elsewhere.
//
// The encoding is Seq, then the content — appendHead's fields and
// appendContext's context — then PrevHash. A Log hashes its records
// over the same bytes (Log.digest), keeping the context part as it
// was rendered at append time.
type hasher struct {
	buf  []byte
	keys []string
}

// matches reports whether e.Hash is the chain hash of e's content.
// The rendered hash lives on the stack, so verification walks are
// allocation-free.
func (h *hasher) matches(e *Entry) bool {
	h.buf = binary.BigEndian.AppendUint64(h.buf[:0], uint64(e.Seq))
	h.buf = appendHead(h.buf, e.Time, e.Kind, e.Actor, e.Detail)
	h.buf = appendContext(h.buf, e.Context, &h.keys)
	h.buf = appendStr(h.buf, e.PrevHash)
	sum := sha256.Sum256(h.buf)
	var out [hexHashLen]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]) == e.Hash
}

var hasherPool = sync.Pool{New: func() any { return new(hasher) }}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendHead appends the encoding of the hashed fields before the
// context.
func appendHead(b []byte, at time.Time, kind Kind, actor, detail string) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(at.UnixNano()))
	b = appendStr(b, string(kind))
	b = appendStr(b, actor)
	return appendStr(b, detail)
}

// appendContext appends a context's canonical encoding: the pair
// count, then each key and value in key order; keys is the scratch
// that sorts the keys.
func appendContext(b []byte, ctx map[string]string, keys *[]string) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(ctx)))
	if len(ctx) == 0 {
		return b
	}
	ks := (*keys)[:0]
	for k := range ctx {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		b = appendStr(b, k)
		b = appendStr(b, ctx[k])
	}
	*keys = ks
	return b
}

// cutStr splits the length-prefixed string appendStr wrote off the
// front of s.
func cutStr(s string) (string, string) {
	n := int(s[0])<<24 | int(s[1])<<16 | int(s[2])<<8 | int(s[3])
	return s[4 : 4+n], s[4+n:]
}

// contextPairs returns the pair count of a context encoding and the
// pairs' encoding.
func contextPairs(enc string) (int, string) {
	n := 0
	for i := 0; i < 8; i++ {
		n = n<<8 | int(enc[i])
	}
	return n, enc[8:]
}

// decodeContext rebuilds a context map from its encoding; keys and
// values are substrings of enc. An empty context decodes to nil.
func decodeContext(enc string) map[string]string {
	n, rest := contextPairs(enc)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for ; n > 0; n-- {
		var k, v string
		k, rest = cutStr(rest)
		v, rest = cutStr(rest)
		m[k] = v
	}
	return m
}

// contextValue returns the value under key in a context encoding.
func contextValue(enc, key string) (string, bool) {
	n, rest := contextPairs(enc)
	for ; n > 0; n-- {
		var k, v string
		k, rest = cutStr(rest)
		v, rest = cutStr(rest)
		if k == key {
			return v, true
		}
	}
	return "", false
}

// stageBuf is a staging log's buffered entries. Entry i's context
// encoding runs in enc from entries[i].ctx to the next entry's (the
// last one to the end of enc), and Chain hashes it from there, so
// nothing on the merge path re-encodes a context.
type stageBuf struct {
	entries []staged
	enc     []byte
	keys    []string
}

type staged struct {
	at            time.Time
	kind          Kind
	actor, detail string
	ctx           int
}

func (s *stageBuf) add(at time.Time, kind Kind, actor, detail string, context map[string]string) {
	s.entries = append(s.entries, staged{at: at, kind: kind, actor: actor, detail: detail, ctx: len(s.enc)})
	s.enc = appendContext(s.enc, context, &s.keys)
}

// Seal computes an HMAC over the final hash of the chain, binding the
// whole log to a shared secret. A holder of the secret can detect
// wholesale replacement of the log (not just in-place edits).
func (l *Log) Seal(secret []byte) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	mac := hmac.New(sha256.New, secret)
	if l.n > 0 {
		mac.Write([]byte(l.hashAt(l.n - 1)))
	}
	return hex.EncodeToString(mac.Sum(nil))
}

// CheckSeal reports whether the seal matches the current chain tip
// under the secret.
func (l *Log) CheckSeal(secret []byte, seal string) bool {
	want := l.Seal(secret)
	return hmac.Equal([]byte(want), []byte(seal))
}

// CtxCache caches the most recent context map built by one hot append
// site. MAPE loops append entries with the same few label values tick
// after tick; when the values repeat, the cached map is handed to
// Append again, so steady-state appends build no map at all. The log
// only reads a context while appending (it keeps the encoding, shared
// between equal contexts), so the cache saves the map's allocation and
// nothing else.
//
// A cache instance must be used with one fixed key set per arity (the
// match test compares values under the given keys, so mixing key sets
// of equal size could alias).
type CtxCache struct {
	mu   sync.Mutex
	last map[string]string
}

// Get2 returns a map equal to {k1: v1, k2: v2}, reusing the cached
// map when it already holds exactly those pairs. The returned map is
// shared and must be treated as immutable.
func (c *CtxCache) Get2(k1, v1, k2, v2 string) map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.last; len(m) == 2 && m[k1] == v1 && m[k2] == v2 {
		return m
	}
	m := map[string]string{k1: v1, k2: v2}
	c.last = m
	return m
}

// Get3 is Get2 for three pairs.
func (c *CtxCache) Get3(k1, v1, k2, v2, k3, v3 string) map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.last; len(m) == 3 && m[k1] == v1 && m[k2] == v2 && m[k3] == v3 {
		return m
	}
	m := map[string]string{k1: v1, k2: v2, k3: v3}
	c.last = m
	return m
}

// Get4 is Get2 for four pairs.
func (c *CtxCache) Get4(k1, v1, k2, v2, k3, v3, k4, v4 string) map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.last; len(m) == 4 && m[k1] == v1 && m[k2] == v2 && m[k3] == v3 && m[k4] == v4 {
		return m
	}
	m := map[string]string{k1: v1, k2: v2, k3: v3, k4: v4}
	c.last = m
	return m
}
