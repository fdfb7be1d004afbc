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
	"hash"
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

// Log is a thread-safe, append-only hash-chained audit log. The zero
// value is ready to use with wall-clock time; use New to inject a
// clock (e.g. a simulation clock).
type Log struct {
	mu      sync.Mutex
	now     func() time.Time
	entries []Entry
	scratch hasher // hash scratch reused across appends (guarded by mu)
	// stage is non-nil on a staging log (NewStage): it holds each
	// buffered entry's rendered chain encoding.
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

// New returns an empty log.
func New(opts ...Option) *Log {
	l := &Log{}
	for _, o := range opts {
		o.apply(l)
	}
	return l
}

// NewStage returns a staging log: Append buffers entries (stamping
// their time from the clock) without chaining them, and renders each
// one's chain encoding except Seq and PrevHash, so a stage is cheap to
// fill concurrently with other stages and cheap to merge. Stages are
// not verifiable; their purpose is to be merged into a real log with
// Chain, which seals ranges of buffered entries onto the log's chain
// deterministically. The sim engine gives each parallel worker one
// stage per destination log.
func NewStage(opts ...Option) *Log {
	l := New(opts...)
	l.stage = &stageBuf{}
	return l
}

// Append records a new entry and returns it with its sequence number
// and chain hashes filled in. On a staging log (NewStage) the entry is
// buffered without hashes.
func (l *Log) Append(kind Kind, actor, detail string, context map[string]string) Entry {
	return l.append(kind, actor, detail, context, true)
}

// AppendOwned is Append with ownership transfer: the log stores the
// context map directly instead of copying it. The caller must not
// mutate the map afterwards. Hot append sites (guard denials, action
// records) build a fresh map per entry anyway, so transferring it
// halves their allocation cost.
func (l *Log) AppendOwned(kind Kind, actor, detail string, context map[string]string) Entry {
	return l.append(kind, actor, detail, context, false)
}

func (l *Log) append(kind Kind, actor, detail string, context map[string]string, copyCtx bool) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()

	now := time.Now
	if l.now != nil {
		now = l.now
	}
	return l.appendLocked(now(), kind, actor, detail, context, copyCtx)
}

// appendLocked records one entry stamped with an explicit time; the
// caller holds l.mu.
func (l *Log) appendLocked(at time.Time, kind Kind, actor, detail string, context map[string]string, copyCtx bool) Entry {
	e := Entry{
		Seq:    len(l.entries),
		Time:   at,
		Kind:   kind,
		Actor:  actor,
		Detail: detail,
	}
	if len(context) > 0 {
		if copyCtx {
			e.Context = make(map[string]string, len(context))
			for k, v := range context {
				e.Context[k] = v
			}
		} else {
			e.Context = context
		}
	}
	if l.stage != nil {
		l.stage.render(&e)
	} else {
		if len(l.entries) > 0 {
			e.PrevHash = l.entries[len(l.entries)-1].Hash
		}
		e.Hash = l.scratch.hash(&e)
	}
	l.entries = append(l.entries, e)
	return e
}

// Chain seals the staged entries [from, to) of stage onto l's chain,
// in order and with their recorded times: each gets its Seq and
// PrevHash and is hashed over the content encoding the stage rendered,
// so l ends up exactly as if the entries had been appended to it one by
// one. The stage keeps its entries until Reset; l must not be a stage.
func (l *Log) Chain(stage *Log, from, to int) {
	if stage == nil || stage == l || from >= to {
		return
	}
	stage.mu.Lock()
	defer stage.mu.Unlock()
	if stage.stage == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := from; i < to; i++ {
		e := stage.entries[i]
		e.Seq = len(l.entries)
		if e.Seq > 0 {
			e.PrevHash = l.entries[e.Seq-1].Hash
		}
		e.Hash = stage.stage.seal(i, e.Seq, e.PrevHash)
		l.entries = append(l.entries, e)
	}
}

// Reset empties a staging log for reuse, keeping its buffers and
// dropping its references to entry contents. It does nothing on a
// chained log, which is append-only.
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stage == nil {
		return
	}
	clear(l.entries)
	l.entries = l.entries[:0]
	l.stage.enc = l.stage.enc[:0]
	l.stage.at = l.stage.at[:0]
}

// Len returns the number of entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Entries returns a copy of all entries.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
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
	if from < 0 {
		from = 0
	}
	if from > len(l.entries) {
		from = len(l.entries)
	}
	prev := ""
	if from > 0 {
		prev = l.entries[from-1].Hash
	}
	if from == len(l.entries) {
		return nil, prev
	}
	out := make([]Entry, len(l.entries)-from)
	copy(out, l.entries[from:])
	return out, prev
}

// ByKind returns copies of all entries of the given kind, in order.
func (l *Log) ByKind(kind Kind) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Entry
	for _, e := range l.entries {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// CountKind returns the number of entries of the given kind without
// copying them — use instead of len(ByKind(k)) on large journals.
func (l *Log) CountKind(kind Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := range l.entries {
		if l.entries[i].Kind == kind {
			n++
		}
	}
	return n
}

// Verify walks the chain and returns ErrChainBroken (wrapped with the
// failing sequence number) if any entry's hash or back-link is
// inconsistent.
func (l *Log) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return VerifyEntries(l.entries)
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
	if index < 0 || index > len(l.entries) {
		return fmt.Errorf("%w: verify-from index %d out of range [0,%d]", ErrChainBroken, index, len(l.entries))
	}
	prev := prevHash
	h := hasherPool.Get().(*hasher)
	defer hasherPool.Put(h)
	for i := index; i < len(l.entries); i++ {
		e := &l.entries[i]
		if e.Seq != i {
			return fmt.Errorf("%w: entry %d has seq %d", ErrChainBroken, i, e.Seq)
		}
		if e.PrevHash != prev {
			return fmt.Errorf("%w: entry %d back-link mismatch", ErrChainBroken, i)
		}
		if !h.matches(e) {
			return fmt.Errorf("%w: entry %d content hash mismatch", ErrChainBroken, i)
		}
		prev = e.Hash
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

// hasher computes entry chain hashes over a reusable buffer. The
// canonical encoding is length-prefixed (every string is u32 length +
// bytes, integers are fixed-width big-endian, context keys sorted), so
// it is injective over the hashed fields and orders of magnitude
// cheaper than the reflective JSON marshal it replaces. Time is hashed
// as UnixNano, which survives JSON round-trips (encoding drops only
// the monotonic reading), so exported logs still verify elsewhere.
//
// The encoding is Seq, then the content fields (appendContent), then
// PrevHash; a staging log renders the content when an entry is
// appended and adds the other two when it is sealed (see stageBuf).
type hasher struct {
	buf  []byte
	keys []string
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendContent appends the encoding of every hashed field of e
// between Seq and PrevHash; keys is the scratch that sorts the context
// keys.
func appendContent(b []byte, e *Entry, keys *[]string) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(e.Time.UnixNano()))
	b = appendStr(b, string(e.Kind))
	b = appendStr(b, e.Actor)
	b = appendStr(b, e.Detail)
	b = binary.BigEndian.AppendUint64(b, uint64(len(e.Context)))
	if len(e.Context) > 0 {
		ks := (*keys)[:0]
		for k := range e.Context {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			b = appendStr(b, k)
			b = appendStr(b, e.Context[k])
		}
		*keys = ks
	}
	return b
}

// hexHashLen is the length of a rendered chain hash (hex SHA-256).
const hexHashLen = 2 * sha256.Size

// hash computes the chain hash over every field of e except Hash
// itself — one string allocation, nothing else.
func (h *hasher) hash(e *Entry) string {
	var out [hexHashLen]byte
	h.encode(e, &out)
	return string(out[:])
}

// matches reports whether e.Hash is the chain hash of e's content.
// The rendered hash lives on the stack, so verification walks are
// allocation-free.
func (h *hasher) matches(e *Entry) bool {
	var out [hexHashLen]byte
	h.encode(e, &out)
	return string(out[:]) == e.Hash
}

func (h *hasher) encode(e *Entry, out *[hexHashLen]byte) {
	h.buf = binary.BigEndian.AppendUint64(h.buf[:0], uint64(e.Seq))
	h.buf = appendContent(h.buf, e, &h.keys)
	h.buf = appendStr(h.buf, e.PrevHash)
	sum := sha256.Sum256(h.buf)
	hex.Encode(out[:], sum[:])
}

// stageBuf is a staging log's rendered chain encodings: entry i's
// content encoding (appendContent) starts at at[i] and runs to at[i+1]
// (the last one to the end of enc). Sealing an entry streams its Seq,
// that content and its PrevHash through one reused digest, so nothing
// on the merge path re-encodes an entry.
type stageBuf struct {
	enc  []byte
	at   []int
	keys []string

	digest hash.Hash
	// seq and prev frame the content in the hashed encoding; sum
	// receives the digest.
	seq  [8]byte
	prev [4 + hexHashLen]byte
	sum  [sha256.Size]byte
}

// render appends e's content encoding.
func (s *stageBuf) render(e *Entry) {
	s.at = append(s.at, len(s.enc))
	s.enc = appendContent(s.enc, e, &s.keys)
}

// seal returns the chain hash of entry i at position seq after prev,
// which is "" or a chain hash.
func (s *stageBuf) seal(i, seq int, prev string) string {
	end := len(s.enc)
	if i+1 < len(s.at) {
		end = s.at[i+1]
	}
	if s.digest == nil {
		s.digest = sha256.New()
	}
	// A hash.Hash's Write never returns an error.
	s.digest.Reset()
	binary.BigEndian.PutUint64(s.seq[:], uint64(seq))
	s.digest.Write(s.seq[:])
	s.digest.Write(s.enc[s.at[i]:end])
	binary.BigEndian.PutUint32(s.prev[:], uint32(len(prev)))
	n := 4 + copy(s.prev[4:], prev)
	s.digest.Write(s.prev[:n])
	s.digest.Sum(s.sum[:0])
	var out [hexHashLen]byte
	hex.Encode(out[:], s.sum[:])
	return string(out[:])
}

var hasherPool = sync.Pool{New: func() any { return new(hasher) }}

// Seal computes an HMAC over the final hash of the chain, binding the
// whole log to a shared secret. A holder of the secret can detect
// wholesale replacement of the log (not just in-place edits).
func (l *Log) Seal(secret []byte) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	mac := hmac.New(sha256.New, secret)
	if len(l.entries) > 0 {
		mac.Write([]byte(l.entries[len(l.entries)-1].Hash))
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
// after tick; when the values repeat, the cached immutable map is
// handed to AppendOwned again, so steady-state appends allocate no
// context at all. Entries never mutate their context after append,
// which is what makes sharing one map across many entries safe.
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
