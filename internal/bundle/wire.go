package bundle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// The wire format is one canonical, length-prefixed binary encoding.
// Every integer is an unsigned varint in its shortest form and every
// string is a varint byte length followed by the bytes:
//
//	body    = "SKYB" 0x01                      magic, format version
//	          org revision base root
//	          len(removed) removed...           in manifest order
//	          len(coverage) (id hash)...        IDs strictly ascending
//	          len(records) (id source hash)...  in bundle order
//	trailer = keyID sig
//
// SigningBytes is the body and Encode is the body plus the trailer.
// Decode accepts exactly the byte strings Encode produces, so a
// bundle that decodes re-encodes to the bytes that arrived and the
// signature Apply checks covers precisely those bytes.
const wirePrefix = "SKYB\x01"

// Minimum encoded size of one element of each repeated field: every
// string costs at least its one-byte length.
const (
	minRemovedSize  = 1
	minCoverageSize = 2
	minRecordSize   = 3
)

// ErrDecode marks wire bytes that do not parse as a bundle.
var ErrDecode = errors.New("bundle: undecodable bytes")

// coverageEntry is one coverage pair, for encoding in ID order.
type coverageEntry struct{ id, hash string }

// sortedCoverage appends the coverage map's pairs to dst and sorts
// them by ID.
func sortedCoverage(dst []coverageEntry, cov map[string]string) []coverageEntry {
	dst = slices.Grow(dst, len(cov))
	for id, h := range cov {
		dst = append(dst, coverageEntry{id, h})
	}
	slices.SortFunc(dst, func(a, b coverageEntry) int { return strings.Compare(a.id, b.id) })
	return dst
}

// scratch holds the buffers a verification renders into: the sorted
// coverage, and the bytes being hashed or checked (the signing bytes,
// the root preimage, each record source). Verification takes it from
// a pool: a buffer per agent would stay live on every device, and
// fresh buffers per bundle were half of what a fan-out activation
// allocated.
type scratch struct {
	cov []coverageEntry
	buf []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns s to the pool without its references to strings.
func (s *scratch) release() {
	clear(s.cov)
	s.cov = s.cov[:0]
	scratchPool.Put(s)
}

// SigningBytes returns the canonical bytes the signature covers: the
// wire encoding of the bundle without its keyID+sig trailer.
func (b Bundle) SigningBytes() []byte {
	cov := sortedCoverage(nil, b.Manifest.Coverage)
	return b.appendBody(make([]byte, 0, b.bodyLen(cov)), cov)
}

// SignWith signs the bundle in place.
func (b *Bundle) SignWith(s Signer) {
	b.KeyID = s.KeyID()
	b.Sig = s.Sign(b.SigningBytes())
}

// CheckSig reports whether the bundle's signature verifies under v.
func (b Bundle) CheckSig(v Verifier) bool {
	s := getScratch()
	defer s.release()
	return b.checkSig(v, s)
}

// checkSig is CheckSig rendering the signing bytes into s.
func (b *Bundle) checkSig(v Verifier, s *scratch) bool {
	if v == nil || b.Sig == "" {
		return false
	}
	s.cov = sortedCoverage(s.cov[:0], b.Manifest.Coverage)
	s.buf = b.appendBody(slices.Grow(s.buf[:0], b.bodyLen(s.cov)), s.cov)
	return v.Verify(b.KeyID, s.buf, b.Sig)
}

// Encode serializes the bundle for the wire. It cannot fail; the error
// is part of the encoder contract the distributor is written against.
func Encode(b Bundle) ([]byte, error) {
	cov := sortedCoverage(nil, b.Manifest.Coverage)
	out := make([]byte, 0, b.bodyLen(cov)+stringLen(b.KeyID)+stringLen(b.Sig))
	out = b.appendBody(out, cov)
	out = appendString(out, b.KeyID)
	return appendString(out, b.Sig), nil
}

// bodyLen is the exact length appendBody writes.
func (b *Bundle) bodyLen(cov []coverageEntry) int {
	m := &b.Manifest
	n := len(wirePrefix) + stringLen(m.Org) + uvarintLen(m.Revision) + uvarintLen(m.Base) + stringLen(m.Root)
	n += uvarintLen(uint64(len(m.Removed)))
	for _, id := range m.Removed {
		n += stringLen(id)
	}
	n += uvarintLen(uint64(len(cov)))
	for _, e := range cov {
		n += stringLen(e.id) + stringLen(e.hash)
	}
	n += uvarintLen(uint64(len(b.Records)))
	for _, r := range b.Records {
		n += stringLen(r.ID) + stringLen(r.Source) + stringLen(r.Hash)
	}
	return n
}

func (b *Bundle) appendBody(dst []byte, cov []coverageEntry) []byte {
	m := &b.Manifest
	dst = append(dst, wirePrefix...)
	dst = appendString(dst, m.Org)
	dst = binary.AppendUvarint(dst, m.Revision)
	dst = binary.AppendUvarint(dst, m.Base)
	dst = appendString(dst, m.Root)
	dst = binary.AppendUvarint(dst, uint64(len(m.Removed)))
	for _, id := range m.Removed {
		dst = appendString(dst, id)
	}
	dst = binary.AppendUvarint(dst, uint64(len(cov)))
	for _, e := range cov {
		dst = appendString(dst, e.id)
		dst = appendString(dst, e.hash)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Records)))
	for _, r := range b.Records {
		dst = appendString(dst, r.ID)
		dst = appendString(dst, r.Source)
		dst = appendString(dst, r.Hash)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// Decode parses wire bytes strictly: it refuses a wrong magic or
// version, a varint that is truncated or not in its shortest form, a
// count or length that cannot fit in the bytes left (checked before
// anything is allocated for it), coverage IDs that are not strictly
// ascending, and trailing bytes. Strings are copied out of data, so a
// decoded bundle keeps no reference to the wire buffer. Decode checks
// structure only; Agent.Apply does all semantic verification, so a
// decoded bundle is not yet trusted.
func Decode(data []byte) (Bundle, error) {
	if len(data) < len(wirePrefix) || string(data[:len(wirePrefix)]) != wirePrefix {
		return Bundle{}, fmt.Errorf("%w: missing %q magic and version", ErrDecode, wirePrefix)
	}
	r := wireReader{data: data, off: len(wirePrefix)}
	var b Bundle
	m := &b.Manifest
	m.Org = r.string("org")
	m.Revision = r.uvarint("revision")
	m.Base = r.uvarint("base")
	m.Root = r.string("root")
	if n := r.count("removed", minRemovedSize); n > 0 {
		m.Removed = make([]string, n)
		for i := range m.Removed {
			m.Removed[i] = r.string("removed ID")
		}
	}
	n := r.count("coverage", minCoverageSize)
	m.Coverage = make(map[string]string, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		id, h := r.string("coverage ID"), r.string("coverage hash")
		if i > 0 && id <= prev {
			r.fail("coverage ID %q does not follow %q", id, prev)
		}
		m.Coverage[id] = h
		prev = id
	}
	if n := r.count("records", minRecordSize); n > 0 {
		b.Records = make([]Record, n)
		for i := range b.Records {
			rec := &b.Records[i]
			rec.ID, rec.Source, rec.Hash = r.string("record ID"), r.string("record source"), r.string("record hash")
		}
	}
	b.KeyID = r.string("key ID")
	b.Sig = r.string("signature")
	if r.err == nil && r.off != len(data) {
		r.fail("%d trailing bytes", len(data)-r.off)
	}
	if r.err != nil {
		return Bundle{}, r.err
	}
	return b, nil
}

// wireReader is Decode's cursor. The first failure sticks: later reads
// return zero values, so Decode checks the error once at the end.
type wireReader struct {
	data []byte
	off  int
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrDecode, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.data[r.off:])
	switch {
	case n == 0:
		r.fail("truncated %s", what)
		return 0
	case n < 0:
		r.fail("%s overflows 64 bits", what)
		return 0
	case n > 1 && r.data[r.off+n-1] == 0:
		r.fail("%s is not a shortest-form varint", what)
		return 0
	}
	r.off += n
	return x
}

// count reads an element count and refuses one whose elements, at
// minSize bytes each, cannot fit in the rest of the input.
func (r *wireReader) count(what string, minSize int) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if left := len(r.data) - r.off; n > uint64(left/minSize) {
		r.fail("%s count %d exceeds the %d bytes left", what, n, left)
		return 0
	}
	return int(n)
}

func (r *wireReader) string(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if left := len(r.data) - r.off; n > uint64(left) {
		r.fail("%s length %d exceeds the %d bytes left", what, n, left)
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}
