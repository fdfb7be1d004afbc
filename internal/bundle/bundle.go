// Package bundle is the signed, versioned policy-distribution plane:
// the control plane packages a coherent policy revision into a bundle
// — per-policy content hashes, a coverage map describing the complete
// post-activation policy set, a root hash binding both to a
// monotonically increasing revision number, and a signature over the
// whole — and devices verify everything before touching live state.
//
// The design is fail-closed by construction (the paper's Section VI
// posture applied to policy distribution itself): a device activates a
// revision only after the signature, the root, the delta chain, every
// record hash and the full coverage map check out, and activation is
// one atomic swap through the compiled-snapshot machinery — a device
// is always on exactly one fully verified revision, never a mix, and
// any defect leaves it on the previous verified revision. Delta
// bundles carry only the changed policies (plus the coverage map), so
// a fleet-wide revision costs bytes proportional to the change, not
// the policy set.
//
// Policies travel as canonical policylang source: Parse(Print(rule))
// round-trips exactly, so the text is both the record's payload and
// its hashed content. The framing around it is one canonical binary
// encoding (wire.go).
package bundle

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
)

// Kind labels on bundles and their metrics.
const (
	KindFull  = "full"
	KindDelta = "delta"
)

// Record is one policy in wire form.
type Record struct {
	// ID is the policy ID (must match the compiled policy's ID).
	ID string
	// Source is the canonical policylang text of the policy.
	Source string
	// Hash is the hex SHA-256 of Source.
	Hash string
}

// Manifest describes one signed revision.
type Manifest struct {
	// Org names the organization whose bundle root this revision
	// belongs to ("" = the single-root deployment). Each org root is
	// an independent revision stream; receivers holding a scoped
	// verifier refuse a manifest whose org does not match the signing
	// key's scope.
	Org string
	// Revision is the monotonically increasing revision number.
	Revision uint64
	// Base is the revision this delta patches (0 = full bundle).
	Base uint64
	// Removed lists policy IDs deleted by this delta (sorted).
	Removed []string
	// Coverage maps every policy ID in the complete post-activation
	// set to its content hash — full and delta bundles alike describe
	// the whole revision, so a receiver can prove it holds nothing
	// more and nothing less.
	Coverage map[string]string
	// Root is the hex root hash binding Revision, Base, Removed and
	// Coverage.
	Root string
}

// Kind reports whether the manifest describes a full or delta bundle.
func (m Manifest) Kind() string {
	if m.Base > 0 {
		return KindDelta
	}
	return KindFull
}

// Bundle is one signed, versioned policy revision on the wire.
type Bundle struct {
	Manifest Manifest
	// Records carry the policy sources: the whole set for a full
	// bundle, only the changed policies for a delta.
	Records []Record
	// KeyID names the signing key; Sig is the hex signature over
	// SigningBytes.
	KeyID string
	Sig   string
}

// Kind reports full or delta.
func (b Bundle) Kind() string { return b.Manifest.Kind() }

// HashSource returns the hex SHA-256 content hash of canonical policy
// source.
func HashSource(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// ComputeRoot derives the manifest's root hash from its other fields:
// org, revision, base, the sorted removals and the sorted coverage
// pairs. Any bit of the revision's identity or contents therefore
// changes the root, and the signature over the bundle pins the root.
// The preimage is "org=O;rev=R;base=B;removed=a,b;" followed by
// "id=hash;" per coverage entry in ID order.
func ComputeRoot(m Manifest) string {
	s := getScratch()
	defer s.release()
	sum := m.rootSum(s)
	return hex.EncodeToString(sum[:])
}

// rootSum is the SHA-256 ComputeRoot renders in hex, with the
// preimage built in s.
func (m *Manifest) rootSum(s *scratch) [sha256.Size]byte {
	removed := m.Removed
	if !slices.IsSorted(removed) {
		removed = slices.Clone(removed)
		slices.Sort(removed)
	}
	pre := append(s.buf[:0], "org="...)
	pre = append(pre, m.Org...)
	pre = append(pre, ";rev="...)
	pre = strconv.AppendUint(pre, m.Revision, 10)
	pre = append(pre, ";base="...)
	pre = strconv.AppendUint(pre, m.Base, 10)
	pre = append(pre, ";removed="...)
	for i, id := range removed {
		if i > 0 {
			pre = append(pre, ',')
		}
		pre = append(pre, id...)
	}
	pre = append(pre, ';')
	s.cov = sortedCoverage(s.cov[:0], m.Coverage)
	for _, e := range s.cov {
		pre = append(pre, e.id...)
		pre = append(pre, '=')
		pre = append(pre, e.hash...)
		pre = append(pre, ';')
	}
	s.buf = pre
	return sha256.Sum256(pre)
}
