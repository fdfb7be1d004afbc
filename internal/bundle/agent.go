package bundle

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"repro/internal/policy"
)

// Verification failure causes, one typed error per rejected{cause}
// label. Every path that refuses a bundle wraps exactly one of these so
// telemetry and audit agree on why.
var (
	ErrSignature = errors.New("bundle: signature verification failed")
	ErrRoot      = errors.New("bundle: manifest root hash mismatch")
	ErrScope     = errors.New("bundle: records outside signing key scope")
	ErrStale     = errors.New("bundle: revision not newer than active")
	ErrGap       = errors.New("bundle: delta base does not match active revision")
	ErrHash      = errors.New("bundle: record content hash mismatch")
	ErrCoverage  = errors.New("bundle: coverage map does not describe resulting set")
	ErrMalformed = errors.New("bundle: malformed contents")
)

// CauseOf maps a rejection error to its rejected{cause} label.
func CauseOf(err error) string {
	switch {
	case errors.Is(err, ErrSignature):
		return "signature"
	case errors.Is(err, ErrScope):
		return "scope"
	case errors.Is(err, ErrRoot):
		return "root"
	case errors.Is(err, ErrStale):
		return "stale"
	case errors.Is(err, ErrGap):
		return "gap"
	case errors.Is(err, ErrHash):
		return "hash"
	case errors.Is(err, ErrCoverage):
		return "coverage"
	case errors.Is(err, ErrDecode):
		return "decode"
	default:
		return "malformed"
	}
}

// Agent is the device-side half of the distribution plane: it verifies
// bundles end to end and only then activates them atomically on the
// device's policy set. Verification never touches live state — every
// check runs against the wire contents and the agent's own bookkeeping,
// and the single mutation is Set.ApplyRevision's one-lock install, so a
// defect at any stage leaves the device exactly on its previous
// verified revision.
type Agent struct {
	mu       sync.Mutex
	set      *policy.Set
	verifier Verifier
	org      string
	rev      uint64
	coverage map[string]string
}

// NewAgent wires an agent to the device's policy set and trust root.
// The agent is unbound: it accepts any org's revision stream its
// verifier can vouch for (the single-root deployment).
func NewAgent(set *policy.Set, v Verifier) *Agent {
	return &Agent{set: set, verifier: v, coverage: map[string]string{}}
}

// NewOrgAgent wires an agent bound to one organization's bundle root:
// a bundle whose manifest claims a different org is refused with
// ErrScope before anything else about it is believed. A multi-root
// device runs one agent per subscribed root, all sharing the policy
// set — each root is an independent revision stream, and each agent's
// coverage bookkeeping confines full-bundle removals to its own root.
func NewOrgAgent(set *policy.Set, v Verifier, org string) *Agent {
	return &Agent{set: set, verifier: v, org: org, coverage: map[string]string{}}
}

// Org returns the root the agent is bound to ("" = unbound).
func (a *Agent) Org() string { return a.org }

// Revision returns the last revision the agent activated.
func (a *Agent) Revision() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rev
}

// ApplyWire decodes and applies wire bytes.
func (a *Agent) ApplyWire(data []byte) (bool, error) {
	b, err := Decode(data)
	if err != nil {
		return false, err
	}
	return a.Apply(b)
}

// Apply verifies the bundle and, if every check passes, activates its
// revision atomically. The fail-closed ordering is fixed: signature,
// root, key scope, staleness, delta-chain continuity, per-record
// content hashes and compilation, full-coverage equality — and only
// then the live swap. applied reports whether the device moved to a new revision; a
// re-delivered current revision is a benign no-op (false, nil) so
// repair re-pushes converge without noise.
func (a *Agent) Apply(b Bundle) (applied bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := getScratch()
	defer s.release()

	// 1. Signature: nothing else is even read until the bytes are
	// proven to come from the control plane.
	if !b.checkSig(a.verifier, s) {
		return false, fmt.Errorf("%w (key %q)", ErrSignature, b.KeyID)
	}
	// 2. Root: the manifest must be internally consistent.
	if b.Manifest.Root == "" || !hashMatches(b.Manifest.rootSum(s), b.Manifest.Root) {
		return false, ErrRoot
	}
	// 3. Scope: who signed decides what may be signed. An agent bound
	// to an org refuses other orgs' streams outright, and a scoped
	// verifier confines the signing key to its authorized coverage —
	// a validly signed bundle naming a foreign org's policies (the
	// compromised-coalition-key attack) dies here, before staleness or
	// contents are even considered.
	if a.org != "" && b.Manifest.Org != a.org {
		return false, fmt.Errorf("%w: bundle for org %q at agent bound to %q", ErrScope, b.Manifest.Org, a.org)
	}
	if sv, ok := a.verifier.(ScopedVerifier); ok {
		if scope, known := sv.ScopeOf(b.KeyID); known && scope.Restricted() {
			if err := checkScope(scope, b); err != nil {
				return false, err
			}
		}
	}
	// 4. Staleness: re-delivery of the active revision is a no-op;
	// anything older is a rollback and is refused.
	if b.Manifest.Revision == a.rev {
		return false, nil
	}
	if b.Manifest.Revision < a.rev {
		return false, fmt.Errorf("%w: got %d, active %d", ErrStale, b.Manifest.Revision, a.rev)
	}
	// 5. Delta-chain continuity: a delta only applies to the exact
	// base it was cut against.
	if b.Kind() == KindDelta && b.Manifest.Base != a.rev {
		return false, fmt.Errorf("%w: delta base %d, active %d", ErrGap, b.Manifest.Base, a.rev)
	}
	if len(b.Manifest.Coverage) == 0 && len(b.Records) > 0 {
		return false, fmt.Errorf("%w: records without coverage", ErrMalformed)
	}

	// 6. Records: every carried policy must hash to its claimed
	// content hash, compile to exactly one policy, and keep its ID.
	// The compile comes from the process's record table, looked up by
	// the digest this device has just computed and compared, so the
	// table only ever answers for bytes this device verified, and the
	// ID check below runs on every device, hit or miss.
	// A delta carries a few records, so upserts usually fits fixed,
	// which stays on the stack.
	var fixed [4]policy.Policy
	upserts := fixed[:0]
	seen := make(map[string]bool, len(b.Records))
	for _, rec := range b.Records {
		if rec.ID == "" || seen[rec.ID] {
			return false, fmt.Errorf("%w: empty or duplicate record ID %q", ErrMalformed, rec.ID)
		}
		seen[rec.ID] = true
		s.buf = append(s.buf[:0], rec.Source...)
		sum := sha256.Sum256(s.buf)
		if !hashMatches(sum, rec.Hash) {
			return false, fmt.Errorf("%w: record %s", ErrHash, rec.ID)
		}
		pols, cerr := records.compile(sum, rec.Source)
		if cerr != nil {
			return false, fmt.Errorf("%w: record %s: %v", ErrMalformed, rec.ID, cerr)
		}
		if len(pols) != 1 || pols[0].ID != rec.ID {
			return false, fmt.Errorf("%w: record %s does not compile to exactly that policy", ErrMalformed, rec.ID)
		}
		upserts = append(upserts, pols[0])
	}

	// 7. Coverage: simulate the apply against the agent's bookkeeping
	// and require the result to equal the manifest's coverage map
	// exactly — nothing missing, nothing extra, every hash agreeing.
	next := make(map[string]string, len(b.Manifest.Coverage))
	if b.Kind() == KindDelta {
		for id, h := range a.coverage {
			next[id] = h
		}
	}
	var removals []string
	for _, id := range b.Manifest.Removed {
		if _, ok := next[id]; !ok {
			return false, fmt.Errorf("%w: removal of unknown policy %s", ErrCoverage, id)
		}
		delete(next, id)
		removals = append(removals, id)
	}
	for _, rec := range b.Records {
		next[rec.ID] = rec.Hash
	}
	if b.Kind() == KindFull {
		// A full bundle replaces everything: policies the device holds
		// but the bundle omits are removed by the swap.
		for cur := range a.coverage {
			if _, ok := next[cur]; !ok {
				removals = append(removals, cur)
			}
		}
	}
	if len(next) != len(b.Manifest.Coverage) {
		return false, fmt.Errorf("%w: resulting set has %d policies, manifest covers %d", ErrCoverage, len(next), len(b.Manifest.Coverage))
	}
	for pid, h := range b.Manifest.Coverage {
		if next[pid] != h {
			return false, fmt.Errorf("%w: policy %s", ErrCoverage, pid)
		}
	}

	// 8. Activation: one atomic install — a concurrent Evaluate sees
	// either the old revision or the new one, never a mixture.
	if aerr := a.set.ApplyOrgRevision(b.Manifest.Org, b.Manifest.Revision, upserts, removals); aerr != nil {
		return false, fmt.Errorf("%w: %v", ErrMalformed, aerr)
	}
	a.rev = b.Manifest.Revision
	// Bring the bookkeeping to next in place: the agent keeps one map
	// for its lifetime instead of a new one per revision.
	for _, id := range removals {
		delete(a.coverage, id)
	}
	for _, rec := range b.Records {
		a.coverage[books.canon(rec.ID)] = books.canon(rec.Hash)
	}
	return true, nil
}
