package bundle

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Scope is the coverage a signing key is authorized for: a key signs
// for exactly one organization's bundle root, and only for policy IDs
// under that organization's prefixes. The zero Scope is unrestricted —
// the single-root deployment where one fleet key signs everything.
//
// Scope is what makes a compromised coalition key a bounded loss: org
// A's key can still sign syntactically valid bundles, but a receiver
// holding the scope refuses any bundle that names an org-B policy (or
// claims org B's root) with ErrScope, so the blast radius of a stolen
// key never crosses a trust boundary.
type Scope struct {
	// Org names the organization whose bundle root this key signs.
	Org string
	// Prefixes are the policy-ID prefixes the key may install or
	// remove. Empty defaults to {Org + "."} — the org-prefixed ID
	// convention (e.g. org "us" covers "us.patrol-alt").
	Prefixes []string
}

// Restricted reports whether the scope constrains anything; the zero
// Scope is unrestricted.
func (s Scope) Restricted() bool { return s.Org != "" || len(s.Prefixes) > 0 }

// effective returns the prefix list the scope enforces.
func (s Scope) effective() []string {
	if len(s.Prefixes) > 0 {
		return s.Prefixes
	}
	if s.Org != "" {
		return []string{s.Org + "."}
	}
	return nil
}

// Allows reports whether the scope authorizes the policy ID.
func (s Scope) Allows(policyID string) bool {
	return allowedBy(s.effective(), policyID)
}

// allowedBy reports whether policyID falls under one of the prefixes;
// no prefixes allow everything.
func allowedBy(prefixes []string, policyID string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(policyID, p) {
			return true
		}
	}
	return false
}

// checkScope enforces a restricted scope against a whole bundle: the
// manifest must claim the key's own org root, and every policy ID the
// bundle could install or remove — coverage entries, carried records,
// and explicit removals — must fall under the key's prefixes. Any
// violation is ErrScope; a bundle that clears this never names another
// org's policies even transitively through the coverage map.
func checkScope(s Scope, b Bundle) error {
	if b.Manifest.Org != s.Org {
		return fmt.Errorf("%w: key %q scoped to org %q, manifest claims %q", ErrScope, b.KeyID, s.Org, b.Manifest.Org)
	}
	prefixes := s.effective()
	for id := range b.Manifest.Coverage {
		if !allowedBy(prefixes, id) {
			return fmt.Errorf("%w: key %q covers policy %q", ErrScope, b.KeyID, id)
		}
	}
	for _, rec := range b.Records {
		if !allowedBy(prefixes, rec.ID) {
			return fmt.Errorf("%w: key %q carries record %q", ErrScope, b.KeyID, rec.ID)
		}
	}
	for _, id := range b.Manifest.Removed {
		if !allowedBy(prefixes, id) {
			return fmt.Errorf("%w: key %q removes policy %q", ErrScope, b.KeyID, id)
		}
	}
	return nil
}

// ScopedVerifier is a Verifier that also knows each key's authorized
// scope. Agents check it after the signature verifies: a valid
// signature from an in-ring key proves who signed, the scope decides
// what that signer was allowed to sign.
type ScopedVerifier interface {
	Verifier
	// ScopeOf returns the scope bound to a key ID; ok is false for
	// keys the ring does not hold.
	ScopeOf(keyID string) (Scope, bool)
}

// KeyRing is a multi-root trust store: one Verifier plus Scope per key
// ID. It is the device-side verifier of a coalition deployment — a
// device trusts several organizations' signing keys, each confined to
// its own root. Unknown key IDs fail verification (fail closed).
type KeyRing struct {
	mu      sync.RWMutex
	entries map[string]ringEntry
}

type ringEntry struct {
	v     Verifier
	scope Scope
}

// NewKeyRing returns an empty ring.
func NewKeyRing() *KeyRing {
	return &KeyRing{entries: make(map[string]ringEntry)}
}

// Add binds a verifier and its scope to a key ID, replacing any
// previous binding. The verifier still checks the key ID itself, so a
// ring entry registered under the wrong name cannot verify. An HMACKey
// is bound with a pool of MAC states keyed with its own secret (a copy
// taken here), so the entry verifies without keying a new MAC per call.
func (r *KeyRing) Add(keyID string, v Verifier, scope Scope) *KeyRing {
	if k, ok := v.(HMACKey); ok {
		v = newPooledHMAC(k)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[keyID] = ringEntry{v: v, scope: scope}
	return r
}

// Verify implements Verifier: the key ID selects the ring entry, the
// entry's verifier checks the signature. Unknown keys fail.
func (r *KeyRing) Verify(keyID string, data []byte, sigHex string) bool {
	r.mu.RLock()
	e, ok := r.entries[keyID]
	r.mu.RUnlock()
	if !ok || e.v == nil {
		return false
	}
	return e.v.Verify(keyID, data, sigHex)
}

// ScopeOf implements ScopedVerifier.
func (r *KeyRing) ScopeOf(keyID string) (Scope, bool) {
	r.mu.RLock()
	e, ok := r.entries[keyID]
	r.mu.RUnlock()
	return e.scope, ok
}

// KeyIDs returns the ring's key IDs, sorted.
func (r *KeyRing) KeyIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for id := range r.entries {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
