package bundle

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"hash"
	"sync"
)

// Signer produces signatures the fleet's Verifier accepts.
type Signer interface {
	// KeyID names the key so receivers can select the right material.
	KeyID() string
	// Sign returns the hex signature over data.
	Sign(data []byte) string
}

// Verifier checks bundle signatures. Implementations must reject
// unknown key IDs and must not retain data, which may be scratch the
// caller reuses.
type Verifier interface {
	Verify(keyID string, data []byte, sigHex string) bool
}

// HMACKey is a shared-secret HMAC-SHA256 key implementing both Signer
// and Verifier — the symmetric deployment where the distributor and
// devices hold the same secret.
type HMACKey struct {
	ID     string
	Secret []byte
}

// KeyID names the key.
func (k HMACKey) KeyID() string { return k.ID }

// Sign returns the hex HMAC-SHA256 of data.
func (k HMACKey) Sign(data []byte) string {
	return hex.EncodeToString(k.mac(data))
}

// Verify checks the tag in constant time; a foreign key ID fails.
// Each call keys a new MAC state; a KeyRing holding the key reuses
// them (see KeyRing.Add).
func (k HMACKey) Verify(keyID string, data []byte, sigHex string) bool {
	if subtle.ConstantTimeCompare([]byte(keyID), []byte(k.ID)) != 1 {
		return false
	}
	return checkTag(hmac.New(sha256.New, k.Secret), data, sigHex)
}

func (k HMACKey) mac(data []byte) []byte {
	m := hmac.New(sha256.New, k.Secret)
	m.Write(data)
	return m.Sum(nil)
}

// pooledHMAC verifies like HMACKey, reusing keyed MAC states: its
// free list holds states keyed with its own secret only, each reset
// before it goes back, so a verify neither keys a MAC nor allocates
// one. Unlike a sync.Pool, the list survives GC and is shared by every
// P, so a verify allocates the same on every call.
type pooledHMAC struct {
	id     string
	secret []byte
	mu     sync.Mutex
	free   []hash.Hash
}

// maxFreeMACs bounds the states one key keeps between verifies: one
// per engine worker verifying at once, with room to spare.
const maxFreeMACs = 8

func newPooledHMAC(k HMACKey) *pooledHMAC {
	return &pooledHMAC{id: k.ID, secret: bytes.Clone(k.Secret)}
}

// Verify checks the tag in constant time; a foreign key ID fails.
func (v *pooledHMAC) Verify(keyID string, data []byte, sigHex string) bool {
	if subtle.ConstantTimeCompare([]byte(keyID), []byte(v.id)) != 1 {
		return false
	}
	var m hash.Hash
	v.mu.Lock()
	if n := len(v.free); n > 0 {
		m = v.free[n-1]
		v.free = v.free[:n-1]
	}
	v.mu.Unlock()
	if m == nil {
		m = hmac.New(sha256.New, v.secret)
	}
	ok := checkTag(m, data, sigHex)
	m.Reset()
	v.mu.Lock()
	if len(v.free) < maxFreeMACs {
		v.free = append(v.free, m)
	}
	v.mu.Unlock()
	return ok
}

// checkTag reports whether sigHex is the hex HMAC-SHA256 tag that m, a
// freshly keyed or reset MAC state, computes over data. The tag is
// decoded onto the stack; a tag of the wrong length or with a non-hex
// digit fails.
func checkTag(m hash.Hash, data []byte, sigHex string) bool {
	var src [2 * sha256.Size]byte
	if len(sigHex) != len(src) {
		return false
	}
	copy(src[:], sigHex)
	var tag [sha256.Size]byte
	if _, err := hex.Decode(tag[:], src[:]); err != nil {
		return false
	}
	m.Write(data)
	var sum [sha256.Size]byte
	return hmac.Equal(m.Sum(sum[:0]), tag[:])
}

// Ed25519Signer signs with an ed25519 private key — the asymmetric
// deployment where devices hold only the public half and a compromised
// device cannot forge bundles for the rest of the fleet.
type Ed25519Signer struct {
	ID  string
	Key ed25519.PrivateKey
}

// NewEd25519Signer derives a deterministic signer from a 32-byte seed.
func NewEd25519Signer(id string, seed []byte) Ed25519Signer {
	return Ed25519Signer{ID: id, Key: ed25519.NewKeyFromSeed(seed)}
}

// KeyID names the key.
func (s Ed25519Signer) KeyID() string { return s.ID }

// Sign returns the hex ed25519 signature over data.
func (s Ed25519Signer) Sign(data []byte) string {
	return hex.EncodeToString(ed25519.Sign(s.Key, data))
}

// PublicVerifier returns the device-side verifier for this signer.
func (s Ed25519Signer) PublicVerifier() Ed25519Verifier {
	return Ed25519Verifier{ID: s.ID, Key: s.Key.Public().(ed25519.PublicKey)}
}

// Ed25519Verifier verifies with the public half only.
type Ed25519Verifier struct {
	ID  string
	Key ed25519.PublicKey
}

// Verify checks the signature; a foreign key ID fails, and so does
// every signature when Key is not a whole public key (ed25519.Verify
// would panic on it).
func (v Ed25519Verifier) Verify(keyID string, data []byte, sigHex string) bool {
	if keyID != v.ID || len(v.Key) != ed25519.PublicKeySize {
		return false
	}
	sig, err := hex.DecodeString(sigHex)
	if err != nil || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(v.Key, data, sig)
}
