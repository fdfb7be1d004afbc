package bundle

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/policy"
)

// FuzzBundleDecode throws arbitrary, truncated and re-signed bytes at
// the device-side pipeline. The invariants under fuzzing are the
// fail-closed ones: the agent never panics, never activates a bundle it
// could not verify under its own key, and never leaves its previous
// revision unless the bundle verified. Decoding is canonical: any
// input Decode accepts re-encodes byte for byte, so the signature the
// agent checks covers exactly the bytes that arrived.
func FuzzBundleDecode(f *testing.F) {
	// Seed corpus: a legitimate bundle, truncations of it, a re-signed
	// tampering, and one input per way the strict decoder refuses bytes.
	seedPub := NewPublisher(testKey())
	full, _, err := seedPub.Publish(mkPolicies(f, 3, "seed"))
	if err != nil {
		f.Fatalf("seed publish: %v", err)
	}
	good, _ := Encode(full)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	tampered := full
	tampered.Manifest.Revision = 99
	tamperedBytes, _ := Encode(tampered)
	f.Add(tamperedBytes)
	rogue := full
	rogue.SignWith(HMACKey{ID: "rogue", Secret: []byte("rogue")})
	rogueBytes, _ := Encode(rogue)
	f.Add(rogueBytes)
	badMagic := bytes.Clone(good)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	f.Add(append(bytes.Clone(good), 0))
	malformed := malformedWire()
	names := make([]string, 0, len(malformed))
	for name := range malformed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(malformed[name])
	}
	// Scoped manifests: a legitimate org-rooted bundle, the same bundle
	// with its org swapped after signing, and a cross-org smuggle (org-A
	// manifest carrying an org-B record) re-rooted and re-signed.
	orgPub := NewOrgPublisher(orgKey("us"), "us")
	orgFull, _, err := orgPub.Publish(mkOrgPolicies(f, "us", 2, "seed"))
	if err != nil {
		f.Fatalf("org seed publish: %v", err)
	}
	orgBytes, _ := Encode(orgFull)
	f.Add(orgBytes)
	swapped := orgFull
	swapped.Manifest.Org = "uk"
	swappedBytes, _ := Encode(swapped)
	f.Add(swappedBytes)
	smuggle := orgFull
	foreign := mkOrgPolicies(f, "uk", 1, "seed")[0]
	smuggle.Manifest.Coverage = map[string]string{foreign.ID: "00"}
	smuggle.Manifest.Root = ComputeRoot(smuggle.Manifest)
	smuggle.SignWith(orgKey("us"))
	smuggleBytes, _ := Encode(smuggle)
	f.Add(smuggleBytes)

	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := Decode(data); err == nil {
			if again, _ := Encode(b); !bytes.Equal(again, data) {
				t.Fatalf("accepted input re-encodes differently:\n in  %q\n out %q", data, again)
			}
		}
		// The fuzzing agent trusts a key the corpus was NOT signed
		// with, so no fuzzer-discovered input can legitimately verify:
		// any activation is a fail-closed violation.
		set := policy.NewSet()
		agent := NewAgent(set, HMACKey{ID: "fuzz-key", Secret: []byte("unknown to any corpus signer")})
		applied, err := agent.ApplyWire(data)
		if applied {
			t.Fatalf("unverifiable input activated (err=%v): %q", err, data)
		}
		if err == nil {
			t.Fatalf("rejected input returned nil error: %q", data)
		}
		if agent.Revision() != 0 || set.Len() != 0 {
			t.Fatalf("rejected input mutated state: rev=%d len=%d", agent.Revision(), set.Len())
		}
		// A scoped receiver is at least as closed: an agent whose ring
		// holds only a uk-scoped key can never activate corpus inputs
		// (signed by us/legacy keys or garbage), whatever org they claim.
		scopedSet := policy.NewSet()
		ring := NewKeyRing().Add(orgKey("uk").ID, orgKey("uk"), Scope{Org: "uk"})
		scoped := NewOrgAgent(scopedSet, ring, "uk")
		if applied, err := scoped.ApplyWire(data); applied || err == nil {
			t.Fatalf("scoped agent activated unverifiable input (applied=%v err=%v): %q", applied, err, data)
		}
		if scoped.Revision() != 0 || scopedSet.Len() != 0 {
			t.Fatalf("scoped agent mutated state: rev=%d len=%d", scoped.Revision(), scopedSet.Len())
		}
	})
}
