package bundle

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/policylang"
)

func testKey() HMACKey {
	return HMACKey{ID: "fleet-key-1", Secret: []byte("correct horse battery staple")}
}

// mkPolicies compiles n distinct policies whose action target encodes
// tag, so tests can tell revisions apart by content.
func mkPolicies(t testing.TB, n int, tag string) []policy.Policy {
	t.Helper()
	var src strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src,
			"policy p%02d priority %d:\n    on smoke-detected\n    when intensity > %d\n    do dispatch target %s category surveillance\n",
			i, i+1, i, tag)
	}
	pols, err := policylang.CompileSource(src.String(), policy.OriginHuman)
	if err != nil {
		t.Fatalf("compile fixture: %v", err)
	}
	return pols
}

func TestPublishFullRoundTrip(t *testing.T) {
	pub := NewPublisher(testKey())
	full, delta, err := pub.Publish(mkPolicies(t, 5, "rev1"))
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if full.Kind() != KindFull || delta.Kind() != KindFull {
		// The first revision's "delta" has base 0, i.e. it is a full.
		t.Fatalf("first revision kinds: full=%s delta=%s", full.Kind(), delta.Kind())
	}
	set := policy.NewSet()
	agent := NewAgent(set, testKey())
	applied, err := agent.Apply(full)
	if err != nil || !applied {
		t.Fatalf("Apply full: applied=%v err=%v", applied, err)
	}
	if set.Len() != 5 {
		t.Fatalf("set has %d policies, want 5", set.Len())
	}
	if got := agent.Revision(); got != 1 {
		t.Fatalf("agent revision %d, want 1", got)
	}
	if got := set.Snapshot().Revision(); got != 1 {
		t.Fatalf("snapshot revision %d, want 1", got)
	}
	// Re-delivery of the active revision is a benign no-op.
	applied, err = agent.Apply(full)
	if err != nil || applied {
		t.Fatalf("re-apply: applied=%v err=%v, want false,nil", applied, err)
	}

	// A param value holding a control byte activates unchanged: the
	// published text escapes it and every device decodes it back.
	next := mkPolicies(t, 5, "rev1")
	next[0].Action.Params = map[string]string{"note": "a\nb"}
	if _, _, err := pub.Publish(next); err != nil {
		t.Fatalf("Publish rev2: %v", err)
	}
	full2, err := pub.Full()
	if err != nil {
		t.Fatalf("Full rev2: %v", err)
	}
	if applied, err := agent.Apply(full2); err != nil || !applied {
		t.Fatalf("Apply rev2: applied=%v err=%v", applied, err)
	}
	if p, _ := set.Get("p00"); p.Action.Params["note"] != "a\nb" {
		t.Fatalf("p00 param note = %q, want %q", p.Action.Params["note"], "a\nb")
	}
}

func TestDeltaApplySmallerThanFull(t *testing.T) {
	pub := NewPublisher(testKey())
	full1, _, err := pub.Publish(mkPolicies(t, 12, "rev1"))
	if err != nil {
		t.Fatalf("Publish rev1: %v", err)
	}
	set := policy.NewSet()
	agent := NewAgent(set, testKey())
	if _, err := agent.Apply(full1); err != nil {
		t.Fatalf("Apply rev1: %v", err)
	}

	// Rev 2: change one policy, drop one, keep the rest.
	next := mkPolicies(t, 12, "rev1")
	changed := mkPolicies(t, 1, "rev2")[0]
	next[0] = changed
	next = next[:11] // drop p11
	full2, delta2, err := pub.Publish(next)
	if err != nil {
		t.Fatalf("Publish rev2: %v", err)
	}
	if delta2.Kind() != KindDelta {
		t.Fatalf("rev2 delta kind %s", delta2.Kind())
	}
	if len(delta2.Records) != 1 || delta2.Records[0].ID != "p00" {
		t.Fatalf("delta records %+v, want just p00", delta2.Records)
	}
	if len(delta2.Manifest.Removed) != 1 || delta2.Manifest.Removed[0] != "p11" {
		t.Fatalf("delta removed %v, want [p11]", delta2.Manifest.Removed)
	}
	fullBytes, _ := Encode(full2)
	deltaBytes, _ := Encode(delta2)
	if len(deltaBytes) >= len(fullBytes) {
		t.Fatalf("delta (%d B) not smaller than full (%d B)", len(deltaBytes), len(fullBytes))
	}
	applied, err := agent.Apply(delta2)
	if err != nil || !applied {
		t.Fatalf("Apply delta: applied=%v err=%v", applied, err)
	}
	if set.Len() != 11 {
		t.Fatalf("set has %d policies, want 11", set.Len())
	}
	if _, ok := set.Get("p11"); ok {
		t.Fatal("p11 survived its removal")
	}
	p0, _ := set.Get("p00")
	if p0.Action.Target != "rev2" {
		t.Fatalf("p00 target %q, want rev2", p0.Action.Target)
	}

	// The agent's bookkeeping followed the removal, so the next delta
	// patches the 11-policy set.
	next[1] = mkPolicies(t, 2, "rev3")[1]
	_, delta3, err := pub.Publish(next)
	if err != nil {
		t.Fatalf("Publish rev3: %v", err)
	}
	if applied, err := agent.Apply(delta3); err != nil || !applied {
		t.Fatalf("Apply delta after a removal: applied=%v err=%v", applied, err)
	}
	if p1, _ := set.Get("p01"); set.Len() != 11 || p1.Action.Target != "rev3" {
		t.Fatalf("after rev3: %d policies, p01 target %q", set.Len(), p1.Action.Target)
	}
}

func TestDeltaFromHistoryAndEviction(t *testing.T) {
	pub := NewPublisher(testKey())
	for i := 0; i < historyDepth+4; i++ {
		if _, _, err := pub.Publish(mkPolicies(t, 3, fmt.Sprintf("rev%d", i+1))); err != nil {
			t.Fatalf("Publish %d: %v", i+1, err)
		}
	}
	if _, ok := pub.DeltaFrom(1); ok {
		t.Fatal("DeltaFrom(1) succeeded after eviction")
	}
	cur := pub.Revision()
	d, ok := pub.DeltaFrom(cur - 1)
	if !ok {
		t.Fatalf("DeltaFrom(%d) failed", cur-1)
	}
	if d.Manifest.Base != cur-1 || d.Manifest.Revision != cur {
		t.Fatalf("delta %d->%d, want %d->%d", d.Manifest.Base, d.Manifest.Revision, cur-1, cur)
	}
	if _, ok := pub.DeltaFrom(cur); ok {
		t.Fatal("DeltaFrom(current) should fail (nothing to patch)")
	}
}

// TestFailClosed corrupts a bundle every way the verifier must catch.
// Tampering that would break the signature is re-signed with the
// legitimate key, simulating a compromised co-holder of an HMAC secret:
// the later checks are the defense in depth that still refuses the
// bundle.
func TestFailClosed(t *testing.T) {
	key := testKey()

	setup := func(t *testing.T) (*policy.Set, *Agent, Bundle, Bundle) {
		pub := NewPublisher(key)
		full1, _, err := pub.Publish(mkPolicies(t, 4, "rev1"))
		if err != nil {
			t.Fatalf("Publish rev1: %v", err)
		}
		_, delta2, err := pub.Publish(mkPolicies(t, 4, "rev2"))
		if err != nil {
			t.Fatalf("Publish rev2: %v", err)
		}
		set := policy.NewSet()
		agent := NewAgent(set, key)
		if _, err := agent.Apply(full1); err != nil {
			t.Fatalf("baseline apply: %v", err)
		}
		return set, agent, full1, delta2
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, full1, delta2 Bundle) Bundle
		cause   string
	}{
		{
			name: "flipped signature",
			corrupt: func(t *testing.T, _, delta2 Bundle) Bundle {
				delta2.Sig = strings.Repeat("00", 32)
				return delta2
			},
			cause: "signature",
		},
		{
			name: "foreign key",
			corrupt: func(t *testing.T, _, delta2 Bundle) Bundle {
				delta2.SignWith(HMACKey{ID: "rogue", Secret: []byte("rogue")})
				return delta2
			},
			cause: "signature",
		},
		{
			name: "tampered coverage, stale root",
			corrupt: func(t *testing.T, _, delta2 Bundle) Bundle {
				delta2.Manifest.Coverage["p00"] = strings.Repeat("ab", 32)
				delta2.SignWith(testKey())
				return delta2
			},
			cause: "root",
		},
		{
			name: "rollback to older revision",
			corrupt: func(t *testing.T, full1, _ Bundle) Bundle {
				shadow := full1
				shadow.Manifest.Revision = 0 // below the active revision
				shadow.Manifest.Root = ComputeRoot(shadow.Manifest)
				shadow.SignWith(testKey())
				return shadow
			},
			cause: "stale",
		},
		{
			name: "delta chain gap",
			corrupt: func(t *testing.T, _, delta2 Bundle) Bundle {
				delta2.Manifest.Base = 7
				delta2.Manifest.Revision = 8
				delta2.Manifest.Root = ComputeRoot(delta2.Manifest)
				delta2.SignWith(testKey())
				return delta2
			},
			cause: "gap",
		},
		{
			name: "tampered record source",
			corrupt: func(t *testing.T, _, delta2 Bundle) Bundle {
				delta2.Records[0].Source += " "
				delta2.SignWith(testKey())
				return delta2
			},
			cause: "hash",
		},
		{
			// The hash check must come before the compile: a tampered
			// source that no longer compiles is refused as a hash
			// mismatch, not as a malformed record.
			name: "tampered record source that does not compile",
			corrupt: func(t *testing.T, _, delta2 Bundle) Bundle {
				delta2.Records[0].Source += " oops"
				delta2.SignWith(testKey())
				return delta2
			},
			cause: "hash",
		},
		{
			// The record's source is genuine, so a warm record table
			// holds its compile; only the device's own hash check sees
			// that the claimed hash, which the coverage and root agree
			// with, is not the source's.
			name: "claimed hash not of the carried source",
			corrupt: func(t *testing.T, _, delta2 Bundle) Bundle {
				delta2.Records[0].Hash = HashSource(delta2.Records[0].Source + " ")
				delta2.Manifest.Coverage["p00"] = delta2.Records[0].Hash
				delta2.Manifest.Root = ComputeRoot(delta2.Manifest)
				delta2.SignWith(testKey())
				return delta2
			},
			cause: "hash",
		},
		{
			// p00's record carries p01's genuine source under a correct
			// hash, and the manifest leaves p01 as it was, so only the
			// compiles-to-its-declared-ID check stands between the
			// bundle and p01 being overwritten through p00's slot.
			name: "record carries another policy's source",
			corrupt: func(t *testing.T, full1, delta2 Bundle) Bundle {
				src := delta2.Records[1].Source
				delta2.Records = []Record{{ID: "p00", Source: src, Hash: HashSource(src)}}
				delta2.Manifest.Coverage = maps.Clone(full1.Manifest.Coverage)
				delta2.Manifest.Coverage["p00"] = HashSource(src)
				delta2.Manifest.Root = ComputeRoot(delta2.Manifest)
				delta2.SignWith(testKey())
				return delta2
			},
			cause: "malformed",
		},
		{
			name: "incomplete full bundle",
			corrupt: func(t *testing.T, full1, _ Bundle) Bundle {
				shadow := full1
				shadow.Manifest.Revision = 2
				shadow.Manifest.Root = ComputeRoot(shadow.Manifest)
				shadow.Records = shadow.Records[:len(shadow.Records)-1]
				shadow.SignWith(testKey())
				return shadow
			},
			cause: "coverage",
		},
		{
			name: "uncompilable record",
			corrupt: func(t *testing.T, _, delta2 Bundle) Bundle {
				delta2.Records[0].Source = "policy p00 oops"
				delta2.Records[0].Hash = HashSource(delta2.Records[0].Source)
				delta2.Manifest.Coverage["p00"] = delta2.Records[0].Hash
				delta2.Manifest.Root = ComputeRoot(delta2.Manifest)
				delta2.SignWith(testKey())
				return delta2
			},
			cause: "malformed",
		},
	}

	// Each case runs on a cold record table, and again under "warm
	// table" after another device in the process has activated the
	// uncorrupted revisions, so every record the corruption reuses is a
	// table hit. A hit must not skip any check.
	run := func(t *testing.T, warm bool) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				set, agent, full1, delta2 := setup(t)
				resetRecordTable()
				if warm {
					peer := NewAgent(policy.NewSet(), key)
					for _, b := range []Bundle{full1, delta2} {
						if applied, err := peer.Apply(b); err != nil || !applied {
							t.Fatalf("peer apply rev %d: applied=%v err=%v", b.Manifest.Revision, applied, err)
						}
					}
				}
				checkRefused(t, set, agent, tc.corrupt(t, full1, delta2), tc.cause)
			})
		}
	}
	run(t, false)
	t.Run("warm table", func(t *testing.T) { run(t, true) })
}

// checkRefused applies bad and requires it refused with the given
// cause, leaving the agent on revision 1 and the four rev1 policies of
// TestFailClosed's fixture untouched.
func checkRefused(t *testing.T, set *policy.Set, agent *Agent, bad Bundle, cause string) {
	t.Helper()
	before := set.Snapshot()
	applied, err := agent.Apply(bad)
	if applied || err == nil {
		t.Fatalf("corrupted bundle applied=%v err=%v", applied, err)
	}
	if got := CauseOf(err); got != cause {
		t.Fatalf("cause %q (err %v), want %q", got, err, cause)
	}
	if agent.Revision() != 1 {
		t.Fatalf("agent moved to revision %d after rejection", agent.Revision())
	}
	after := set.Snapshot()
	if after.Revision() != before.Revision() || set.Len() != 4 {
		t.Fatalf("live state changed after rejection: rev %d->%d len %d",
			before.Revision(), after.Revision(), set.Len())
	}
	for _, id := range []string{"p00", "p01", "p02", "p03"} {
		p, ok := set.Get(id)
		if !ok || p.Action.Target != "rev1" {
			t.Fatalf("policy %s disturbed after rejection: ok=%v target=%q", id, ok, p.Action.Target)
		}
	}
}

// TestDecodeErrors: every way bytes can fail to be a canonical
// encoding is refused with ErrDecode (cause "decode") before the agent
// reads anything.
func TestDecodeErrors(t *testing.T) {
	// The hand-built control decodes, so each refusal below is caused
	// by its one defect.
	control := wireHeader().uv(2).str("a", "h", "b", "h").uv(0).str("k", "s")
	if b, err := Decode(control); err != nil || len(b.Manifest.Coverage) != 2 || b.KeyID != "k" || b.Sig != "s" {
		t.Fatalf("control input: %+v, %v", b, err)
	}
	for name, data := range malformedWire() {
		t.Run(name, func(t *testing.T) {
			set := policy.NewSet()
			applied, err := NewAgent(set, testKey()).ApplyWire(data)
			if applied || !errors.Is(err, ErrDecode) {
				t.Fatalf("applied=%v err=%v, want ErrDecode", applied, err)
			}
			if CauseOf(err) != "decode" {
				t.Fatalf("cause %q, want decode", CauseOf(err))
			}
		})
	}
}

func TestEd25519RoundTrip(t *testing.T) {
	seed := []byte("0123456789abcdef0123456789abcdef")
	signer := NewEd25519Signer("asym-1", seed)
	pub := NewPublisher(signer)
	full, _, err := pub.Publish(mkPolicies(t, 3, "rev1"))
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	agent := NewAgent(policy.NewSet(), signer.PublicVerifier())
	if applied, err := agent.Apply(full); err != nil || !applied {
		t.Fatalf("Apply under ed25519: applied=%v err=%v", applied, err)
	}
	// A verifier for a different keypair refuses the same bundle.
	other := NewEd25519Signer("asym-1", []byte("ffffffffffffffffffffffffffffffff"))
	stranger := NewAgent(policy.NewSet(), other.PublicVerifier())
	if applied, err := stranger.Apply(full); applied || CauseOf(err) != "signature" {
		t.Fatalf("foreign ed25519 key: applied=%v err=%v", applied, err)
	}
	// So does a verifier holding no key or a truncated one, instead of
	// panicking in ed25519.Verify on whatever signature arrives.
	for _, key := range []ed25519.PublicKey{nil, signer.PublicVerifier().Key[:16]} {
		set := policy.NewSet()
		broken := NewAgent(set, Ed25519Verifier{ID: "asym-1", Key: key})
		if applied, err := broken.Apply(full); applied || CauseOf(err) != "signature" || set.Len() != 0 {
			t.Fatalf("%d-byte ed25519 key: applied=%v err=%v len=%d", len(key), applied, err, set.Len())
		}
	}
}

// TestWireRoundTrip: published bundles cross the wire and activate,
// and the encoding is canonical — what Encode writes decodes and
// re-encodes byte for byte, with the signed body as its prefix.
func TestWireRoundTrip(t *testing.T) {
	pub := NewPublisher(testKey())
	full, _, err := pub.Publish(mkPolicies(t, 3, "rev1"))
	if err != nil {
		t.Fatalf("Publish rev1: %v", err)
	}
	_, delta, err := pub.Publish(mkPolicies(t, 2, "rev2"))
	if err != nil {
		t.Fatalf("Publish rev2: %v", err)
	}
	if delta.Kind() != KindDelta || len(delta.Manifest.Removed) != 1 || len(delta.Records) != 2 {
		t.Fatalf("delta fixture: kind %s, removed %v, %d records", delta.Kind(), delta.Manifest.Removed, len(delta.Records))
	}
	agent := NewAgent(policy.NewSet(), testKey())
	for _, b := range []Bundle{full, delta} {
		data, err := Encode(b)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !bytes.HasPrefix(data, b.SigningBytes()) {
			t.Fatalf("%s: signed body is not a prefix of the wire bytes", b.Kind())
		}
		decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", b.Kind(), err)
		}
		if again, _ := Encode(decoded); !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encoding differs from the wire bytes", b.Kind())
		}
		if applied, err := agent.ApplyWire(data); err != nil || !applied {
			t.Fatalf("%s: ApplyWire: applied=%v err=%v", b.Kind(), applied, err)
		}
	}
}

// seenVerifier records a copy of the bytes each Verify call checked.
type seenVerifier struct {
	HMACKey
	seen [][]byte
}

func (v *seenVerifier) Verify(keyID string, data []byte, sigHex string) bool {
	v.seen = append(v.seen, bytes.Clone(data))
	return v.HMACKey.Verify(keyID, data, sigHex)
}

// TestVerifyScratchReuse: verification renders into pooled scratch,
// so a small bundle checked after a large one must see exactly its own
// signing bytes and root, with nothing left over from the larger one.
func TestVerifyScratchReuse(t *testing.T) {
	pub := NewPublisher(testKey())
	full, _, err := pub.Publish(mkPolicies(t, 32, "big"))
	if err != nil {
		t.Fatalf("Publish full: %v", err)
	}
	_, delta, err := pub.Publish(mkPolicies(t, 2, "small"))
	if err != nil {
		t.Fatalf("Publish delta: %v", err)
	}
	forged := delta
	forged.Records = append([]Record(nil), delta.Records...)
	forged.Records[0].Source += " "
	v := &seenVerifier{HMACKey: testKey()}
	agent := NewAgent(policy.NewSet(), v)
	for _, step := range []struct {
		name    string
		b       Bundle
		applied bool
	}{{"full", full, true}, {"forged", forged, false}, {"delta", delta, true}} {
		v.seen = nil
		applied, err := agent.Apply(step.b)
		if applied != step.applied || (err == nil) != step.applied {
			t.Fatalf("%s: applied=%v err=%v", step.name, applied, err)
		}
		if len(v.seen) != 1 || !bytes.Equal(v.seen[0], step.b.SigningBytes()) {
			t.Fatalf("%s: the verifier did not see exactly the signing bytes", step.name)
		}
		if step.b.CheckSig(v) != step.applied {
			t.Fatalf("%s: CheckSig = %v, want %v", step.name, !step.applied, step.applied)
		}
		if got, want := ComputeRoot(step.b.Manifest), step.b.Manifest.Root; got != want {
			t.Fatalf("%s: ComputeRoot = %s, want %s", step.name, got, want)
		}
	}
}
