package bundle

import (
	"fmt"
	"testing"

	"repro/internal/policy"
)

// BenchmarkBundlePublishFull measures cutting and signing a full revision of
// 32 policies.
func BenchmarkBundlePublishFull(b *testing.B) {
	pols := mkPolicies(b, 32, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub := NewPublisher(testKey())
		if _, _, err := pub.Publish(pols); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBundleApplyFull measures full verify-and-activate of a 32-policy
// bundle on a fresh device in a process that has compiled no record.
// Emptying the record table is timed, like building the fresh set:
// stopping the timer every iteration would cost more than it does.
func BenchmarkBundleApplyFull(b *testing.B) {
	pub := NewPublisher(testKey())
	full, _, err := pub.Publish(mkPolicies(b, 32, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetRecordTable()
		agent := NewAgent(policy.NewSet(), testKey())
		if applied, err := agent.Apply(full); err != nil || !applied {
			b.Fatalf("applied=%v err=%v", applied, err)
		}
	}
}

// BenchmarkBundleApplyDelta measures verify-and-activate of a one-policy
// delta against a 32-policy base — the steady-state distribution cost —
// in a process that has compiled none of the delta's records.
func BenchmarkBundleApplyDelta(b *testing.B) {
	benchDelta(b, 32, 1)
}

func benchDelta(b *testing.B, size, changed int) {
	pub := NewPublisher(testKey())
	base := mkPolicies(b, size, "rev1")
	full, _, err := pub.Publish(base)
	if err != nil {
		b.Fatal(err)
	}
	next := mkPolicies(b, size, "rev1")
	copy(next, mkPolicies(b, changed, "rev2"))
	_, delta, err := pub.Publish(next)
	if err != nil {
		b.Fatal(err)
	}
	fullBytes, _ := Encode(full)
	deltaBytes, _ := Encode(delta)
	b.ReportMetric(float64(len(fullBytes)), "full-bytes")
	b.ReportMetric(float64(len(deltaBytes)), "delta-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agent := NewAgent(policy.NewSet(), testKey())
		if _, err := agent.Apply(full); err != nil {
			b.Fatal(err)
		}
		resetRecordTable()
		b.StartTimer()
		if applied, err := agent.Apply(delta); err != nil || !applied {
			b.Fatalf("applied=%v err=%v", applied, err)
		}
	}
}

// BenchmarkBundleApplyWireFull measures decode plus verify-and-activate
// of a full bundle at the fan-out shape: one org root of 6 policies,
// a scoped key ring, and a fresh device in a process that has compiled
// no record — what a device running alone pays.
func BenchmarkBundleApplyWireFull(b *testing.B) { benchWireFull(b, false) }

// BenchmarkBundleApplyWireFullWarm is BenchmarkBundleApplyWireFull in a
// process where another device has already activated the bundle, so
// every record compile is a record-table hit.
func BenchmarkBundleApplyWireFullWarm(b *testing.B) { benchWireFull(b, true) }

// BenchmarkBundleApplyWireDelta measures decode plus verify-and-activate
// of a delta changing 2 of 6 policies at the fan-out shape — what every
// subscriber pays per revision — in a process that has compiled neither
// changed record.
func BenchmarkBundleApplyWireDelta(b *testing.B) { benchWireDelta(b, false) }

// BenchmarkBundleApplyWireDeltaWarm is BenchmarkBundleApplyWireDelta in
// a process where another device has already activated the delta: what
// each subscriber after the first pays when a simulator holds the whole
// fleet in one process.
func BenchmarkBundleApplyWireDeltaWarm(b *testing.B) { benchWireDelta(b, true) }

func benchWireFull(b *testing.B, warm bool) {
	fullWire, _, ring := fanoutWire(b)
	resetRecordTable()
	if warm {
		if _, err := NewOrgAgent(policy.NewSet(), ring, "us").ApplyWire(fullWire); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			resetRecordTable()
		}
		agent := NewOrgAgent(policy.NewSet(), ring, "us")
		if applied, err := agent.ApplyWire(fullWire); err != nil || !applied {
			b.Fatalf("applied=%v err=%v", applied, err)
		}
	}
	b.ReportMetric(float64(len(fullWire)), "wire-bytes")
}

func benchWireDelta(b *testing.B, warm bool) {
	fullWire, deltaWire, ring := fanoutWire(b)
	resetRecordTable()
	if warm {
		peer := NewOrgAgent(policy.NewSet(), ring, "us")
		for _, data := range [][]byte{fullWire, deltaWire} {
			if _, err := peer.ApplyWire(data); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agent := NewOrgAgent(policy.NewSet(), ring, "us")
		if _, err := agent.ApplyWire(fullWire); err != nil {
			b.Fatal(err)
		}
		if !warm {
			resetRecordTable()
		}
		b.StartTimer()
		if applied, err := agent.ApplyWire(deltaWire); err != nil || !applied {
			b.Fatalf("applied=%v err=%v", applied, err)
		}
	}
	b.ReportMetric(float64(len(deltaWire)), "wire-bytes")
}

// fanoutWire encodes an org root's revision 1 (6 policies) and the
// delta to revision 2 (2 of them changed), and returns a key ring that
// scopes the signing key to the org.
func fanoutWire(b testing.TB) (full, delta []byte, ring *KeyRing) {
	pub := NewOrgPublisher(orgKey("us"), "us")
	first, _, err := pub.Publish(mkOrgPolicies(b, "us", 6, "rev1"))
	if err != nil {
		b.Fatal(err)
	}
	next := mkOrgPolicies(b, "us", 6, "rev1")
	copy(next, mkOrgPolicies(b, "us", 2, "rev2"))
	_, second, err := pub.Publish(next)
	if err != nil {
		b.Fatal(err)
	}
	full, _ = Encode(first)
	delta, _ = Encode(second)
	return full, delta, NewKeyRing().Add(orgKey("us").ID, orgKey("us"), Scope{Org: "us"})
}

// BenchmarkBundleVerifyReject measures the cost of refusing a tampered
// bundle — the fail-closed hot path under attack.
func BenchmarkBundleVerifyReject(b *testing.B) {
	pub := NewPublisher(testKey())
	full, _, err := pub.Publish(mkPolicies(b, 32, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	full.Sig = fmt.Sprintf("%064x", 0)
	agent := NewAgent(policy.NewSet(), testKey())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if applied, err := agent.Apply(full); applied || err == nil {
			b.Fatal("tampered bundle applied")
		}
	}
}

// BenchmarkKeyRingVerifyHMAC measures one HMAC tag check through a key
// ring, the verify each subscriber's activation pays; compare
// BenchmarkHMACKeyVerify, which keys a new MAC per call.
func BenchmarkKeyRingVerifyHMAC(b *testing.B) {
	benchVerify(b, NewKeyRing().Add(testKey().ID, testKey(), Scope{}))
}

// BenchmarkHMACKeyVerify is BenchmarkKeyRingVerifyHMAC on the bare key.
func BenchmarkHMACKeyVerify(b *testing.B) { benchVerify(b, testKey()) }

func benchVerify(b *testing.B, v Verifier) {
	data := make([]byte, 971)
	key := testKey()
	sig := key.Sign(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !v.Verify(key.ID, data, sig) {
			b.Fatal("valid tag refused")
		}
	}
}
