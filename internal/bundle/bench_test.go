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
// bundle on a fresh device.
func BenchmarkBundleApplyFull(b *testing.B) {
	pub := NewPublisher(testKey())
	full, _, err := pub.Publish(mkPolicies(b, 32, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent := NewAgent(policy.NewSet(), testKey())
		if applied, err := agent.Apply(full); err != nil || !applied {
			b.Fatalf("applied=%v err=%v", applied, err)
		}
	}
}

// BenchmarkBundleApplyDelta measures verify-and-activate of a one-policy
// delta against a 32-policy base — the steady-state distribution cost.
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
		b.StartTimer()
		if applied, err := agent.Apply(delta); err != nil || !applied {
			b.Fatalf("applied=%v err=%v", applied, err)
		}
	}
}

// BenchmarkBundleApplyWireFull measures decode plus verify-and-activate
// of a full bundle at the fan-out shape: one org root of 6 policies,
// a scoped key ring and a fresh device.
func BenchmarkBundleApplyWireFull(b *testing.B) {
	fullWire, _, ring := fanoutWire(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent := NewOrgAgent(policy.NewSet(), ring, "us")
		if applied, err := agent.ApplyWire(fullWire); err != nil || !applied {
			b.Fatalf("applied=%v err=%v", applied, err)
		}
	}
	b.ReportMetric(float64(len(fullWire)), "wire-bytes")
}

// BenchmarkBundleApplyWireDelta measures decode plus verify-and-activate
// of a delta changing 2 of 6 policies at the fan-out shape — what every
// subscriber pays per revision.
func BenchmarkBundleApplyWireDelta(b *testing.B) {
	fullWire, deltaWire, ring := fanoutWire(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agent := NewOrgAgent(policy.NewSet(), ring, "us")
		if _, err := agent.ApplyWire(fullWire); err != nil {
			b.Fatal(err)
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
func fanoutWire(b *testing.B) (full, delta []byte, ring *KeyRing) {
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
