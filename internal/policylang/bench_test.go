package policylang

import (
	"testing"

	"repro/internal/policy"
)

// BenchmarkCompileSource compiles one bundle record shaped like those
// of the bench fan-out workload: the canonical text of one policy with
// one comparison and a target that changes per revision.
func BenchmarkCompileSource(b *testing.B) {
	const src = "policy us.fleet03 priority 4:\n    on tick\n    when intensity > 7\n    do adjust target rev12-345 category surveillance\n"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileSource(src, policy.OriginShared); err != nil {
			b.Fatal(err)
		}
	}
}
