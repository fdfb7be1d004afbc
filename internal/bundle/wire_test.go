package bundle

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

// wireBuilder assembles wire bytes field by field, so tests can write
// inputs Encode never produces.
type wireBuilder []byte

func (w wireBuilder) str(ss ...string) wireBuilder {
	for _, s := range ss {
		w = appendString(w, s)
	}
	return w
}

func (w wireBuilder) uv(xs ...uint64) wireBuilder {
	for _, x := range xs {
		w = binary.AppendUvarint(w, x)
	}
	return w
}

func (w wireBuilder) raw(bs ...byte) wireBuilder { return append(w, bs...) }

// wireHeader is a well-formed prefix up to the coverage count: org "",
// revision 1, base 0, root "r", no removals.
func wireHeader() wireBuilder {
	return wireBuilder(wirePrefix).str("").uv(1, 0).str("r").uv(0)
}

// malformedWire is one input per way Decode must refuse bytes.
func malformedWire() map[string][]byte {
	twoCovered := func(a, b string) []byte {
		return wireHeader().uv(2).str(a, "h", b, "h").uv(0).str("k", "s")
	}
	return map[string][]byte{
		"empty":                 nil,
		"bad magic":             []byte("!! not a bundle !!"),
		"unknown version":       wireBuilder("SKYB\x02").str("").uv(1, 0).str("r").uv(0, 0, 0).str("k", "s"),
		"truncated varint":      wireBuilder(wirePrefix).str("").raw(0x80),
		"overlong varint":       wireBuilder(wirePrefix).str("").raw(0x81, 0x00).uv(0).str("r").uv(0, 0, 0).str("k", "s"),
		"string past the end":   wireBuilder(wirePrefix).uv(1000).raw('u', 's'),
		"removals past the end": wireBuilder(wirePrefix).str("").uv(1, 0).str("r").uv(50).str("a"),
		"records past the end":  wireHeader().uv(0).uv(1<<40).str("k", "s"),
		"unsorted coverage":     twoCovered("b", "a"),
		"duplicate coverage":    twoCovered("a", "a"),
		"trailing bytes":        append(twoCovered("a", "b"), 0),
	}
}

// TestDecodeRefusesHostileCountBeforeAllocating: a count that cannot
// fit in the bytes left is refused before anything of its size is
// allocated — a few bytes on the wire never cost a device megabytes.
func TestDecodeRefusesHostileCountBeforeAllocating(t *testing.T) {
	for _, n := range []uint64{1 << 20, 1 << 40, math.MaxUint64} {
		inputs := map[string][]byte{
			"removed":  wireBuilder(wirePrefix).str("").uv(1, 0).str("r").uv(n).str("k", "s"),
			"coverage": wireHeader().uv(n).str("k", "s"),
			"records":  wireHeader().uv(0).uv(n).str("k", "s"),
		}
		for field, data := range inputs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(data)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("%s count %d: err = %v, want ErrDecode", field, n, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Fatalf("%s count %d: Decode allocated %d bytes before refusing", field, n, got)
			}
		}
	}
}

// TestComputeRootGolden pins the root preimage: these hex values were
// recorded from the fmt-based encoder, and ledgers and manifests
// depend on them staying byte-identical.
func TestComputeRootGolden(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
		want string
	}{
		{
			name: "single-root",
			m: Manifest{Revision: 3, Coverage: map[string]string{
				"p01": HashSource("policy one"), "p00": HashSource("policy zero"),
			}},
			want: "b542ce27a48e00ac4c4d443666572c1829dc726bba78707d62eed6911c330f16",
		},
		{
			name: "org with removals",
			m: Manifest{Org: "us", Revision: 7, Base: 6, Removed: []string{"us.p09", "us.p03"},
				Coverage: map[string]string{
					"us.p00": HashSource("a"), "us.p01": HashSource("b"), "us.p02": HashSource("c"),
				}},
			want: "997119282f112aa121e32c8c74eade6e3ae05c4df53faedd55cce13da1802b03",
		},
		{
			name: "empty coverage",
			m:    Manifest{Org: "uk", Revision: 1},
			want: "9cc1815f2f2c1cc868466cb561c1e51edb55be726a985e5597a9408364c4f4dc",
		},
	}
	for _, tc := range cases {
		if got := ComputeRoot(tc.m); got != tc.want {
			t.Errorf("%s: ComputeRoot = %s, want %s", tc.name, got, tc.want)
		}
	}
	if removed := cases[1].m.Removed; removed[0] != "us.p09" || removed[1] != "us.p03" {
		t.Errorf("ComputeRoot reordered the caller's removals: %v", removed)
	}
}
