package bundle

import (
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestHMACKeysSharingIDConcurrent: two keys that share an ID but not a
// secret, each held by its own ring and verifying from several
// goroutines at once, accept only their own tags — a MAC state keyed
// with one secret never serves the other key. Run it under -race.
func TestHMACKeysSharingIDConcurrent(t *testing.T) {
	a := HMACKey{ID: "shared", Secret: []byte("secret a")}
	b := HMACKey{ID: "shared", Secret: []byte("secret b")}
	ringA := NewKeyRing().Add(a.ID, a, Scope{})
	ringB := NewKeyRing().Add(b.ID, b, Scope{})
	msgs := make([][]byte, 16)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("bundle body %d %s", i, strings.Repeat("x", i*9)))
	}
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				data := msgs[(w+i)%len(msgs)]
				tagA, tagB := a.Sign(data), b.Sign(data)
				if !ringA.Verify(a.ID, data, tagA) || ringA.Verify(a.ID, data, tagB) {
					t.Errorf("ring A on message %d: accepts its own tag %v, the other key's %v",
						(w+i)%len(msgs), ringA.Verify(a.ID, data, tagA), ringA.Verify(a.ID, data, tagB))
					return
				}
				if !ringB.Verify(b.ID, data, tagB) || ringB.Verify(b.ID, data, tagA) {
					t.Errorf("ring B on message %d: accepts its own tag %v, the other key's %v",
						(w+i)%len(msgs), ringB.Verify(b.ID, data, tagB), ringB.Verify(b.ID, data, tagA))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHMACVerifyTags: a ring's pooled verify and the key's own Verify
// agree on every tag. The right tag passes in either hex case; a
// malformed, short, long or bit-flipped tag, a foreign key ID and
// altered data all fail.
func TestHMACVerifyTags(t *testing.T) {
	key := HMACKey{ID: "k", Secret: []byte("correct horse")}
	ring := NewKeyRing().Add(key.ID, key, Scope{})
	data := []byte("signed bundle bytes")
	good := key.Sign(data)
	cases := map[string]struct {
		keyID, sig string
		data       []byte
		want       bool
	}{
		"valid":         {"k", good, data, true},
		"uppercase hex": {"k", strings.ToUpper(good), data, true},
		"empty":         {"k", "", data, false},
		"short":         {"k", good[:len(good)-2], data, false},
		"odd length":    {"k", good[:len(good)-1], data, false},
		"long":          {"k", good + "00", data, false},
		"non-hex digit": {"k", "zz" + good[2:], data, false},
		"foreign key":   {"other", good, data, false},
		"altered data":  {"k", good, []byte("signed bundle bytez"), false},
	}
	raw, _ := hex.DecodeString(good)
	for bit := 0; bit < 8*len(raw); bit++ {
		flipped := append([]byte(nil), raw...)
		flipped[bit/8] ^= 1 << (bit % 8)
		cases[fmt.Sprintf("bit %d flipped", bit)] = struct {
			keyID, sig string
			data       []byte
			want       bool
		}{"k", hex.EncodeToString(flipped), data, false}
	}
	for name, c := range cases {
		for vname, v := range map[string]Verifier{"key": key, "ring": ring} {
			if got := v.Verify(c.keyID, c.data, c.sig); got != c.want {
				t.Errorf("%s: %s.Verify = %v, want %v", name, vname, got, c.want)
			}
		}
	}
}

// TestKeyRingHMACVerifyAllocs: a ring verifies an HMAC tag without
// keying a new MAC or decoding the tag onto the heap — one allocation,
// the 32-byte sum, per verify.
func TestKeyRingHMACVerifyAllocs(t *testing.T) {
	key := HMACKey{ID: "k", Secret: []byte("correct horse")}
	ring := NewKeyRing().Add(key.ID, key, Scope{})
	data := []byte("signed bundle bytes")
	sig := key.Sign(data)
	if n := testing.AllocsPerRun(100, func() {
		if !ring.Verify(key.ID, data, sig) {
			t.Fatal("valid tag refused")
		}
	}); n > 1 {
		t.Errorf("ring verify: %v allocs, want ≤ 1", n)
	}
}

// TestKeyRingCopiesHMACSecret: the ring keys its MAC states from a copy
// of the secret, so a caller reusing its secret buffer after Add does
// not change what the ring accepts.
func TestKeyRingCopiesHMACSecret(t *testing.T) {
	secret := []byte("correct horse")
	key := HMACKey{ID: "k", Secret: secret}
	data := []byte("signed bundle bytes")
	sig := key.Sign(data)
	ring := NewKeyRing().Add(key.ID, key, Scope{})
	copy(secret, "XXXXXXXXXXXXX")
	if !ring.Verify(key.ID, data, sig) {
		t.Error("ring refused a tag of the key it was given after the caller reused the secret buffer")
	}
}
