package intern

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestDedup checks both halves of the contract: equal inputs share one
// string, and once the cache is full new strings still come back
// correct but are no longer cached.
func TestDedup(t *testing.T) {
	a := Dedup([]byte("denied: heat over threshold"))
	b := Dedup([]byte("denied: heat over threshold"))
	if a != "denied: heat over threshold" {
		t.Fatalf("Dedup = %q", a)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("equal inputs did not share one string")
	}

	// Fill the cache; other tests in the package may have cached some
	// strings already, so stop at the cap rather than at a count.
	for i := 0; cached() < dedupCap; i++ {
		Dedup([]byte(fmt.Sprintf("filler-%d", i)))
	}
	c := Dedup([]byte("past the cap"))
	d := Dedup([]byte("past the cap"))
	if c != "past the cap" || d != "past the cap" {
		t.Fatalf("Dedup past the cap = %q, %q", c, d)
	}
	if unsafe.StringData(c) == unsafe.StringData(d) {
		t.Error("a string past the cap was cached")
	}
	if n := cached(); n != dedupCap {
		t.Errorf("cache holds %d strings, want the cap %d", n, dedupCap)
	}
}

// cached reports how many strings the Dedup cache holds.
func cached() int {
	dedup.RLock()
	defer dedup.RUnlock()
	return len(dedup.m)
}
