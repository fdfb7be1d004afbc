package bundle

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/policy"
	"repro/internal/policylang"
)

// Bounds of the compiled-record table. The table holds at most
// recordTableCap records, emptying itself when an insert finds it
// full, and stores no record whose source exceeds maxTableSource
// bytes, so it retains at most 1 MiB of source plus the policies
// compiled from it (DESIGN.md §11 gives the measured size).
const (
	recordTableCap = 1024
	maxTableSource = 1 << 10
)

// records is the process's compiled-record table: the policies each
// distinct record source compiled to, keyed by the SHA-256 of that
// source. A simulator runs thousands of devices in one process and a
// publish hands all of them the same records, so every device after
// the first reuses the compile instead of repeating it. Sharing
// cannot change what a device activates: an entry is a pure function
// of its key's bytes, stored only after a compile succeeded, and read
// only after the device's own hash check proved the record's source
// hashes to that key. The policies are shared read-only values
// (policy.Policy).
var records = recordTable{m: make(map[[sha256.Size]byte][]policy.Policy)}

type recordTable struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte][]policy.Policy
}

// compile returns what policylang.CompileSource makes of src. sum must
// be the SHA-256 of src computed by the caller, never a hash that
// arrived with it.
func (t *recordTable) compile(sum [sha256.Size]byte, src string) ([]policy.Policy, error) {
	t.mu.Lock()
	pols, ok := t.m[sum]
	t.mu.Unlock()
	if ok {
		return pols, nil
	}
	pols, err := policylang.CompileSource(src, policy.OriginShared)
	if err != nil {
		return nil, err
	}
	if len(src) > maxTableSource {
		return pols, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m[sum]; ok {
		return cur, nil // another worker compiled it meanwhile
	}
	if len(t.m) == recordTableCap {
		clear(t.m)
	}
	t.m[sum] = pols
	return pols, nil
}

// books is the process's table of the strings agents keep in their
// coverage books: policy IDs and content hashes. Every device
// subscribed to a root books the same few strings per revision, so
// agents share one copy of each instead of each keeping the copy its
// own decode made. Like records, a full table empties itself, and it
// stores no string over maxTableSource bytes, so it retains at most
// 1 MiB of strings.
var books = stringTable{m: make(map[string]string)}

type stringTable struct {
	mu sync.Mutex
	m  map[string]string
}

// canon returns the table's copy of s, adding s when it has none.
func (t *stringTable) canon(s string) string {
	if len(s) > maxTableSource {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.m[s]; ok {
		return c
	}
	if len(t.m) == recordTableCap {
		clear(t.m)
	}
	t.m[s] = s
	return s
}

// hashMatches reports whether claimed is the lowercase hex of sum, the
// form HashSource writes, without allocating.
func hashMatches(sum [sha256.Size]byte, claimed string) bool {
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:]) == claimed
}
