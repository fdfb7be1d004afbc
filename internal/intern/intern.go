// Package intern deduplicates retained strings on the fleet's hot
// label paths: a fleet renders the same guard denial reason or audit
// detail millions of times, and Dedup keeps one copy of each.
package intern

import "sync"

// Dedup returns a canonical string equal to b. It deduplicates
// repeatedly-rendered retained strings (guard denial reasons, audit
// action details) whose value set is small but not known up front:
// the steady-state cost of rendering the same reason a million times
// drops to a map lookup. The cache is bounded — once full, new strings
// are returned uncached (one allocation, no growth).
func Dedup(b []byte) string {
	dedup.RLock()
	s, ok := dedup.m[string(b)]
	dedup.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	dedup.Lock()
	if cached, ok := dedup.m[s]; ok {
		s = cached
	} else if len(dedup.m) < dedupCap {
		dedup.m[s] = s
	}
	dedup.Unlock()
	return s
}

// dedupCap bounds the Dedup cache: high-cardinality renderings (e.g.
// reasons embedding full state vectors on a long chaotic run) stop
// being cached rather than growing the table without limit.
const dedupCap = 8192

var dedup = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string, 256)}
