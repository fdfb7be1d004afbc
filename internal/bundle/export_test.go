package bundle

import (
	"crypto/sha256"

	"repro/internal/policy"
)

// resetRecordTable empties the process's compiled-record table, so a
// test or benchmark that follows sees a device in a process that has
// compiled nothing.
func resetRecordTable() {
	records.mu.Lock()
	defer records.mu.Unlock()
	records.m = make(map[[sha256.Size]byte][]policy.Policy)
}

// recordTableLen returns how many compiled records the table holds.
func recordTableLen() int {
	records.mu.Lock()
	defer records.mu.Unlock()
	return len(records.m)
}

// resetBooks empties the process's table of booked coverage strings.
func resetBooks() {
	books.mu.Lock()
	defer books.mu.Unlock()
	clear(books.m)
}

// booksLen returns how many strings the books table holds.
func booksLen() int {
	books.mu.Lock()
	defer books.mu.Unlock()
	return len(books.m)
}
