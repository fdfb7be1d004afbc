package bundle

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/policy"
	"repro/internal/policylang"
)

// TestRecordTableConcurrentAgents: agents on separate goroutines, as
// engine workers verify for many devices at once, activate the same
// wire bytes together on a cold record table, and all end on the set a
// lone agent reaches. Run under -race via make test-race.
func TestRecordTableConcurrentAgents(t *testing.T) {
	const nAgents = 8
	fullWire, deltaWire, ring := fanoutWire(t)
	resetRecordTable()

	sets := make([]*policy.Set, nAgents)
	errs := make(chan error, nAgents)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range sets {
		sets[i] = policy.NewSet()
		agent := NewOrgAgent(sets[i], ring, "us")
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, data := range [][]byte{fullWire, deltaWire} {
				if applied, err := agent.ApplyWire(data); err != nil || !applied {
					errs <- fmt.Errorf("applied=%v err=%v", applied, err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resetRecordTable()
	lone := policy.NewSet()
	agent := NewOrgAgent(lone, ring, "us")
	for _, data := range [][]byte{fullWire, deltaWire} {
		if applied, err := agent.ApplyWire(data); err != nil || !applied {
			t.Fatalf("lone agent: applied=%v err=%v", applied, err)
		}
	}
	want := lone.All()
	if len(want) != 6 {
		t.Fatalf("lone agent holds %d policies, want 6", len(want))
	}
	for i, set := range sets {
		if got := set.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("agent %d ended on %v, want %v", i, got, want)
		}
	}
}

// TestRecordTableBounded: activating more distinct records than the
// table holds keeps it within capacity, and devices that hit, miss or
// find a record dropped all activate exactly the published policies. A
// record longer than the table stores compiles and activates without
// being stored.
func TestRecordTableBounded(t *testing.T) {
	resetRecordTable()
	pols := mkPolicies(t, recordTableCap+100, "bounded")
	full, _, err := NewPublisher(testKey()).Publish(pols)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	for device := 0; device < 2; device++ {
		set := policy.NewSet()
		if applied, err := NewAgent(set, testKey()).Apply(full); err != nil || !applied {
			t.Fatalf("device %d: applied=%v err=%v", device, applied, err)
		}
		if n := recordTableLen(); n == 0 || n > recordTableCap {
			t.Fatalf("device %d: table holds %d records, capacity %d", device, n, recordTableCap)
		}
		checkSetHolds(t, set, pols)
	}

	resetRecordTable()
	long := mkPolicies(t, 1, "long")
	long[0].Action.Params = map[string]string{"note": strings.Repeat("x", maxTableSource)}
	full, _, err = NewPublisher(testKey()).Publish(long)
	if err != nil {
		t.Fatalf("Publish long: %v", err)
	}
	set := policy.NewSet()
	if applied, err := NewAgent(set, testKey()).Apply(full); err != nil || !applied {
		t.Fatalf("long record: applied=%v err=%v", applied, err)
	}
	if n := recordTableLen(); n != 0 {
		t.Fatalf("table stored a %d-byte record", len(full.Records[0].Source))
	}
	checkSetHolds(t, set, long)
}

// checkSetHolds requires set to hold exactly want, compared as
// canonical DSL text.
func checkSetHolds(t *testing.T, set *policy.Set, want []policy.Policy) {
	t.Helper()
	if set.Len() != len(want) {
		t.Fatalf("set holds %d policies, want %d", set.Len(), len(want))
	}
	for _, w := range want {
		got, ok := set.Get(w.ID)
		if !ok {
			t.Fatalf("policy %s missing", w.ID)
		}
		gotSrc, _ := policylang.Format(got)
		wantSrc, _ := policylang.Format(w)
		if gotSrc != wantSrc {
			t.Fatalf("policy %s activated as\n%s\nwant\n%s", w.ID, gotSrc, wantSrc)
		}
	}
}

// TestCoverageBooksShared: agents that decode the same revision from
// their own copies of the wire bytes book one shared copy of each
// policy ID and content hash, and keep books equal to the manifest's
// coverage.
func TestCoverageBooksShared(t *testing.T) {
	fullWire, deltaWire, ring := fanoutWire(t)
	resetBooks()
	agents := []*Agent{NewOrgAgent(policy.NewSet(), ring, "us"), NewOrgAgent(policy.NewSet(), ring, "us")}
	for _, a := range agents {
		for _, data := range [][]byte{fullWire, deltaWire} {
			if applied, err := a.ApplyWire(bytes.Clone(data)); err != nil || !applied {
				t.Fatalf("applied=%v err=%v", applied, err)
			}
		}
	}
	delta, err := Decode(deltaWire)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(agents[0].coverage, delta.Manifest.Coverage) || !maps.Equal(agents[1].coverage, delta.Manifest.Coverage) {
		t.Fatalf("books %v and %v, want the manifest's %v", agents[0].coverage, agents[1].coverage, delta.Manifest.Coverage)
	}
	for id, h := range agents[0].coverage {
		var otherID string
		for k := range agents[1].coverage {
			if k == id {
				otherID = k
			}
		}
		if unsafe.StringData(id) != unsafe.StringData(otherID) {
			t.Errorf("policy ID %s is booked twice", id)
		}
		if unsafe.StringData(h) != unsafe.StringData(agents[1].coverage[id]) {
			t.Errorf("hash of %s is booked twice", id)
		}
	}
}

// TestBooksBounded: the books table never holds more than
// recordTableCap strings, and never one over maxTableSource bytes.
func TestBooksBounded(t *testing.T) {
	resetBooks()
	for i := 0; i <= recordTableCap; i++ {
		books.canon(fmt.Sprintf("p%04d", i))
		if n := booksLen(); n > recordTableCap {
			t.Fatalf("table holds %d strings, cap %d", n, recordTableCap)
		}
	}
	resetBooks()
	if long := strings.Repeat("x", maxTableSource+1); books.canon(long) != long || booksLen() != 0 {
		t.Fatalf("a %d-byte string was booked", len(long))
	}
}
