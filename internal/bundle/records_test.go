package bundle

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

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
