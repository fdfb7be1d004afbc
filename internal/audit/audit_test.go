package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func TestAppendAndVerify(t *testing.T) {
	l := New(WithClock(fixedClock()))
	l.Append(KindAction, "drone-1", "moved", nil)
	l.Append(KindDenial, "drone-1", "blocked fire", map[string]string{"reason": "human in range"})

	entries := l.Entries()
	e1, e2 := entries[0], entries[1]
	if e1.Seq != 0 || e2.Seq != 1 {
		t.Errorf("seq = %d,%d, want 0,1", e1.Seq, e2.Seq)
	}
	if e2.PrevHash != e1.Hash {
		t.Error("entry 2 not chained to entry 1")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Errorf("Verify on intact log: %v", err)
	}
}

func TestVerifyDetectsContentTamper(t *testing.T) {
	l := New(WithClock(fixedClock()))
	l.Append(KindAction, "a", "one", nil)
	l.Append(KindAction, "a", "two", nil)
	l.Append(KindAction, "a", "three", nil)

	entries := l.Entries()
	entries[1].Detail = "TWO (edited)"
	if err := VerifyEntries(entries); !errors.Is(err, ErrChainBroken) {
		t.Errorf("tampered content verified: %v", err)
	}
}

func TestVerifyDetectsDeletion(t *testing.T) {
	l := New(WithClock(fixedClock()))
	for i := 0; i < 4; i++ {
		l.Append(KindAction, "a", "entry", nil)
	}
	entries := l.Entries()
	cut := append(entries[:1:1], entries[2:]...)
	if err := VerifyEntries(cut); !errors.Is(err, ErrChainBroken) {
		t.Errorf("log with deleted entry verified: %v", err)
	}
}

func TestVerifyDetectsReordering(t *testing.T) {
	l := New(WithClock(fixedClock()))
	l.Append(KindAction, "a", "one", nil)
	l.Append(KindAction, "a", "two", nil)
	entries := l.Entries()
	entries[0], entries[1] = entries[1], entries[0]
	if err := VerifyEntries(entries); !errors.Is(err, ErrChainBroken) {
		t.Errorf("reordered log verified: %v", err)
	}
}

func TestByKind(t *testing.T) {
	l := New(WithClock(fixedClock()))
	l.Append(KindAction, "a", "one", nil)
	l.Append(KindBreakGlass, "a", "override", nil)
	l.Append(KindAction, "a", "two", nil)

	bg := l.ByKind(KindBreakGlass)
	if len(bg) != 1 || bg[0].Detail != "override" {
		t.Errorf("ByKind(break-glass) = %+v", bg)
	}
	if got := l.ByKind(KindDeactivate); got != nil {
		t.Errorf("ByKind(missing) = %v, want nil", got)
	}
}

func TestJSONRoundTripVerifies(t *testing.T) {
	l := New(WithClock(fixedClock()))
	l.Append(KindAction, "a", "one", map[string]string{"k": "v"})
	l.Append(KindAdmission, "b", "joined", nil)

	b, err := json.Marshal(l)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var entries []Entry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if err := VerifyEntries(entries); err != nil {
		t.Errorf("round-tripped log failed verification: %v", err)
	}
}

func TestSeal(t *testing.T) {
	l := New(WithClock(fixedClock()))
	l.Append(KindAction, "a", "one", nil)
	secret := []byte("quorum-shared-secret")
	seal := l.Seal(secret)
	if !l.CheckSeal(secret, seal) {
		t.Error("seal did not verify against same log")
	}
	l.Append(KindAction, "a", "two", nil)
	if l.CheckSeal(secret, seal) {
		t.Error("stale seal verified after append")
	}
	if l.CheckSeal([]byte("wrong"), seal) {
		t.Error("seal verified under wrong secret")
	}
}

func TestEmptyLog(t *testing.T) {
	l := New()
	if err := l.Verify(); err != nil {
		t.Errorf("Verify on empty log: %v", err)
	}
	if l.Seal([]byte("s")) == "" {
		t.Error("empty log seal is empty")
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := New(WithClock(fixedClock()))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Append(KindAction, "worker", "op", nil)
			}
		}()
	}
	wg.Wait()
	if l.Len() != 400 {
		t.Errorf("Len = %d, want 400", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Errorf("Verify after concurrent appends: %v", err)
	}
}

// Property: any single-field mutation of any entry breaks verification.
func TestTamperDetectionProperty(t *testing.T) {
	l := New(WithClock(fixedClock()))
	for i := 0; i < 10; i++ {
		l.Append(KindAction, "actor", "detail", map[string]string{"i": "x"})
	}
	base := l.Entries()

	f := func(idx uint8, field uint8, garbage string) bool {
		if garbage == "" {
			garbage = "tampered"
		}
		entries := make([]Entry, len(base))
		copy(entries, base)
		i := int(idx) % len(entries)
		switch field % 4 {
		case 0:
			if entries[i].Detail == garbage {
				return true
			}
			entries[i].Detail = garbage
		case 1:
			if entries[i].Actor == garbage {
				return true
			}
			entries[i].Actor = garbage
		case 2:
			if string(entries[i].Kind) == garbage {
				return true
			}
			entries[i].Kind = Kind(garbage)
		case 3:
			entries[i].Time = entries[i].Time.Add(time.Minute)
		}
		return VerifyEntries(entries) != nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("tamper went undetected: %v", err)
	}
}

// TestIndexedLookupsAllocsFlat: a trace lookup and a latest-checkpoint
// lookup read indexes kept at append time, so they allocate the same
// on a 400k-entry journal as on a 4k one.
func TestIndexedLookupsAllocsFlat(t *testing.T) {
	allocs := func(n int) (trace, checkpoint float64) {
		l := New(WithClock(fixedClock()))
		for i := 0; i < n; i++ {
			ctx := map[string]string(nil)
			if i%(n/4) == 0 {
				ctx = map[string]string{TraceKey: "7f", "step": fmt.Sprint(i)}
			}
			l.Append(KindAction, "dev", "tick", ctx)
			if i == n/2 {
				l.Append(KindCheckpoint, "dev", "checkpoint", map[string]string{"state": "ok"})
			}
		}
		trace = testing.AllocsPerRun(20, func() {
			if got := l.ByTrace("7f"); len(got) != 4 {
				t.Fatalf("ByTrace = %d entries, want 4", len(got))
			}
		})
		checkpoint = testing.AllocsPerRun(20, func() {
			if _, ok := l.LatestCheckpoint("dev"); !ok {
				t.Fatal("LatestCheckpoint found nothing")
			}
		})
		return trace, checkpoint
	}
	smallTrace, smallCheckpoint := allocs(4_000)
	largeTrace, largeCheckpoint := allocs(400_000)
	if smallTrace != largeTrace || smallCheckpoint != largeCheckpoint {
		t.Errorf("allocs/lookup on 4k vs 400k entries: trace %v vs %v, checkpoint %v vs %v",
			smallTrace, largeTrace, smallCheckpoint, largeCheckpoint)
	}
}
