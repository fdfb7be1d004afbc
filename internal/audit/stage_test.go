package audit

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestChainMatchesAppend stages entries in two stages, interleaved the
// way parallel workers fill them, and chains the ranges back in the
// original order: the log must equal one the entries were appended to
// directly, hashes included — also when the stages are reset and
// reused for a second round, and for contexts with empty values and
// multi-byte text.
func TestChainMatchesAppend(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return at }
	ctxs := []map[string]string{
		nil,
		{"n": "1"},
		{"empty": "", "ключ": "héllo→世界"},
		{"a": "1", "b": "", "c": "3", "d": "四"},
	}
	direct := New(WithClock(now))
	chained := New(WithClock(now))
	stages := []*Log{NewStage(WithClock(now)), NewStage(WithClock(now))}
	type span struct{ stage, from, to int }
	for round := 0; round < 2; round++ {
		var spans []span
		for i := 0; i < 40; i++ {
			at = at.Add(time.Duration(i%3) * time.Millisecond)
			kind, actor := KindAction, fmt.Sprintf("dev-%d", i%5)
			detail, ctx := fmt.Sprintf("round %d event %d", round, i), ctxs[i%len(ctxs)]
			direct.Append(kind, actor, detail, ctx)
			s := (i / 3) % 2
			from := stages[s].Len()
			stages[s].Append(kind, actor, detail, ctx)
			if n := len(spans); n > 0 && spans[n-1].stage == s {
				spans[n-1].to++
				continue
			}
			spans = append(spans, span{s, from, from + 1})
		}
		for _, sp := range spans {
			chained.Chain(stages[sp.stage], sp.from, sp.to)
		}
		for _, s := range stages {
			s.Reset()
			if s.Len() != 0 {
				t.Fatalf("round %d: Reset left %d staged entries", round, s.Len())
			}
		}
	}
	if err := chained.Verify(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chained.Entries(), direct.Entries()) {
		t.Fatal("chained staged entries differ from direct appends")
	}

	// Degenerate calls change nothing.
	n := chained.Len()
	chained.Chain(nil, 0, 1)
	chained.Chain(stages[0], 0, 0)
	chained.Chain(direct, 0, direct.Len()) // not a stage
	chained.Reset()                        // append-only: a no-op
	if chained.Len() != n {
		t.Errorf("degenerate Chain/Reset calls changed the log: %d entries, want %d", chained.Len(), n)
	}
}
