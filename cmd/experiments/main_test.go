package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, id := range []string{"F1", "F3", "E1", "E11"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestRunSingle(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "F2"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "== F2:") {
		t.Errorf("output = %s", sb.String())
	}
	if strings.Contains(sb.String(), "== F1:") {
		t.Error("-run F2 also ran F1")
	}
}

func TestRunUnknown(t *testing.T) {
	var sb strings.Builder
	// main prefixes the program name, so the error must not repeat it.
	err := run([]string{"-run", "E999"}, &sb)
	if want := `unknown experiment "E999"`; err == nil || err.Error() != want {
		t.Errorf("run -run E999 = %v, want %s", err, want)
	}
	if err := run([]string{"-bogus-flag"}, &sb); err == nil {
		t.Error("bogus flag accepted")
	}
}
