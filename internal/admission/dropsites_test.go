package admission

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// dropSitePatterns match message-delivery calls whose error or result
// is discarded — the "fire and hope" shape this package exists to
// eliminate. Every Send must be handled, counted, or shed with a
// typed cause; every Deliver result must be observed.
var dropSitePatterns = []*regexp.Regexp{
	regexp.MustCompile(`_ = [\w.]+\.Send\(`),
	regexp.MustCompile(`_, _ = [\w.]*\.Deliver`),
	// A discarded bundle.Encode error silently drops the push it was
	// encoding (the PR10 distributor bug): wire encoding failures must
	// be counted and audited, never ignored.
	regexp.MustCompile(`, _ := [\w.]*bundle\.Encode\(`),
	regexp.MustCompile(`, _ = [\w.]*bundle\.Encode\(`),
	regexp.MustCompile(`, _ := encodeBundle\(`),
	regexp.MustCompile(`, _ = encodeBundle\(`),
}

// TestNoUnaccountedDropSites audits the production source for
// discarded delivery outcomes. A deliberate discard must either go
// through an accounting wrapper (e.g. the bus's admission path, which
// counts the duplicate's shed inside the controller) or be moved
// behind an error path that counts the drop.
func TestNoUnaccountedDropSites(t *testing.T) {
	roots := []string{
		filepath.Join("..", "..", "internal"),
		filepath.Join("..", "..", "cmd"),
	}
	// The one sanctioned discard: the bus's duplicate admission in
	// admit is accounted inside the controller (offered/shed),
	// and deliberately stays off the bus's own books.
	allowed := map[string]bool{
		"_ = intake.Admit(": true,
	}
	var violations []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(data), "\n") {
				trimmed := strings.TrimSpace(line)
				for _, re := range dropSitePatterns {
					m := re.FindString(trimmed)
					if m == "" || allowed[m] {
						continue
					}
					violations = append(violations,
						filepath.Clean(path)+":"+itoa(i+1)+": "+trimmed)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(violations) > 0 {
		t.Fatalf("unaccounted message-drop sites found:\n  %s",
			strings.Join(violations, "\n  "))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
