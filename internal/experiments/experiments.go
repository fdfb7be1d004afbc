// Package experiments contains one runner per reproduced figure
// (F1–F3) and constructed experiment (E1–E10) from DESIGN.md. Every
// runner is deterministic given its seed and returns a Result whose
// table cmd/experiments prints; the corresponding tests assert the
// qualitative shape the paper predicts, and bench_test.go at the
// module root benchmarks each runner.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/audit"
)

// Result is the printable outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (F1..F3, E1..E10).
	ID string
	// Title describes the experiment.
	Title string
	// Headers are the table column names.
	Headers []string
	// Rows are the table body.
	Rows [][]string
	// Notes are free-form lines printed after the table.
	Notes []string
	// Artifact is an optional pre-rendered block (e.g. the F3 ASCII
	// state space).
	Artifact string
}

// Table renders the result as an aligned text table.
func (r Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Headers) > 0 {
		widths := make([]int, len(r.Headers))
		for i, h := range r.Headers {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(cell)
				if i < len(widths) {
					b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
				}
			}
			b.WriteByte('\n')
		}
		writeRow(r.Headers)
		sep := make([]string, len(r.Headers))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	if r.Artifact != "" {
		b.WriteByte('\n')
		b.WriteString(r.Artifact)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Cell returns the row cell at the given header, for test assertions.
func (r Result) Cell(rowLabel, header string) (string, bool) {
	col := -1
	for i, h := range r.Headers {
		if h == header {
			col = i
			break
		}
	}
	if col < 0 {
		return "", false
	}
	for _, row := range r.Rows {
		if len(row) > col && len(row) > 0 && row[0] == rowLabel {
			return row[col], true
		}
	}
	return "", false
}

// CellFloat parses the cell at the given row and header as a float.
func (r Result) CellFloat(rowLabel, header string) (float64, bool) {
	s, ok := r.Cell(rowLabel, header)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func itoa(v int) string { return strconv.Itoa(v) }

// tipOf returns the hash of the log's last entry ("" when empty).
func tipOf(l *audit.Log) string {
	_, tip := l.EntriesSince(l.Len())
	return tip
}

// identical renders a determinism column cell: "baseline" on the
// first row, then whether a row's outcome matches the baseline's.
func identical(row int, same bool) string {
	switch {
	case row == 0:
		return "baseline"
	case same:
		return "yes"
	}
	return "NO"
}

// shortTip abbreviates a tip hash for a table cell.
func shortTip(tip string) string {
	if len(tip) > 12 {
		return tip[:12]
	}
	return tip
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func pct(num, den int) string {
	if den == 0 {
		return "0.000"
	}
	return ftoa(float64(num) / float64(den) * 100)
}
