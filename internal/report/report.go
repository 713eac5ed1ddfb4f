// Package report renders experiment results as tables — markdown for humans,
// CSV for post-processing. Figures are rendered as tables of per-run series
// values (the terminal equivalent of the paper's scatter plots), so every
// artifact has one uniform representation.
package report

import (
	"fmt"
	"strings"
)

// Table is a rectangular result with named columns.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes are printed after the table (provenance, shape expectations,
	// deviations from the paper).
	Notes []string
}

// AddRow appends a row; it panics if the width disagrees with Headers.
func (t *Table) AddRow(cells ...string) {
	if len(t.Headers) != 0 && len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row width %d != header width %d", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	b.WriteString("| ")
	for i, h := range t.Headers {
		b.WriteString(pad(h, widths[i]))
		b.WriteString(" | ")
	}
	b.WriteString("\n|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("| ")
		for i, c := range row {
			w := len(c)
			if i < len(widths) {
				w = widths[i]
			}
			b.WriteString(pad(c, w))
			b.WriteString(" | ")
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes only when needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with 4 decimal places, the precision the paper's
// statistics need.
func F(x float64) string { return fmt.Sprintf("%.4f", x) }

// F2 formats a float with 2 decimal places.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }

// Pct formats a fraction as a percentage with one decimal.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// D formats an integer.
func D[T ~int | ~int64 | ~int32](v T) string { return fmt.Sprintf("%d", v) }

// Artifact is one experiment output: a primary table plus any companions
// (e.g. a figure with both pmax and phi panels).
type Artifact struct {
	ID     string
	Kind   string // "table", "figure" or "extension"
	Tables []*Table
}

// Render renders all tables, markdown style.
func (a *Artifact) Render() string { return a.join((*Table).Markdown) }

// CSV renders all tables as CSV, one blank line between tables.
func (a *Artifact) CSV() string { return a.join((*Table).CSV) }

func (a *Artifact) join(render func(*Table) string) string {
	var b strings.Builder
	for i, t := range a.Tables {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(render(t))
	}
	return b.String()
}
