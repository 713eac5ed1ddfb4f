package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "Sample",
		Headers: []string{"Run", "Value"},
		Notes:   []string{"a note"},
	}
	t.AddRow("1", "0.5000")
	t.AddRow("2", "0.7500")
	return t
}

func TestAddRowWidthMismatchPanics(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("mismatched row should panic")
		}
	}()
	tab.AddRow("only-one")
}

func TestMarkdownStructure(t *testing.T) {
	md := sample().Markdown()
	if !strings.HasPrefix(md, "### Sample") {
		t.Errorf("missing title: %q", md)
	}
	if !strings.Contains(md, "| Run | Value") {
		t.Errorf("missing header row:\n%s", md)
	}
	if !strings.Contains(md, "| 2   | 0.7500") {
		t.Errorf("missing padded data row:\n%s", md)
	}
	if !strings.Contains(md, "> a note") {
		t.Error("missing note")
	}
	// Header separator must exist and match column count.
	lines := strings.Split(md, "\n")
	var sep string
	for _, l := range lines {
		if strings.HasPrefix(l, "|--") || strings.HasPrefix(l, "|-") {
			sep = l
		}
	}
	if strings.Count(sep, "|") != 3 {
		t.Errorf("separator %q should delimit 2 columns", sep)
	}
}

func TestCSV(t *testing.T) {
	csv := sample().CSV()
	want := "Run,Value\n1,0.5000\n2,0.7500\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestCSVQuoting(t *testing.T) {
	tab := &Table{Headers: []string{"a"}}
	tab.AddRow(`x,y "z"`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y ""z"""`) {
		t.Errorf("CSV quoting wrong: %q", csv)
	}
}

func TestFormatters(t *testing.T) {
	if F(0.12345) != "0.1235" {
		t.Errorf("F = %q", F(0.12345))
	}
	if F2(1.005) == "" {
		t.Error("F2 empty")
	}
	if Pct(0.425) != "42.5%" {
		t.Errorf("Pct = %q", Pct(0.425))
	}
	if D(42) != "42" || D(int64(-3)) != "-3" {
		t.Error("D wrong")
	}
}

func TestArtifactRender(t *testing.T) {
	a := &Artifact{ID: "x", Kind: "table", Tables: []*Table{sample(), sample()}}
	out := a.Render()
	if strings.Count(out, "### Sample") != 2 {
		t.Error("Render should include both tables")
	}
	if got, want := a.CSV(), sample().CSV()+"\n"+sample().CSV(); got != want {
		t.Errorf("CSV = %q, want both tables' CSV one blank line apart %q", got, want)
	}
}
