package report

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta-longer", 42)
	tb.AddRow("gamma", 250*time.Millisecond)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "alpha") {
		t.Errorf("missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + underline + header + separator + 3 rows.
	if len(lines) != 7 {
		t.Errorf("line count %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and rows share the name-column width.
	if !strings.HasPrefix(lines[5], "beta-longer") {
		t.Errorf("row order or format wrong: %q", lines[5])
	}
}

func TestPercentages(t *testing.T) {
	var buf bytes.Buffer
	err := Percentages(&buf, "Distribution of computational time", map[string]float64{
		"collide": 39, "sort": 27, "select": 20, "move": 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count: %d", len(lines))
	}
	// Sorted descending: collide first.
	if !strings.Contains(lines[1], "collide") || !strings.Contains(lines[1], "39.0%") {
		t.Errorf("first row %q", lines[1])
	}
	if !strings.Contains(lines[4], "move") {
		t.Errorf("last row %q", lines[4])
	}
}

func TestPercentagesEmptyTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := Percentages(&buf, "empty", map[string]float64{"a": 0}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.0%") {
		t.Errorf("zero total must render 0%%")
	}
}

func TestSeries(t *testing.T) {
	var buf bytes.Buffer
	err := Series(&buf, "Fig 7", "particles", "usec/particle/step",
		[]float64{32768, 65536}, []float64{10.5, 9.2})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "32768") || !strings.Contains(out, "9.2") {
		t.Errorf("series content:\n%s", out)
	}
}
