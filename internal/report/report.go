// Package report formats the tables and series the experiment harness
// prints: fixed-width tables with headers, percentage breakdowns, and
// aligned numeric series — the textual equivalents of the paper's figures
// and in-text tables.
//
//dsmclint:layer leaf
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Table accumulates rows under a header and renders them aligned.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			//dsmclint:allow float-eq exact integer-valuedness test for formatting; Trunc returns the same bits for integral v
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				row[i] = fmt.Sprintf("%.0f", v)
			} else {
				row[i] = fmt.Sprintf("%.4g", v)
			}
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Percentages renders a named breakdown as "name pct%" lines sorted by
// descending share, matching the paper's in-text phase distribution.
func Percentages(w io.Writer, title string, parts map[string]float64) error {
	var total float64
	for _, v := range parts {
		total += v
	}
	type kv struct {
		k string
		v float64
	}
	items := make([]kv, 0, len(parts))
	for k, v := range parts {
		items = append(items, kv{k, v})
	}
	sort.Slice(items, func(i, j int) bool {
		//dsmclint:allow float-eq sort tie-break on tallied counts; equal keys carry identical bits
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].k < items[j].k
	})
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for _, it := range items {
		pct := 0.0
		if total > 0 {
			pct = 100 * it.v / total
		}
		fmt.Fprintf(&b, "  %-16s %5.1f%%\n", it.k, pct)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series renders x/y pairs as aligned columns, the text form of a figure.
func Series(w io.Writer, title, xName, yName string, xs, ys []float64) error {
	t := NewTable(title, xName, yName)
	for i := range xs {
		t.AddRow(xs[i], ys[i])
	}
	return t.Render(w)
}
