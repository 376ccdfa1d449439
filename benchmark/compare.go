//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare: a metric on a workload, in two
// sets of runs.
type comparison struct {
	workload string
	metric   metricDef
	a, b     [3]float64 // first quartile, median, third quartile
	na, nb   int
	worse    float64 // (median b - median a) / median a, signed so that positive is worse
	spread   float64 // the wider of the two interquartile ranges over its median
	verdict  string
}

// compareSets judges b against a, metric by metric. A metric whose
// spread in either set is wider than its bound cannot resolve a change
// of the bound's size: it is unresolved, unless every run of b reads
// better than every run of a. Otherwise b regresses when its median is
// worse than a's by more than the bound.
func compareSets(a, b []record) []comparison {
	var rows []comparison
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			va, vb := values(a, w.name, d.Name), values(b, w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := comparison{workload: w.name, metric: d, na: len(va), nb: len(vb)}
			c.a[0], c.a[1], c.a[2] = quartiles(va)
			c.b[0], c.b[1], c.b[2] = quartiles(vb)
			sign := 1.0
			if d.Better == "higher" {
				sign = -1
			}
			c.worse = sign * (c.b[1] - c.a[1]) / c.a[1]
			c.spread = max((c.a[2]-c.a[0])/c.a[1], (c.b[2]-c.b[0])/c.b[1])
			switch {
			case c.spread > d.Bound && !allBetter(va, vb, sign):
				c.verdict = verdictUnresolved
			case c.worse > d.Bound:
				c.verdict = verdictRegression
			default:
				c.verdict = verdictOK
			}
			rows = append(rows, c)
		}
	}
	return rows
}

// values collects one metric of one workload from the untraced records.
func values(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareFiles prints the comparison table of two --out files and
// returns 1 when any metric regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b []record
		if b, err = readRecords(pathB); err == nil {
			return printComparison(stdout, compareSets(a, b))
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func printComparison(w io.Writer, rows []comparison) int {
	fmt.Fprintf(w, "%-20s %-12s %3s %12s %25s %12s %25s %8s %7s %7s  %s\n",
		"workload", "metric", "n", "median a", "quartiles a", "median b", "quartiles b", "b vs a", "spread", "bound", "verdict")
	code := 0
	for _, c := range rows {
		fmt.Fprintf(w, "%-20s %-12s %3d %12.6g %25s %12.6g %25s %+7.1f%% %6.1f%% %6.0f%%  %s\n",
			c.workload, c.metric.Name, min(c.na, c.nb),
			c.a[1], fmt.Sprintf("[%.6g, %.6g]", c.a[0], c.a[2]),
			c.b[1], fmt.Sprintf("[%.6g, %.6g]", c.b[0], c.b[2]),
			c.worse*100, c.spread*100, c.metric.Bound*100, c.verdict)
		if c.verdict == verdictRegression {
			code = 1
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "no workload has untraced runs in both files")
	}
	return code
}
