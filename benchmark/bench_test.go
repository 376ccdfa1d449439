//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the reference kernel's child
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(refEnv); spec != "" {
		os.Exit(refChild(os.Stdin, os.Stdout, spec))
	}
	os.Exit(m.Run())
}

// smokeSizes shrink every workload so that all five, and a traced run
// over all of them, finish in seconds: 2 particles per cell, a handful
// of ops, one set-up.
func smokeSizes() sizes {
	return sizes{
		seconds: 1, setups: 1,
		wedgePerCell: 2, wedgeWarm: 2, windowSteps: 2, wedgeSample: 2, opsW1: 6, opsWN: 6,
		sweepPerCell: 2, sweepWarm: 4, sweepSample: 4, ckptEvery: 2, opsSweep: 4,
		warmSpecs: 2, primeSteps: 2, opsWarm: 6,
		sectionWedge: 4, sectionSweep: 2, sectionWarm: 4, probeReps: 3, refParticles: 20_000,
	}
}

func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(context.Background(), smokeSizes(), defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.cleanup)
	return e
}

// TestEndToEndSmoke runs every workload untraced at smoke sizes: every
// end-to-end metric is emitted by name with its unit, no op fails, the
// correctness gate passes and nothing is left behind.
func TestEndToEndSmoke(t *testing.T) {
	e := smokeEnv(t)
	for _, w := range workloads {
		rec, err := runEndToEnd(e, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted != w.ops(e.sz) {
			t.Errorf("%s: correct %v, attempted %d, failed %d, notes %q", w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
		}
		checkMetrics(t, w.name, rec.Metrics, endToEndMetrics)
	}
	if left, _ := os.ReadDir(e.scratch); len(left) != 0 {
		t.Errorf("%d entries left in the scratch directory, first %s", len(left), left[0].Name())
	}
}

// TestTracedSmoke runs the attribution run at smoke sizes: every
// per-layer metric is emitted with its unit, spans nest with
// non-negative self time, and every op's parts cover it within 5%
// (checkSpans, whose finding would be a note).
func TestTracedSmoke(t *testing.T) {
	e := smokeEnv(t)
	w, _ := findWorkload(nameWarm)
	path := filepath.Join(e.scratch, "spans.json")
	rec, err := runTraced(e, w, path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 {
		t.Errorf("correct %v, failed %d, notes %q", rec.Correct, rec.Failed, rec.Notes)
	}
	checkMetrics(t, w.name, rec.Metrics, perLayerMetrics)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, s := range doc.Spans {
		layers[s.Layer] = true
	}
	for _, l := range []string{"bench", "dsmc", "engine", "run", "coord", "dsmcd"} {
		if !layers[l] {
			t.Errorf("no span of layer %s among %d spans", l, len(doc.Spans))
		}
	}
}

func checkMetrics(t *testing.T, workload string, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", workload, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s: got %+v (present %v), want unit %s", workload, d.Name, v, ok, d.Unit)
		}
		if v.Value != v.Value {
			t.Errorf("%s: metric %s is NaN", workload, d.Name)
		}
	}
}

// TestCheckSpans exercises the structure check on hand-made traces.
func TestCheckSpans(t *testing.T) {
	op := span{ID: 0, Parent: -1, Layer: "bench", Name: "op", Start: 0, End: 1}
	good := []span{op,
		{ID: 1, Parent: 0, Layer: "a", Name: "x", Start: 0, End: 0.6},
		{ID: 2, Parent: 0, Layer: "a", Name: "y", Start: 0.5, End: 0.98}, // overlap counts once
	}
	if err := checkSpans(good, 0.05); err != nil {
		t.Errorf("good trace rejected: %v", err)
	}
	if self, _ := selfTimes(good); self[0] < 0.0199 || self[0] > 0.0201 {
		t.Errorf("op self time %.4f, want 0.02", self[0])
	}
	for name, bad := range map[string][]span{
		"gap":       {op, {ID: 1, Parent: 0, Start: 0, End: 0.9}},
		"escapes":   {op, {ID: 1, Parent: 0, Start: 0.5, End: 1.2}},
		"never-end": {op, {ID: 1, Parent: 0, Start: 0.5, End: 0}},
	} {
		if err := checkSpans(bad, 0.05); err == nil {
			t.Errorf("%s: bad trace accepted", name)
		}
	}
}

// TestCompare covers the three verdicts and the exit code.
func TestCompare(t *testing.T) {
	set := func(workload string, vals ...float64) []record {
		var recs []record
		for _, v := range vals {
			recs = append(recs, record{Workload: workload, result: result{Metrics: map[string]metricValue{"op_p10_s": {v, "s"}}}})
		}
		return recs
	}
	w := workloads[0].name
	steady := set(w, 1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01)
	for _, tc := range []struct {
		name string
		b    []record
		want string
		code int
	}{
		{"same", steady, verdictOK, 0},
		{"slower", set(w, 1.30, 1.31, 1.29, 1.32, 1.28, 1.30, 1.31, 1.29, 1.30, 1.31), verdictRegression, 1},
		{"faster", set(w, 0.80, 0.81, 0.79, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80, 0.81), verdictOK, 0},
		{"noisy", set(w, 0.80, 1.40, 0.85, 1.35, 1.00, 1.30, 0.90, 1.20, 1.10, 0.75), verdictUnresolved, 0},
	} {
		rows := compareSets(steady, tc.b)
		if len(rows) != 1 || rows[0].verdict != tc.want {
			t.Errorf("%s: rows %+v, want one %s", tc.name, rows, tc.want)
			continue
		}
		var out bytes.Buffer
		if code := printComparison(&out, rows); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), the driver's.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in the code: the
// five workloads with their whys, the end-to-end metrics with direction
// and bound, every per-layer metric, the paths and the run length.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./benchmark" || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("command %q, paths %q", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, the op counts are sized for %d", doc.RunSeconds, referenceSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in the file, %d in the code", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: file has %+v, code has %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
}

// TestGofmt keeps the package gofmt-clean; go vet runs with go test, and
// internal/lint's TestTreeClean runs dsmclint over the whole module,
// this package included.
func TestGofmt(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-clean", f)
		}
	}
}
