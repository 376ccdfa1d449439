package run

import (
	"errors"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"dsmc/internal/rng"
	"dsmc/internal/sim"
	"dsmc/internal/store"
)

// pointSpec is what a table reads of a sweep: the named points, each a
// one-cell grid, replicas each, sampling the given quantities (density
// when none).
func pointSpec(points []string, replicas int, quantities ...string) *Spec {
	sp := &Spec{Replicas: replicas, Quantities: quantities}
	for _, p := range points {
		sp.Scenarios = append(sp.Scenarios, Scenario{Name: p, Sim: &sim.Config{NX: 1, NY: 1}})
	}
	return sp
}

// tableLog builds a two-point, two-replica table ("a", "b") with the
// given keys (its own when nil) and returns it with the "type job" lines
// it has emitted.
func tableLog(keys []string) (*Table, *[]string) {
	var log []string
	t := NewTable(pointSpec([]string{"a", "b"}, 2), func(e Event) {
		log = append(log, string(e.Type)+" "+e.Job)
	})
	if keys != nil {
		t.keys = keys
	}
	return t, &log
}

// output is a distinguishable replica output for key k.
func output(k int) *ReplicaResult {
	return &ReplicaResult{Fields: map[string][]float64{"density": {float64(k)}}, NFlow: k}
}

// TestTableMemo: Memo satisfies every stored job, Offer only the job
// under its key, with the output offered; hits are started and done at
// once and the points they complete aggregate after them, in point
// order. An artifact that passes the store's hash but not the frame
// decode is rejected — quarantined, the key a miss from then on — and
// its job stays pending.
func TestTableMemo(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	for i, k := range keys[:3] {
		if _, err := st.Put(k, store.EncodeOutput(output(i))); err != nil {
			t.Fatal(err)
		}
	}

	one, oneLog := tableLog(keys)
	one.Offer("k1", output(7))
	one.Offer("k1", output(8))
	one.Offer("k9", output(9))
	if want := []string{"job-started a/r001", "job-done a/r001"}; !slices.Equal(*oneLog, want) {
		t.Errorf("Offer(k1) events %q, want %q", *oneLog, want)
	}
	if pending, _ := one.Counts(); pending != 3 || one.early[1] == nil || one.early[1].NFlow != 7 {
		t.Errorf("Offer(k1) left %d jobs pending, want 3, or did not hold the first output offered", pending)
	}

	all, allLog := tableLog(keys)
	all.Memo(st)
	want := []string{
		"job-started a/r000", "job-done a/r000",
		"job-started a/r001", "job-done a/r001",
		"job-started b/r000", "job-done b/r000",
		"job-started a/aggregate", "aggregate-done a/aggregate", "job-done a/aggregate",
	}
	if !slices.Equal(*allLog, want) {
		t.Errorf("Memo events\n got %q\nwant %q", *allLog, want)
	}
	if a, b := all.aggs[0], all.aggs[1]; a.Replicas != 2 || a.NFlow.Mean != 0.5 || b.Replicas != 1 || b.NFlow.Mean != 2 {
		t.Errorf("Memo folded point a %+v, point b %+v", a.NFlow, b.NFlow)
	}

	if _, err := st.Put("k3", []byte("passes the hash, fails the frame")); err != nil {
		t.Fatal(err)
	}
	*allLog = nil
	all.Memo(st)
	if len(*allLog) != 0 {
		t.Errorf("a corrupt artifact emitted %q", *allLog)
	}
	if pending, _ := all.Counts(); pending != 1 {
		t.Errorf("after the corrupt artifact %d jobs pending, want 1", pending)
	}
	if _, ok := st.Lookup("k3"); ok {
		t.Error("the corrupt artifact is still indexed: it was not rejected")
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*")); len(q) != 1 {
		t.Errorf("quarantine holds %d objects, want 1", len(q))
	}
}

// TestTableRequeue: a requeued job is pending again, the next Start takes
// it first, and only its eventual Done counts.
func TestTableRequeue(t *testing.T) {
	tab, log := tableLog(nil)
	i, _ := tab.Start()
	j, _ := tab.Start()
	tab.Requeue(i)
	if pending, running := tab.Counts(); pending != 3 || running != 1 || tab.Running(i) || !tab.Running(j) {
		t.Fatalf("after Requeue: %d pending, %d running, job %d running %v", pending, running, i, tab.Running(i))
	}
	if k, _ := tab.Start(); k != i {
		t.Fatalf("Start after Requeue took job %d, want %d", k, i)
	}
	tab.Done(i, output(0))
	want := []string{"job-started a/r000", "job-started a/r001", "job-started a/r000", "job-done a/r000"}
	if !slices.Equal(*log, want) {
		t.Errorf("events %q, want %q", *log, want)
	}
}

// TestTableAggregateOnce: a point's aggregate triple is emitted once,
// when its last replica is done, and the table finishes with the last
// point; a second Done of the same job changes nothing.
func TestTableAggregateOnce(t *testing.T) {
	tab, log := tableLog(nil)
	for range 4 {
		i, _ := tab.Start()
		tab.Done(i, output(i))
		tab.Done(i, output(99))
	}
	want := []string{
		"job-started a/r000", "job-done a/r000",
		"job-started a/r001", "job-done a/r001",
		"job-started a/aggregate", "aggregate-done a/aggregate", "job-done a/aggregate",
		"job-started b/r000", "job-done b/r000",
		"job-started b/r001", "job-done b/r001",
		"job-started b/aggregate", "aggregate-done b/aggregate", "job-done b/aggregate",
	}
	if !slices.Equal(*log, want) {
		t.Errorf("events\n got %q\nwant %q", *log, want)
	}
	aggs := tab.Aggregates()
	if !tab.Finished() || tab.Err() != nil || len(aggs) != 2 || aggs[1].NFlow.Mean != 2.5 || tab.Aggregates() != nil {
		t.Errorf("finished %v, err %v, aggregates %v, handed over twice", tab.Finished(), tab.Err(), aggs)
	}
	tab.Stop(errors.New("late"))
	if tab.Err() != nil || len(*log) != len(want) {
		t.Errorf("Stop after the end changed the outcome: err %v, %d events", tab.Err(), len(*log))
	}
}

// TestTableFailSkips: a failure reports every unfinished job and unrun
// aggregate skipped, point by point — running jobs included — keeps the
// first error, and discards what arrives for a skipped job afterwards.
func TestTableFailSkips(t *testing.T) {
	tab, log := tableLog(nil)
	a0, _ := tab.Start()
	a1, _ := tab.Start()
	b0, _ := tab.Start()
	tab.Done(a0, output(0))
	boom := errors.New("boom")
	tab.Fail(b0, boom)
	tab.Done(a1, output(1))
	tab.Fail(a1, errors.New("second"))
	tab.Stop(errors.New("third"))
	want := []string{
		"job-started a/r000", "job-started a/r001", "job-started b/r000", "job-done a/r000",
		"job-failed b/r000",
		"job-skipped a/r001", "job-skipped a/aggregate", "job-skipped b/r001", "job-skipped b/aggregate",
	}
	if !slices.Equal(*log, want) {
		t.Errorf("events\n got %q\nwant %q", *log, want)
	}
	if err := tab.Err(); !errors.Is(err, boom) || err.Error() != "job b/r000: boom" {
		t.Errorf("Err() = %v, want the first failure", err)
	}
	if _, ok := tab.Start(); ok || !tab.Finished() || tab.aggs != nil || tab.Aggregates() != nil {
		t.Errorf("after the failure: a job started, finished %v, or a partial fold kept", tab.Finished())
	}
}

// waiting counts point p's outputs held out of order.
func (t *Table) waiting(p int) int {
	n := 0
	for i := p * t.replicas; i < (p+1)*t.replicas; i++ {
		if _, ok := t.early[i]; ok {
			n++
		}
	}
	return n
}

// TestTableFoldWindow: one 16-replica point driven at pool 2, each pair
// of replicas completing in reverse. An output that lands ahead of its
// older sibling waits, and is folded and dropped when the sibling lands:
// at every event at most pool − 1 = 1 output is held.
func TestTableFoldWindow(t *testing.T) {
	const pool, replicas = 2, 16
	var tab *Table
	events := 0
	tab = NewTable(pointSpec([]string{"p"}, replicas), func(Event) {
		events++
		if n := len(tab.early); n > pool-1 {
			t.Errorf("event %d: %d outputs held, want <= %d", events, n, pool-1)
		}
	})
	outs := outputs(1, replicas, 3, 1)
	tab.Start()
	tab.Start()
	for k := 0; k < replicas; k += 2 {
		tab.Done(k+1, outs[k+1])
		tab.Start()
		tab.Done(k, outs[k])
		tab.Start()
	}
	aggs := tab.Aggregates()
	if len(aggs) != 1 || len(tab.early) != 0 || !aggEqual(aggs[0], referenceAggregate("p", []string{"density"}, outs)) {
		t.Errorf("fold: %d aggregates, %d outputs held at the end, or bits differ from the batch merge", len(aggs), len(tab.early))
	}
}

// TestTableFoldStraggler: replica 0 of point 0 lands last. Point 0 holds
// its other replicas — never more than replicas − 1 — until it lands,
// while point 1's outputs fold as they land and are never held.
func TestTableFoldStraggler(t *testing.T) {
	const replicas = 4
	var tab *Table
	tab = NewTable(pointSpec([]string{"a", "b"}, replicas), func(e Event) {
		if n := tab.waiting(0); n > replicas-1 {
			t.Errorf("%s %s: point a holds %d outputs, want <= %d", e.Type, e.Job, n, replicas-1)
		}
		if n := tab.waiting(1); n != 0 {
			t.Errorf("%s %s: point b holds %d outputs, want 0", e.Type, e.Job, n)
		}
	})
	outs := outputs(2, 2*replicas, 4, 2)
	for range outs {
		tab.Start()
	}
	for i := 1; i < len(outs); i++ {
		tab.Done(i, outs[i])
	}
	if n := tab.waiting(0); n != replicas-1 || tab.folded[0] != 0 || tab.folded[1] != replicas {
		t.Fatalf("before the straggler: point a holds %d, folded %v", n, tab.folded)
	}
	tab.Done(0, outs[0])
	aggs := tab.Aggregates()
	qs := []string{"density"}
	if len(tab.early) != 0 || !aggEqual(aggs[0], referenceAggregate("a", qs, outs[:replicas])) ||
		!aggEqual(aggs[1], referenceAggregate("b", qs, outs[replicas:])) {
		t.Error("after the straggler: outputs still held, or an aggregate differs from the batch merge")
	}
}

// TestTableFoldBitIdentical: for replica counts 1 to 7, three points of
// different field sizes, a repeated quantity, NaN shock angles, signed
// zeros and non-finite cells, and shuffled completion orders, every
// aggregate the table folds equals the batch merge bit for bit.
func TestTableFoldBitIdentical(t *testing.T) {
	qs := []string{"density", "temperature", "density", "mach"}
	points := []string{"p0", "p1", "p2"}
	for replicas := 1; replicas <= 7; replicas++ {
		for seed := uint64(0); seed < 4; seed++ {
			tab := NewTable(pointSpec(points, replicas, qs...), func(Event) {})
			var outs []*ReplicaResult
			for p := range points {
				outs = append(outs, outputs(seed*100+uint64(p), replicas, 5+3*p, seed)...)
			}
			order := make([]int, len(outs))
			s := rng.NewStream(seed<<8 | uint64(replicas))
			for i := range order { // inside-out Fisher–Yates
				j := s.Intn(i + 1)
				order[i], order[j] = order[j], i
			}
			for range order {
				tab.Start()
			}
			for _, i := range order {
				tab.Done(i, outs[i])
			}
			aggs := tab.Aggregates()
			for p, name := range points {
				want := referenceAggregate(name, qs, outs[p*replicas:(p+1)*replicas])
				if !aggEqual(aggs[p], want) {
					t.Errorf("replicas %d, seed %d, order %v: point %s differs from the batch merge", replicas, seed, order, name)
				}
			}
		}
	}
}

// outputs returns n replica outputs of the given cell count with
// density, temperature and mach fields drawn from seed, on scales that
// vary by quantity and replica, with special values mixed in: a NaN shock angle on
// every third replica, -0 and +0 cells and, when special is odd, an
// infinite cell and a NaN cell.
func outputs(seed uint64, n, cells int, special uint64) []*ReplicaResult {
	s := rng.NewStream(seed)
	outs := make([]*ReplicaResult, n)
	for r := range outs {
		out := &ReplicaResult{Fields: map[string][]float64{}, ShockAngleDeg: 40 + s.Normal(),
			Collisions: int64(s.Intn(1 << 30)), NFlow: s.Intn(1 << 20)}
		if r%3 == 2 {
			out.ShockAngleDeg = math.NaN()
		}
		for k, q := range []string{"density", "temperature", "mach"} {
			scale := math.Pow(1e3, float64(k)) * float64(r+1)
			col := make([]float64, cells)
			for c := range col {
				col[c] = scale * s.Normal()
			}
			col[0] = math.Copysign(0, float64(r%2)-0.5)
			if special%2 == 1 && cells > 2 && r == n-1 {
				col[1], col[2] = math.Inf(1), math.NaN()
			}
			out.Fields[q] = col
		}
		outs[r] = out
	}
	return outs
}

// referenceAggregate is the batch merge the table's fold replaced, kept
// as the reference: for each quantity and cell, and for each scalar, a
// Welford accumulator runs over the whole slice in replica order.
func referenceAggregate(scenario string, quantities []string, results []*ReplicaResult) *Aggregate {
	agg := &Aggregate{Scenario: scenario, Replicas: len(results), Fields: map[string]FieldStats{}}
	if len(results) == 0 {
		return agg
	}
	for _, q := range quantities {
		cells := len(results[0].Fields[q])
		field := make([]refWelford, cells)
		for _, r := range results {
			col := r.Fields[q]
			for c := 0; c < cells; c++ {
				field[c].add(col[c])
			}
		}
		fs := FieldStats{
			Mean:     make([]float64, cells),
			Variance: make([]float64, cells),
			CI95:     make([]float64, cells),
		}
		for c := 0; c < cells; c++ {
			fs.Mean[c] = field[c].mean
			fs.Variance[c] = field[c].variance()
			fs.CI95[c] = field[c].ci95()
		}
		agg.Fields[q] = fs
	}
	var angle, colls, nflow refWelford
	angleDropped := 0
	for _, r := range results {
		if math.IsNaN(r.ShockAngleDeg) {
			angleDropped++
		} else {
			angle.add(r.ShockAngleDeg)
		}
		colls.add(float64(r.Collisions))
		nflow.add(float64(r.NFlow))
	}
	agg.ShockAngleDeg = angle.scalar(angleDropped)
	agg.Collisions = colls.scalar(0)
	agg.NFlow = nflow.scalar(0)
	return agg
}

type refWelford struct {
	n    int
	mean float64
	m2   float64
}

func (w *refWelford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *refWelford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

func (w *refWelford) ci95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * math.Sqrt(w.variance()/float64(w.n))
}

func (w *refWelford) scalar(dropped int) ScalarStats {
	return ScalarStats{Mean: w.mean, Variance: w.variance(), CI95: w.ci95(), N: w.n, Dropped: dropped}
}
