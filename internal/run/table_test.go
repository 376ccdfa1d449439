package run

import (
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"dsmc/internal/store"
)

// tableLog builds a two-point, two-replica table ("a", "b") with the
// given keys and returns it with the "type job" lines it has emitted.
func tableLog(keys []string) (*Table, *[]string) {
	var log []string
	t := NewTable([]string{"a", "b"}, 2, keys, func(e Event) {
		log = append(log, string(e.Type)+" "+e.Job)
	})
	return t, &log
}

// output is a distinguishable replica output for key k.
func output(k int) *ReplicaResult {
	return &ReplicaResult{Fields: map[string][]float64{"density": {float64(k)}}, NFlow: k}
}

// TestTableMemo: Memo with no key satisfies every stored job, with one
// key only the jobs under it; hits are started and done at once and the
// points they complete aggregate after them, in point order. An artifact
// that passes the store's hash but not the frame decode is rejected —
// quarantined, the key a miss from then on — and its job stays pending.
func TestTableMemo(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
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
	one.Memo(st, "k1")
	if want := []string{"job-started a/r001", "job-done a/r001"}; !slices.Equal(*oneLog, want) {
		t.Errorf("Memo(k1) events %q, want %q", *oneLog, want)
	}
	if pending, _ := one.Counts(); pending != 3 {
		t.Errorf("Memo(k1) left %d jobs pending, want 3", pending)
	}

	all, allLog := tableLog(keys)
	all.Memo(st, "")
	want := []string{
		"job-started a/r000", "job-done a/r000",
		"job-started a/r001", "job-done a/r001",
		"job-started b/r000", "job-done b/r000",
		"job-started a/aggregate", "aggregate-done a/aggregate", "job-done a/aggregate",
	}
	if !slices.Equal(*allLog, want) {
		t.Errorf("Memo events\n got %q\nwant %q", *allLog, want)
	}
	if got := all.Outputs(); got[0][1].NFlow != 1 || got[1][0].NFlow != 2 || got[1][1] != nil {
		t.Errorf("Memo outputs %v", got)
	}

	if _, err := st.Put("k3", []byte("passes the hash, fails the frame")); err != nil {
		t.Fatal(err)
	}
	*allLog = nil
	all.Memo(st, "")
	if len(*allLog) != 0 {
		t.Errorf("a corrupt artifact emitted %q", *allLog)
	}
	if pending, _ := all.Counts(); pending != 1 {
		t.Errorf("after the corrupt artifact %d jobs pending, want 1", pending)
	}
	if _, ok := st.Lookup("k3"); ok {
		t.Error("the corrupt artifact is still indexed: it was not rejected")
	}
	if q, _ := filepath.Glob(filepath.Join(st.Root(), "quarantine", "*")); len(q) != 1 {
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
	if !tab.Finished() || tab.Err() != nil || tab.Outputs()[1][1].NFlow != 3 {
		t.Errorf("finished %v, err %v, outputs %v", tab.Finished(), tab.Err(), tab.Outputs())
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
	if _, ok := tab.Start(); ok || !tab.Finished() || tab.Outputs()[0][1] != nil {
		t.Errorf("after the failure: a job started, finished %v, or a discarded output kept", tab.Finished())
	}
}
