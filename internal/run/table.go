package run

import (
	"fmt"
	"slices"
	"strings"

	"dsmc/internal/store"
)

// Table is the state machine of one sweep's jobs — per point, replicas
// fan out and one aggregate fans them in — and the one both drivers
// share: Run's goroutine pool and the coordinator's lease layer
// (internal/coord). It holds every replica job's state, each point's
// running aggregate and whether it has been reported, and the sweep's
// first error, and it emits the sweep's events synchronously through the
// driver's callback. Jobs are indexed in (point, replica) order: job i
// is replica i%replicas of point i/replicas.
//
// The fan-in happens here, as outputs land. A point's outputs fold into
// its Aggregate in replica-index order as soon as the point's done
// prefix extends (Done, Memo, Offer); an output that lands ahead of an
// older replica of its point waits in the table until that replica is
// in, and every output is dropped once folded. So a point holds at most
// replicas − 1 outputs, and only while they are out of order. The
// finished aggregates are handed over once (Aggregates), after which the
// table references no output and no aggregate.
//
// One rule each, for both drivers:
//   - a point's aggregate is reported (job-started, aggregate-done,
//     job-done) once, when its last replica is done;
//   - a permanent failure, or Stop, reports every unfinished job and
//     every aggregate not yet reported job-skipped, point by point
//     (replicas, then the aggregate), drops every waiting output and
//     every aggregate, and a result that arrives for a skipped job
//     afterwards is discarded;
//   - a job satisfied from the result store, or from an output another
//     sweep published (Memo, Offer, Satisfy), is started and done at
//     once, without a progress event.
//
// So every job-started is answered by exactly one job-done, job-failed
// or job-skipped — or, in the coordinator, by job-lost or job-released
// when a lease ends and the job is queued to start again. A Table is not
// safe for concurrent use: each driver calls it under its own lock.
type Table struct {
	names      []string // point names
	cells      []int    // per point: the length of every output field
	replicas   int
	quantities []string // folded per cell: the spec's, sorted, each once
	keys       []string // per job: result-store key ID
	emit       func(Event)

	state   []jobState
	folded  []int                  // per point: replicas folded, a prefix in replica order
	early   map[int]*ReplicaResult // by job: outputs waiting for an older replica of their point
	aggs    []*Aggregate           // per point: the fold, finished when every replica is in
	aggDone []bool                 // per point: aggregate reported (done or skipped)
	err     error
}

// jobState is a replica job's place in its table.
type jobState uint8

const (
	jobPending jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobSkipped
)

var jobStateNames = [...]string{"pending", "running", "done", "failed", "skipped"}

// NewTable builds the table of sp's len(Scenarios) × Replicas pending
// jobs, keyed by OutputKey for Memo and Offer; emit receives every event.
func NewTable(sp *Spec, emit func(Event)) *Table {
	n := len(sp.Scenarios) * sp.Replicas
	t := &Table{
		replicas: sp.Replicas, emit: emit,
		state: make([]jobState, n), early: map[int]*ReplicaResult{},
		folded: make([]int, len(sp.Scenarios)), aggDone: make([]bool, len(sp.Scenarios)),
		quantities: slices.Compact(slices.Sorted(slices.Values(sp.quantities()))),
	}
	for si, sc := range sp.Scenarios {
		t.names = append(t.names, sc.Name)
		t.cells = append(t.cells, sc.cells())
		t.aggs = append(t.aggs, &Aggregate{Scenario: sc.Name, Fields: map[string]FieldStats{}})
		for r := 0; r < sp.Replicas; r++ {
			t.keys = append(t.keys, sp.OutputKey(si, r).ID())
		}
	}
	return t
}

// job returns job i's ID.
func (t *Table) job(i int) string { return JobName(t.names[i/t.replicas], i%t.replicas) }

// Start marks the first pending job running and emits job-started; ok is
// false when no job is pending.
func (t *Table) Start() (i int, ok bool) {
	for i, s := range t.state {
		if s == jobPending {
			t.state[i] = jobRunning
			t.emit(Event{Type: EventJobStarted, Job: t.job(i)})
			return i, true
		}
	}
	return 0, false
}

// Check reports how out differs from the shape of job i's output in the
// lowered spec — exactly the table's quantities, each a column of the
// point's cell count — or nil when it does not. The coordinator checks a
// completion before Done, and Memo a stored output, so the fold
// (Aggregate.add) may assume the shape.
func (t *Table) Check(i int, out *ReplicaResult) error {
	cells := t.cells[i/t.replicas]
	for _, q := range t.quantities {
		col, ok := out.Fields[q]
		if !ok {
			return fmt.Errorf("output has no %q field", q)
		}
		if len(col) != cells {
			return fmt.Errorf("output field %q has %d cells, want %d", q, len(col), cells)
		}
	}
	if len(out.Fields) != len(t.quantities) {
		return fmt.Errorf("output has %d fields, want %d (%s)", len(out.Fields), len(t.quantities), strings.Join(t.quantities, ", "))
	}
	return nil
}

// Running reports whether job i has started and not ended.
func (t *Table) Running(i int) bool { return t.state[i] == jobRunning }

// State names job i's state: pending, running, done, failed or skipped.
func (t *Table) State(i int) string { return jobStateNames[t.state[i]] }

// Requeue returns running job i to pending. It emits nothing: the driver
// reports why the job stopped (the coordinator's job-lost, job-released).
func (t *Table) Requeue(i int) {
	if t.state[i] == jobRunning {
		t.state[i] = jobPending
	}
}

// Done folds running job i's output into its point's aggregate (or
// holds it until the point's older replicas are in) and emits job-done,
// then the point's aggregate if that was its last replica. A job that is
// no longer running — skipped by a failure or a Stop — is ignored: its
// result is discarded.
func (t *Table) Done(i int, out *ReplicaResult) {
	if t.state[i] != jobRunning {
		return
	}
	t.complete(i, out)
	t.emit(Event{Type: EventJobDone, Job: t.job(i)})
	t.aggregate(i / t.replicas)
}

// Fail records running job i's permanent failure — job-failed carrying
// err — and stops the sweep with the error attributed to the job.
func (t *Table) Fail(i int, err error) {
	if t.state[i] != jobRunning {
		return
	}
	t.state[i] = jobFailed
	t.emit(Event{Type: EventJobFailed, Job: t.job(i), Err: err.Error()})
	t.Stop(fmt.Errorf("job %s: %w", t.job(i), err))
}

// Stop ends an unfinished sweep with err: every pending or running job
// and every aggregate not yet reported is skipped, point by point, the
// waiting outputs and the aggregates are dropped, and nothing starts
// afterwards. A finished sweep keeps its outcome.
func (t *Table) Stop(err error) {
	if t.Finished() {
		return
	}
	t.err = err
	clear(t.early)
	t.aggs = nil
	for p, name := range t.names {
		for i := p * t.replicas; i < (p+1)*t.replicas; i++ {
			if s := t.state[i]; s == jobPending || s == jobRunning {
				t.state[i] = jobSkipped
				t.emit(Event{Type: EventJobSkipped, Job: t.job(i)})
			}
		}
		if !t.aggDone[p] {
			t.aggDone[p] = true
			t.emit(Event{Type: EventJobSkipped, Job: AggregateName(name)})
		}
	}
}

// Memo satisfies every pending job the result store holds. A verified
// hit is decoded and its job started and done without running; content
// that passes the store's hash check but not the frame decode or Check
// is rejected (quarantined) and reads as a miss. The aggregates of the
// points it completes follow the jobs, in point order.
func (t *Table) Memo(st *store.Store) {
	for i, k := range t.keys {
		if t.state[i] != jobPending {
			continue
		}
		data, _, ok := st.Get(k)
		if !ok {
			continue
		}
		out, err := store.DecodeOutput(data)
		if err == nil {
			err = t.Check(i, out)
		}
		if err != nil {
			st.Reject(k)
			continue
		}
		t.settle(i, out)
	}
	t.aggregateAll()
}

// Offer settles every pending job whose key is key with out, an output
// another table checked and published under that key — a key fixes the
// quantities and the cell counts, so the shape holds here too — with
// Memo's events: the jobs, then the aggregates of the points they
// complete.
func (t *Table) Offer(key string, out *ReplicaResult) {
	for i, k := range t.keys {
		if k == key && t.state[i] == jobPending {
			t.settle(i, out)
		}
	}
	t.aggregateAll()
}

// Satisfy completes every pending job without an output: the events of a
// sweep whose encoded result the store already holds, in Memo's shape.
func (t *Table) Satisfy() {
	for i, s := range t.state {
		if s == jobPending {
			t.settle(i, nil)
		}
	}
	t.aggregateAll()
}

// settle completes pending job i without running it.
func (t *Table) settle(i int, out *ReplicaResult) {
	t.emit(Event{Type: EventJobStarted, Job: t.job(i)})
	t.complete(i, out)
	t.emit(Event{Type: EventJobDone, Job: t.job(i)})
}

// complete marks job i done and extends its point's folded prefix as far
// as the outputs in hand allow; an output ahead of the prefix waits.
func (t *Table) complete(i int, out *ReplicaResult) {
	t.state[i] = jobDone
	p := i / t.replicas
	if i%t.replicas > t.folded[p] {
		t.early[i] = out
		return
	}
	for {
		t.aggs[p].add(t.quantities, out)
		t.folded[p]++
		i++
		var ok bool
		if out, ok = t.early[i]; !ok {
			return
		}
		delete(t.early, i)
	}
}

// aggregate reports point p's aggregate once its replicas are all done,
// finishing the fold between the fan-in's job-started and job-done.
func (t *Table) aggregate(p int) {
	if t.folded[p] < t.replicas || t.aggDone[p] {
		return
	}
	t.aggDone[p] = true
	id := AggregateName(t.names[p])
	t.emit(Event{Type: EventJobStarted, Job: id})
	t.aggs[p].finish(t.quantities)
	t.emit(Event{Type: EventAggregateDone, Job: id, Scenario: t.names[p]})
	t.emit(Event{Type: EventJobDone, Job: id})
}

func (t *Table) aggregateAll() {
	for p := range t.names {
		t.aggregate(p)
	}
}

// Counts returns how many jobs are pending and how many are running.
func (t *Table) Counts() (pending, running int) {
	for _, s := range t.state {
		switch s {
		case jobPending:
			pending++
		case jobRunning:
			running++
		}
	}
	return pending, running
}

// Finished reports whether the sweep has ended: every point's aggregate
// reported, done or — after a failure or a Stop — skipped.
func (t *Table) Finished() bool {
	for _, done := range t.aggDone {
		if !done {
			return false
		}
	}
	return true
}

// Err returns the error the sweep stopped with, nil while it has not.
func (t *Table) Err() error { return t.err }

// Aggregates hands over a finished sweep's aggregates, one per point in
// point order, and lets go of them: a later call, like a call before the
// sweep finished or after it stopped, returns nil.
func (t *Table) Aggregates() []*Aggregate {
	if !t.Finished() {
		return nil
	}
	aggs := t.aggs
	t.aggs = nil
	return aggs
}
