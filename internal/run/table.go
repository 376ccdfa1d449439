package run

import (
	"fmt"

	"dsmc/internal/store"
)

// Table is the state machine of one sweep's jobs — per point, replicas
// fan out and one aggregate fans them in — and the one both drivers
// share: Run's goroutine pool and the coordinator's lease layer
// (internal/coord). It holds every replica job's state and output, each
// point's count of replicas still to finish and whether its aggregate
// has been reported, and the sweep's first error, and it emits the
// sweep's events synchronously through the driver's callback. Jobs are
// indexed in (point, replica) order: job i is replica i%replicas of
// point i/replicas.
//
// One rule each, for both drivers:
//   - a point's aggregate is reported (job-started, aggregate-done,
//     job-done) once, when its last replica is done;
//   - a permanent failure, or Stop, reports every unfinished job and
//     every aggregate not yet reported job-skipped, point by point
//     (replicas, then the aggregate), and a result that arrives for a
//     skipped job afterwards is discarded;
//   - a job satisfied from the result store (Memo, Satisfy) is started
//     and done at once, without a progress event.
//
// So every job-started is answered by exactly one job-done, job-failed
// or job-skipped — or, in the coordinator, by job-lost or job-released
// when a lease ends and the job is queued to start again. A Table is not
// safe for concurrent use: each driver calls it under its own lock.
type Table struct {
	names    []string // point names
	replicas int
	keys     []string // per job: result-store key ID; nil: no job is memoized
	emit     func(Event)

	state   []jobState
	outputs []*ReplicaResult
	left    []int  // per point: replicas not yet done
	aggDone []bool // per point: aggregate reported (done or skipped)
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

// NewTable builds the table of len(points) × replicas pending jobs.
// keys, when non-nil, holds every job's result-store key ID in job order
// (OutputKey(point, replica).ID()), which Memo looks up; emit receives
// every event.
func NewTable(points []string, replicas int, keys []string, emit func(Event)) *Table {
	n := len(points) * replicas
	t := &Table{
		names: points, replicas: replicas, keys: keys, emit: emit,
		state: make([]jobState, n), outputs: make([]*ReplicaResult, n),
		left: make([]int, len(points)), aggDone: make([]bool, len(points)),
	}
	for p := range t.left {
		t.left[p] = replicas
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

// Running reports whether job i has started and not ended.
func (t *Table) Running(i int) bool { return t.state[i] == jobRunning }

// Requeue returns running job i to pending. It emits nothing: the driver
// reports why the job stopped (the coordinator's job-lost, job-released).
func (t *Table) Requeue(i int) {
	if t.state[i] == jobRunning {
		t.state[i] = jobPending
	}
}

// Done records running job i's output and emits job-done, then the
// point's aggregate if that was its last replica. A job that is no longer
// running — skipped by a failure or a Stop — is ignored: its result is
// discarded.
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
// and every aggregate not yet reported is skipped, point by point, and
// nothing starts afterwards. A finished sweep keeps its outcome.
func (t *Table) Stop(err error) {
	if t.Finished() {
		return
	}
	t.err = err
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

// Memo satisfies pending jobs from the result store: every pending job,
// or when key is not empty only those whose key it is. A verified hit is
// decoded and its job started and done without running; content that
// passes the store's hash check but not the frame decode is rejected
// (quarantined) and reads as a miss. The aggregates of the points it
// completes follow the jobs, in point order.
func (t *Table) Memo(st *store.Store, key string) {
	for i, k := range t.keys {
		if t.state[i] != jobPending || k == "" || (key != "" && k != key) {
			continue
		}
		data, _, ok := st.Get(k)
		if !ok {
			continue
		}
		out, err := store.DecodeOutput(data)
		if err != nil {
			st.Reject(k)
			continue
		}
		t.settle(i, out)
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

func (t *Table) complete(i int, out *ReplicaResult) {
	t.state[i] = jobDone
	t.outputs[i] = out
	t.left[i/t.replicas]--
}

// aggregate reports point p's aggregate once its replicas are all done.
func (t *Table) aggregate(p int) {
	if t.left[p] > 0 || t.aggDone[p] {
		return
	}
	t.aggDone[p] = true
	id := AggregateName(t.names[p])
	t.emit(Event{Type: EventJobStarted, Job: id})
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

// Outputs returns the replica outputs per point, in replica order; a job
// that is not done has none. The slices alias the table's.
func (t *Table) Outputs() [][]*ReplicaResult {
	out := make([][]*ReplicaResult, len(t.names))
	for p := range out {
		out[p] = t.outputs[p*t.replicas : (p+1)*t.replicas]
	}
	return out
}
