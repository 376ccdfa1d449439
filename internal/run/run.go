// Package run is the run-orchestration layer over the reference
// backends: it models an ensemble or parameter sweep as a forest — per
// scenario, replica simulations fan out and one aggregation fans them in
// — tracks it in a Table, and executes it over a bounded pool of
// concurrent whole simulations (Run; internal/coord drives the same
// Table over leases to worker processes). This is the outer level of
// parallelism the paper's single hand-launched runs lack: DSMC answers
// are statistical, so the production question is "run N replicas per
// sweep point, aggregate into mean/variance/CI, and serve the result",
// and whole-simulation jobs scale on multi-core hosts even where the
// inner worker sharding is bandwidth-bound.
//
// Determinism: every job derives its seed from the spec's base seed
// (rng.JobSeed — collision-free by construction), jobs never share
// mutable state, and the Table folds each point's replica results into
// its aggregate strictly in replica-index order as they land, so a
// sweep's aggregates are bit-identical for any pool size and any
// completion order, and a sweep holds only the outputs that landed out
// of order. With a
// checkpoint directory set, jobs persist engine + domain + accumulator
// state every few steps (internal/ckpt) and resume exactly: a killed and
// restarted sweep produces the same bits as an uninterrupted one.
//
//dsmclint:layer run
//dsmclint:scope determinism
//dsmclint:scope rng-discipline
package run

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"dsmc/internal/sample"
	"dsmc/internal/store"
)

// Spec describes an ensemble or sweep: one or more scenarios, each run
// Replicas times. The zero value is not runnable; Validate reports why.
type Spec struct {
	// Name labels the sweep in events and results.
	Name string
	// Scenarios are the sweep points (one scenario = a plain ensemble).
	Scenarios []Scenario
	// Quantities are the sampled quantity slugs (sample.Q*) each replica
	// derives from its one-pass moment accumulation and each aggregate
	// carries per-cell statistics for; empty defaults to density alone.
	Quantities []string
	// Replicas is the number of independent replicas per scenario.
	Replicas int
	// WarmSteps runs before sampling starts; SampleSteps are accumulated.
	WarmSteps, SampleSteps int
	// BaseSeed seeds the per-job derivation (rng.JobSeed).
	BaseSeed uint64
	// Pool bounds the number of concurrently running simulations;
	// 0 selects runtime.NumCPU(). Each simulation runs with its own
	// configured Workers (default 1 when orchestrating, so the outer and
	// inner parallelism multiply rather than oversubscribe).
	Pool int
	// CheckpointDir, when set, makes jobs resumable: each persists its
	// state there every CheckpointEvery steps short of its last.
	CheckpointDir string
	// CheckpointEvery is the step interval between job checkpoints
	// (default 50 when a directory is set).
	CheckpointEvery int
	// Results, when set, memoizes the sweep against a content-addressed
	// result store: every job the store holds is satisfied when the
	// sweep starts (a verified hit skips the stepping entirely), and
	// every computed output is published. Keys derive from the
	// determinism contract (see memo.go), so hits are bit-identical by
	// construction. Aggregates are not stored: folding the replica
	// outputs as they land is cheaper than reading and verifying an
	// artifact of the fold.
	Results *store.Store
}

// Validate reports spec errors.
func (sp *Spec) Validate() error {
	if len(sp.Scenarios) == 0 {
		return fmt.Errorf("run: spec has no scenarios")
	}
	if sp.Replicas <= 0 {
		return fmt.Errorf("run: Replicas must be positive")
	}
	if sp.SampleSteps <= 0 {
		return fmt.Errorf("run: SampleSteps must be positive")
	}
	if sp.WarmSteps < 0 {
		return fmt.Errorf("run: WarmSteps must not be negative")
	}
	for _, q := range sp.Quantities {
		if !sample.KnownQuantity(q) {
			return fmt.Errorf("run: unknown quantity %q", q)
		}
	}
	seen := make(map[string]bool, len(sp.Scenarios))
	for i, sc := range sp.Scenarios {
		if sc.Name == "" {
			return fmt.Errorf("run: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("run: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.validate(); err != nil {
			return fmt.Errorf("run: scenario %q: %w", sc.Name, err)
		}
	}
	return nil
}

// quantities resolves the spec's quantity list (default: density).
func (sp *Spec) quantities() []string {
	if len(sp.Quantities) == 0 {
		return []string{sample.QDensity}
	}
	return sp.Quantities
}

// JobName is the canonical ID of one replica job — the same string the
// in-process executor uses as event job name, so
// distributed runs and local runs report identical job tables.
func JobName(scenario string, replica int) string {
	return fmt.Sprintf("%s/r%03d", scenario, replica)
}

// AggregateName is the canonical ID of a scenario's fan-in.
func AggregateName(scenario string) string { return scenario + "/aggregate" }

// JobIO carries the side channels of a single-job execution: the
// checkpoint store (nil disables checkpointing; saves come every
// Spec.CheckpointEvery steps, none after the job's last) and the
// progress observer.
type JobIO struct {
	Ckpt     CkptStore
	Progress func(done, total int)
}

// RunJob executes exactly one replica job of a spec: it resumes from the
// checkpoint store if there is one and steps at the job's derived seed.
// It is the one job body — Run's pool calls it, and so do pull-workers
// with a checkpoint store that uploads to the coordinator — so a job
// executed remotely, or re-executed elsewhere after a worker loss and
// resumed from the last uploaded checkpoint, contributes bits identical
// to the never-failed local run. Memoization is the drivers' (Table.Memo).
func RunJob(ctx context.Context, sp Spec, scenarioIdx, replica int, io JobIO) (*ReplicaResult, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if scenarioIdx < 0 || scenarioIdx >= len(sp.Scenarios) {
		return nil, fmt.Errorf("run: scenario index %d out of range (%d scenarios)", scenarioIdx, len(sp.Scenarios))
	}
	if replica < 0 || replica >= sp.Replicas {
		return nil, fmt.Errorf("run: replica %d out of range (%d replicas)", replica, sp.Replicas)
	}
	var ck jobCkpt
	if io.Ckpt != nil {
		ck = jobCkpt{store: io.Ckpt, every: sp.CheckpointEvery}
		if ck.every <= 0 {
			ck.every = 50
		}
	}
	seed := jobSeed(sp.BaseSeed, scenarioIdx, replica)
	return runReplica(ctx, sp.Scenarios[scenarioIdx], sp.quantities(), seed, sp.WarmSteps, sp.SampleSteps, ck, io.Progress)
}

// Result is a completed sweep: one aggregate per scenario, in scenario
// order.
type Result struct {
	Name       string       `json:"name"`
	Aggregates []*Aggregate `json:"aggregates"`
}

// EventType tags a sweep event.
type EventType string

// Sweep event types.
const (
	EventJobStarted    EventType = "job-started"
	EventJobProgress   EventType = "job-progress"
	EventJobDone       EventType = "job-done"
	EventJobFailed     EventType = "job-failed"
	EventJobSkipped    EventType = "job-skipped"
	EventAggregateDone EventType = "aggregate-done"
)

// Event is one observation of sweep progress. Events are delivered
// serially (never concurrently) but their order across jobs follows
// scheduling, not replica index.
type Event struct {
	Type     EventType `json:"type"`
	Job      string    `json:"job"`
	Scenario string    `json:"scenario,omitempty"`
	Replica  int       `json:"replica,omitempty"`
	// StepsDone/StepsTotal carry job progress (warm + sampling combined).
	StepsDone  int    `json:"steps_done,omitempty"`
	StepsTotal int    `json:"steps_total,omitempty"`
	Err        string `json:"err,omitempty"`
}

// Run executes the spec's jobs and returns the per-scenario aggregates.
// onEvent, when non-nil, observes progress (serialized). With a result
// store the jobs it holds are satisfied before any job starts, and every
// computed output is published.
func Run(ctx context.Context, sp Spec, onEvent func(Event)) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	pool := sp.Pool
	if pool <= 0 {
		pool = runtime.NumCPU()
	}
	if sp.CheckpointDir != "" {
		if err := os.MkdirAll(sp.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
	}

	// Events may arrive from any job goroutine; serialize them here so
	// observers (NDJSON streams, progress tables) need no locking.
	var evMu sync.Mutex
	emit := func(e Event) {
		if onEvent == nil {
			return
		}
		evMu.Lock()
		defer evMu.Unlock()
		onEvent(e)
	}

	t := NewTable(&sp, emit)
	if sp.Results != nil {
		t.Memo(sp.Results)
	}
	drive(ctx, t, pool, func(ctx context.Context, si, r int) (*ReplicaResult, error) {
		io := JobIO{Progress: func(done, total int) {
			emit(Event{Type: EventJobProgress, Job: JobName(t.names[si], r), Scenario: t.names[si],
				Replica: r, StepsDone: done, StepsTotal: total})
		}}
		if sp.CheckpointDir != "" {
			io.Ckpt = FileCkptStore{Path: JobCkptPath(sp.CheckpointDir, si, r)}
		}
		res, err := RunJob(ctx, sp, si, r, io)
		if err == nil && sp.Results != nil {
			// Best-effort: a publish failure costs future recomputation,
			// never the current run.
			sp.Results.Put(t.keys[si*sp.Replicas+r], store.EncodeOutput(res))
		}
		return res, err
	})
	if err := t.Err(); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	return &Result{Name: sp.Name, Aggregates: t.Aggregates()}, nil
}

// drive runs the table's pending jobs on at most pool goroutines, each
// starting the next job in (point, replica) order until none is left. A
// job error fails the sweep: the table skips what is left and the jobs
// still in flight are cancelled, their results discarded. A job error
// that is the context's own, or a context cancelled between jobs, stops
// the table with ctx.Err() instead — the sweep was interrupted, not
// failed, and a job it interrupted has checkpointed where it stopped.
//
// Determinism note: start order is fixed but completion order follows
// scheduling; the table's fold restores replica order per point.
func drive(ctx context.Context, t *Table, pool int, job func(ctx context.Context, point, replica int) (*ReplicaResult, error)) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if err := ctx.Err(); err != nil {
				t.Stop(err)
			}
			i, ok := t.Start()
			mu.Unlock()
			if !ok {
				return
			}
			out, err := job(ctx, i/t.replicas, i%t.replicas)
			mu.Lock()
			switch {
			case err == nil:
				t.Done(i, out)
			case ctx.Err() != nil && errors.Is(err, ctx.Err()):
				t.Stop(ctx.Err())
			default:
				t.Fail(i, err)
				cancel()
			}
			mu.Unlock()
		}
	}
	pending, _ := t.Counts()
	for w := 0; w < pool && w < pending; w++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()
}
