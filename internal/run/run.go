// Package run is the run-orchestration layer over the reference
// backends: it models an ensemble or parameter sweep as a forest — per
// scenario, replica simulations fan out and one aggregation fans them in
// — and executes it over a bounded pool of concurrent whole simulations.
// This is the outer level of parallelism the paper's single hand-launched
// runs lack: DSMC answers are statistical, so the production question is
// "run N replicas per sweep point, aggregate into mean/variance/CI, and
// serve the result", and whole-simulation jobs scale on multi-core hosts
// even where the inner worker sharding is bandwidth-bound.
//
// Determinism: every job derives its seed from the spec's base seed
// (rng.JobSeed — collision-free by construction), jobs never share
// mutable state, and aggregation merges replica results strictly in
// index order inside the fan-in, so a sweep's aggregates are
// bit-identical for any pool size and any completion order. With a
// checkpoint directory set, jobs persist engine + domain + accumulator
// state every few steps (internal/ckpt) and resume exactly: a killed and
// restarted sweep produces the same bits as an uninterrupted one.
package run

import (
	"context"
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
	// state there every CheckpointEvery steps.
	CheckpointDir string
	// CheckpointEvery is the step interval between job checkpoints
	// (default 50 when a directory is set).
	CheckpointEvery int
	// Results, when set, memoizes the sweep against a content-addressed
	// result store: every replica job consults the store before computing
	// (a verified hit skips the stepping entirely) and publishes its
	// output after. Keys derive from the determinism contract (see
	// memo.go), so hits are bit-identical by construction. Aggregates are
	// not stored: merging the replica outputs a point already holds is
	// cheaper than reading and verifying an artifact of the merge.
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
// checkpoint store (nil disables checkpointing), the step interval
// between checkpoints, the progress observer, and the per-step trace
// observer (the flight-recorder feed; called on the stepping
// goroutine after every step with that step's per-phase wall times in
// nanoseconds and the particle count).
type JobIO struct {
	Ckpt      CkptStore
	Every     int
	Progress  func(done, total int)
	StepTrace func(step int, phaseNs [4]int64, particles int)
	// Results, when set, memoizes the job: a verified store hit returns
	// the finished output without stepping, a miss computes and
	// publishes it.
	Results *store.Store
}

// RunJob executes exactly one replica job of a validated spec — the
// distributed-execution entry. A coordinator enumerates the (scenario,
// replica) pairs; pull-workers call RunJob with a checkpoint store that
// uploads to the coordinator. The seed derivation, stepping loop and
// checkpoint codec are the very functions the in-process Run path uses,
// so a job executed remotely — or re-executed elsewhere after a worker
// loss, resuming from the last uploaded checkpoint — contributes bits
// identical to the never-failed local run.
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
	return sp.replica(ctx, scenarioIdx, replica, io)
}

// replica is the one body of a replica job, shared by the in-process
// forest and RunJob: a verified store hit returns the finished output
// without stepping; a miss resumes from the checkpoint store if there is
// one, steps at the job's derived seed, and publishes the output.
func (sp *Spec) replica(ctx context.Context, scenarioIdx, replica int, io JobIO) (*ReplicaResult, error) {
	if io.Results != nil {
		if res, ok := memoReplica(io.Results, sp.OutputKey(scenarioIdx, replica)); ok {
			if io.Progress != nil {
				total := sp.WarmSteps + sp.SampleSteps
				io.Progress(total, total)
			}
			return res, nil
		}
	}
	var ck jobCkpt
	if io.Ckpt != nil {
		every := io.Every
		if every <= 0 {
			every = 50
		}
		ck = jobCkpt{store: io.Ckpt, every: every}
	}
	seed := jobSeed(sp.BaseSeed, scenarioIdx, replica)
	res, err := runReplica(ctx, sp.Scenarios[scenarioIdx], sp.quantities(), seed, sp.WarmSteps, sp.SampleSteps, ck, io.Progress, io.StepTrace)
	if err != nil {
		return nil, err
	}
	if io.Results != nil {
		// Best-effort: a publish failure costs future recomputation, never
		// the current run.
		io.Results.Put(sp.OutputKey(scenarioIdx, replica).ID(), store.EncodeOutput(res))
	}
	return res, nil
}

// AggregateScenario fans in one scenario's replica results — results
// must be indexed by replica and fully populated — with the identical
// index-order Welford merge the in-process fan-in runs, so a
// distributed sweep's aggregates are bit-identical to the local run's.
func (sp *Spec) AggregateScenario(scenarioIdx int, results []*ReplicaResult) *Aggregate {
	return aggregate(sp.Scenarios[scenarioIdx].Name, sp.quantities(), results)
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

// Run executes the spec's job forest and returns the per-scenario
// aggregates. onEvent, when non-nil, observes progress (serialized).
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

	// Result slots are preallocated per (scenario, replica); jobs write
	// only their own slot, and a scenario's fan-in reads its slice after
	// the forest has seen every one of its replicas finish.
	names := make([]string, len(sp.Scenarios))
	results := make([][]*ReplicaResult, len(sp.Scenarios))
	aggs := make([]*Aggregate, len(sp.Scenarios))
	for si, sc := range sp.Scenarios {
		names[si] = sc.Name
		results[si] = make([]*ReplicaResult, sp.Replicas)
	}
	job := func(ctx context.Context, si, r int) error {
		id := JobName(names[si], r)
		io := JobIO{Every: sp.CheckpointEvery, Results: sp.Results,
			Progress: func(done, total int) {
				emit(Event{Type: EventJobProgress, Job: id, Scenario: names[si],
					Replica: r, StepsDone: done, StepsTotal: total})
			}}
		if sp.CheckpointDir != "" {
			io.Ckpt = FileCkptStore{Path: jobCkptPath(sp.CheckpointDir, si, r)}
		}
		res, err := sp.replica(ctx, si, r, io)
		results[si][r] = res
		return err
	}
	fanIn := func(si int) {
		aggs[si] = sp.AggregateScenario(si, results[si])
		emit(Event{Type: EventAggregateDone, Job: AggregateName(names[si]), Scenario: names[si]})
	}
	if err := runForest(ctx, names, sp.Replicas, pool, job, fanIn, emit); err != nil {
		return nil, err
	}
	return &Result{Name: sp.Name, Aggregates: aggs}, nil
}

// runForest executes the one job shape a sweep has — per point, replicas
// fan out and a single aggregate fans them in — over at most pool
// goroutines. Replica jobs start in (point, replica) order; the goroutine
// that finishes a point's last replica runs the point's fanIn inline, so
// aggregation stays inside the pool bound and sees a fully populated
// point. The first job error or a cancelled context stops new starts;
// jobs already in flight finish; every replica never started and every
// aggregate never run is then reported skipped, in point order, and the
// first error (or ctx.Err()) is returned wrapped.
//
// Determinism note: start order is fixed but completion order follows
// scheduling. Anything that must be reproducible — the cross-replica
// merge — therefore runs in fanIn, which combines a point's results in
// index order whatever order they arrived in.
func runForest(ctx context.Context, points []string, replicas, pool int,
	job func(ctx context.Context, point, replica int) error, fanIn func(point int), emit func(Event)) error {
	total := len(points) * replicas
	var (
		mu       sync.Mutex
		next     int // index of the next replica job to start
		firstErr error
		left     = make([]int, len(points)) // per point: replicas not yet done
		fannedIn = make([]bool, len(points))
	)
	for p := range left {
		left[p] = replicas
	}
	// stopped (call with mu held) reports that nothing new may start.
	stopped := func() bool { return firstErr != nil || ctx.Err() != nil }
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if stopped() || next == total {
				mu.Unlock()
				return
			}
			p, r := next/replicas, next%replicas
			next++
			mu.Unlock()

			id := JobName(points[p], r)
			emit(Event{Type: EventJobStarted, Job: id})
			if err := job(ctx, p, r); err != nil {
				emit(Event{Type: EventJobFailed, Job: id, Err: err.Error()})
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("run: job %q: %w", id, err)
				}
				mu.Unlock()
				continue
			}
			emit(Event{Type: EventJobDone, Job: id})

			mu.Lock()
			left[p]--
			last := left[p] == 0 && !stopped()
			if last {
				fannedIn[p] = true
			}
			mu.Unlock()
			if last {
				agg := AggregateName(points[p])
				emit(Event{Type: EventJobStarted, Job: agg})
				fanIn(p)
				emit(Event{Type: EventJobDone, Job: agg})
			}
		}
	}
	for w := 0; w < pool && w < total; w++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()

	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		for p, name := range points {
			for r := 0; r < replicas; r++ {
				if p*replicas+r >= next {
					emit(Event{Type: EventJobSkipped, Job: JobName(name, r)})
				}
			}
			if !fannedIn[p] {
				emit(Event{Type: EventJobSkipped, Job: AggregateName(name)})
			}
		}
	}
	return firstErr
}
