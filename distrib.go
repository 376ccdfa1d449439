package dsmc

import (
	"context"

	"dsmc/internal/run"
	"dsmc/internal/store"
)

// This file is the distributed-execution surface of a sweep: its job
// list and table, single-job execution, and result assembly as separate
// steps. A coordinator process lowers the spec once with NewSweep,
// enumerates the jobs from Sweep.Jobs and tracks them in Sweep.NewTable,
// hands them to pull-workers that execute them with RunSweepJob
// (uploading checkpoints through the JobCheckpoint they are given), feeds
// the uploaded outputs to the table, which folds them as they land, and
// assembles its finished aggregates with Sweep.Assemble.
//
// The steps deliberately share every line of lowering, seeding,
// stepping and aggregation code with the in-process RunSweep, so a sweep
// computed by any number of workers — including workers that crashed and
// were re-dispatched, resuming from their last uploaded checkpoint —
// produces a result bit-identical to RunSweep's.

// SweepJob identifies one replica job of a sweep: the point (scenario)
// index, the replica index, and the canonical job ID that RunSweep's
// event stream uses for the same job.
type SweepJob struct {
	ID         string `json:"id"`
	Point      int    `json:"point"`
	Replica    int    `json:"replica"`
	StepsTotal int    `json:"steps_total"`
	// StoreKey is the job's content-addressed result-store key ID — a
	// pure function of the spec's determinism contract (spec
	// fingerprint, master seed, point, replica), so every process that
	// holds the spec derives the same key. A coordinator with a store
	// uses it to satisfy jobs from finished artifacts instead of
	// dispatching them.
	StoreKey string `json:"store_key,omitempty"`
}

// AggregateJobID is the canonical ID of a point's fan-in node in status
// tables and event streams (it is not a dispatchable job: aggregation
// runs wherever the outputs are assembled).
func AggregateJobID(pointName string) string { return run.AggregateName(pointName) }

// ReplicaOutput is one finished replica job's contribution to the
// aggregation: the requested time-averaged quantity fields keyed by
// quantity slug, the fitted shock angle (NaN for scenarios without a
// wedge), and the integer diagnostics. Transport note: ShockAngleDeg
// may be NaN, which encoding/json rejects — ship outputs with a
// bit-exact binary codec (internal/coord does), not with json.Marshal.
// It is the type the result store encodes, so an output is computed,
// stored, shipped and aggregated without ever being copied field by
// field.
type ReplicaOutput = store.Output

// JobCheckpoint is where a running sweep job persists its state; the
// contract of its Load, Save and Discard is run.CkptStore's. An
// implementation that also has the method
//
//	SaveStream(write func(io.Writer) error) error
//
// (run.CkptStreamer) receives each checkpoint as it streams from the
// job's live state, and the job then holds no checkpoint-sized buffer;
// one with only Save gets the bytes, from a buffer the job reuses.
type JobCheckpoint = run.CkptStore

// StepPhases names the Reference backend's four pipeline phases, in
// pipeline order: the keys of Simulation.PhaseSeconds.
var StepPhases = [4]string{"move+boundary", "sort", "select", "collide"}

// SweepJobIO carries the side channels of a single-job execution.
type SweepJobIO struct {
	// Checkpoint, when non-nil, makes the job resumable: state is saved
	// every spec.CheckpointEvery steps (default 50) short of the job's
	// last and on context cancellation, and a re-run resumes from the last save
	// bit-identically. The spec's CheckpointDir is ignored here — the
	// caller owns placement.
	Checkpoint JobCheckpoint
	// Progress observes (stepsDone, stepsTotal) at start, after every
	// checkpoint interval, and at completion.
	Progress func(done, total int)
}

// RunSweepJob executes exactly one replica job of a sweep — the unit a
// distributed worker pulls. The job's seed derivation, stepping loop and
// checkpoint codec are the same code RunSweep runs in-process, so the
// returned output is bit-identical to the contribution the same
// (point, replica) makes inside RunSweep, wherever and however often the
// job is attempted. The job always runs: memoization against a result
// store is the scheduler's (RunSweep's, the coordinator's), and the
// spec's ResultStoreDir is ignored here.
func RunSweepJob(ctx context.Context, spec SweepSpec, point, replica int, io SweepJobIO) (*ReplicaOutput, error) {
	sw, err := NewSweep(spec)
	if err != nil {
		return nil, err
	}
	return run.RunJob(ctx, sw.sp, point, replica, run.JobIO{Ckpt: io.Checkpoint, Progress: io.Progress})
}

// NewTable builds the sweep's job table — its Jobs, keyed by StoreKey,
// with one aggregate per point folded as outputs land — emitting
// through emit.
func (sw *Sweep) NewTable(emit func(run.Event)) *run.Table { return run.NewTable(&sw.sp, emit) }

// Assemble turns the finished table's aggregates (Table.Aggregates, one
// per point in point order) into the public result, attaching each
// point's resolved plan (kind, field shape, analysis context). RunSweep
// and a coordinator both end here, so the two execution paths can never
// drift in shape or convention, and a result is bit-identical whichever
// workers computed which jobs in which order.
func (sw *Sweep) Assemble(aggs []*run.Aggregate) *SweepResult {
	out := &SweepResult{Name: sw.Spec.Name}
	for i, agg := range aggs {
		pl := sw.plans[i]
		pr := PointResult{
			Name:          agg.Scenario,
			Kind:          pl.kind,
			Replicas:      agg.Replicas,
			Fields:        make(map[Quantity]FieldStats, len(agg.Fields)),
			ShockAngleDeg: agg.ShockAngleDeg,
			Collisions:    agg.Collisions,
			NFlow:         agg.NFlow,
			plan:          pl,
		}
		for q, fs := range agg.Fields {
			pr.Fields[Quantity(q)] = FieldStats{
				NX: pl.nx, NY: pl.ny, NZ: pl.nz,
				Mean: fs.Mean, Variance: fs.Variance, CI95: fs.CI95,
			}
		}
		pr.Density = pr.Fields[Density]
		out.Points = append(out.Points, pr)
	}
	return out
}

// resultEncoding versions WriteSweepResult's output inside
// Sweep.ResultKey, so bytes stored under an older encoding are never
// served as the current one.
const resultEncoding = 1
