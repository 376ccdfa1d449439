package dsmc

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"

	"dsmc/internal/grid"
	"dsmc/internal/run"
	"dsmc/internal/store"
)

// SweepPoint is one point of a parameter sweep: a name plus optional
// overrides applied to the sweep's base scenario. Nil fields keep the
// base value, so a point only states what it varies. Each override's
// knob tag names the scenario field it sets; a point may override any
// knob its base scenario has, and overriding one it lacks (e.g.
// wedge_angle_deg on a shock tube, or grid_nz on a 2D tunnel) is a
// validation error. Adding a knob is adding one tagged field.
type SweepPoint struct {
	Name             string   `json:"name"`
	Mach             *float64 `json:"mach,omitempty" knob:"Mach"`
	MeanFreePath     *float64 `json:"mean_free_path,omitempty" knob:"MeanFreePath"`
	ParticlesPerCell *float64 `json:"particles_per_cell,omitempty" knob:"ParticlesPerCell"`
	ThermalSpeed     *float64 `json:"thermal_speed,omitempty" knob:"ThermalSpeed"`
	// WedgeAngleDeg overrides the (first) wedge's ramp angle.
	WedgeAngleDeg *float64 `json:"wedge_angle_deg,omitempty" knob:"Wedge.AngleDeg"`
	// GridNX/GridNY/GridNZ override the grid shape — points of one sweep
	// may run different grids, and the aggregate carries per-point field
	// shapes. GridNZ applies to 3D scenarios only.
	GridNX *int `json:"grid_nx,omitempty" knob:"GridNX"`
	GridNY *int `json:"grid_ny,omitempty" knob:"GridNY"`
	GridNZ *int `json:"grid_nz,omitempty" knob:"GridNZ"`
	// PistonSpeed overrides the 3D shock tube's piston speed.
	PistonSpeed *float64 `json:"piston_speed,omitempty" knob:"PistonSpeed"`
}

// SweepSpec describes an ensemble or parameter sweep: a base scenario,
// the points that perturb it (none means a single-point ensemble of the
// base), the quantities to sample, and the replication and execution
// knobs.
type SweepSpec struct {
	// Name labels the sweep in events and results.
	Name string `json:"name,omitempty"`
	// Scenario is the base scenario (any kind, including the 3D shock
	// tube). Its seed is the sweep's base seed: every job
	// derives an independent seed from it, so a sweep is reproducible
	// from the spec alone. Its Workers is the per-simulation worker
	// count (default 1 under orchestration, so the job pool and the
	// inner sharding multiply rather than oversubscribe).
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Quantities are the fields each replica samples and each point
	// aggregates; empty means Density alone.
	Quantities []Quantity `json:"quantities,omitempty"`
	// Points are the sweep points; empty runs the base alone.
	Points []SweepPoint `json:"points,omitempty"`
	// Replicas is the number of independent replicas per point (>= 1);
	// points × replicas is at most 4096 jobs.
	Replicas int `json:"replicas"`
	// WarmSteps run before sampling; SampleSteps are averaged.
	WarmSteps   int `json:"warm_steps"`
	SampleSteps int `json:"sample_steps"`
	// Pool bounds the number of concurrently running simulations;
	// 0 selects runtime.NumCPU().
	Pool int `json:"pool,omitempty"`
	// CheckpointDir, when set, makes jobs resumable: each persists its
	// full state there every CheckpointEvery steps (default 50) short of
	// its last, and a re-run of the same spec over the same directory
	// continues from the checkpoints — bit-identically to an
	// uninterrupted run. A
	// coordinator requires one: it stores its workers' uploads there.
	CheckpointDir   string `json:"checkpoint_dir,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	// ResultStoreDir, when set, memoizes RunSweep against a
	// content-addressed result store rooted there: finished replica
	// outputs are published as checksummed artifacts keyed by (spec
	// fingerprint, master seed, point index, replica), and a later sweep
	// deriving the same keys — a re-run, or a sweep sharing points at the
	// same indices — reuses the verified artifacts instead of
	// recomputing, bit-identically. RunSweepJob ignores it. The dsmcd
	// server manages its own store; specs submitted to it must leave
	// this empty.
	ResultStoreDir string `json:"result_store_dir,omitempty"`
}

// BaseScenario decodes the sweep's base scenario.
func (spec *SweepSpec) BaseScenario() (Scenario, error) {
	if spec.Scenario == nil {
		return nil, errors.New("dsmc: sweep spec has no scenario")
	}
	return spec.Scenario.Scenario()
}

// PointNames returns the sweep's resolved point names in point order:
// the sweep's Name (else "ensemble") when it has no points, and
// "point-%03d" for a point without a name. They name the points in jobs,
// events and results.
func (spec *SweepSpec) PointNames() []string {
	if len(spec.Points) == 0 {
		if spec.Name == "" {
			return []string{"ensemble"}
		}
		return []string{spec.Name}
	}
	names := make([]string, len(spec.Points))
	for i, p := range spec.Points {
		names[i] = p.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("point-%03d", i)
		}
	}
	return names
}

// SampledQuantities returns the quantities every replica samples and
// every point aggregates, in order: the requested ones (Density when
// none), with Density appended when missing — PointResult.Density and
// the per-replica shock-angle fit both need it.
func (spec *SweepSpec) SampledQuantities() []Quantity {
	qs := append([]Quantity(nil), spec.Quantities...)
	if !slices.Contains(qs, Density) {
		qs = append(qs, Density)
	}
	return qs
}

// ScalarStats is a cross-replica mean/variance with its 95% confidence
// half-width (normal approximation). Dropped counts replicas whose
// measurement was undefined (e.g. no shock front found).
type ScalarStats = run.ScalarStats

// FieldStats carries per-cell cross-replica statistics of a sampled
// field, row-major over the grid like Field.Data, with the point's own
// field shape (points of one sweep may run different grids; NZ = 1 for
// 2D scenarios).
type FieldStats struct {
	NX       int       `json:"nx"`
	NY       int       `json:"ny"`
	NZ       int       `json:"nz,omitempty"`
	Mean     []float64 `json:"mean"`
	Variance []float64 `json:"variance"`
	CI95     []float64 `json:"ci95"`
}

// PointResult is one sweep point's aggregate over its replicas: per-cell
// statistics for every requested quantity plus the scalar diagnostics.
type PointResult struct {
	Name     string `json:"name"`
	Kind     string `json:"kind,omitempty"` // resolved scenario kind slug
	Replicas int    `json:"replicas"`
	// Density is the density aggregate — always present, whatever the
	// requested quantity list.
	Density FieldStats `json:"density"`
	// Fields holds one aggregate per requested quantity, keyed by the
	// Quantity slug.
	Fields        map[Quantity]FieldStats `json:"fields,omitempty"`
	ShockAngleDeg ScalarStats             `json:"shock_angle_deg"`
	Collisions    ScalarStats             `json:"collisions"`
	NFlow         ScalarStats             `json:"nflow"`

	plan *plan // the point's resolved plan, for FieldFor
}

// FieldFor returns the cross-replica mean of one sampled quantity as a
// Field, with the full analysis surface (shock angle fit, wake metrics,
// renderers, 3D views) available on it.
func (p *PointResult) FieldFor(q Quantity) (*Field, error) {
	fs, ok := p.Fields[q]
	if !ok {
		return nil, fmt.Errorf("dsmc: quantity %q was not sampled by this sweep", q)
	}
	f := &Field{
		NX: fs.NX, NY: fs.NY, NZ: fs.NZ,
		Quantity: q,
		Data:     append([]float64(nil), fs.Mean...),
		grid:     grid.New(fs.NX, fs.NY),
	}
	if f.NZ == 0 {
		f.NZ = 1
	}
	if pl := p.plan; pl != nil {
		// The cut-cell volumes are computed here, from the same wedges the
		// point's simulations built theirs from: a lowering holds none.
		if cfg := pl.sc.Sim; cfg != nil {
			f.vols = f.grid.Volumes(cfg.Wedge, cfg.Wedge2)
		}
		f.wedge = pl.wedge
		f.mach = pl.mach
	}
	return f, nil
}

// SweepResult is a completed sweep: one aggregate per point, in point
// order.
type SweepResult struct {
	Name   string        `json:"name,omitempty"`
	Points []PointResult `json:"points"`
}

// SweepEvent is one observation of sweep progress, delivered serially
// to the RunSweep observer. dsmcd adds one kind: "keepalive" events carry
// a coordinator snapshot on /events, which replays every other event
// from the sweep's log on disk, across restarts.
type SweepEvent struct {
	Type       string `json:"type"`
	Job        string `json:"job,omitempty"`
	Scenario   string `json:"scenario,omitempty"`
	Replica    int    `json:"replica,omitempty"`
	StepsDone  int    `json:"steps_done,omitempty"`
	StepsTotal int    `json:"steps_total,omitempty"`
	Err        string `json:"err,omitempty"`
	// Status is the coordinator snapshot attached to "keepalive" events.
	Status *SweepStatus `json:"status,omitempty"`
}

// SweepStatus is a point-in-time coordinator snapshot: how many jobs
// are leased out, how many are waiting, how many workers have reported
// in, and the staleness of the oldest live heartbeat.
type SweepStatus struct {
	ActiveJobs         int     `json:"active_jobs"`
	QueueDepth         int     `json:"queue_depth"`
	Workers            int     `json:"workers"`
	MaxHeartbeatAgeSec float64 `json:"max_heartbeat_age_sec"`
}

// applyPoint returns a copy of the base scenario with the point's
// overrides set along their knob paths; an override whose path the
// scenario lacks is an error.
func applyPoint(base Scenario, p SweepPoint) (Scenario, error) {
	sc := reflect.New(reflect.TypeOf(base)).Elem()
	sc.Set(reflect.ValueOf(base))
	pv := reflect.ValueOf(p)
	for i := range pv.NumField() {
		f := pv.Type().Field(i)
		path, v := f.Tag.Get("knob"), pv.Field(i)
		if path == "" || v.IsNil() {
			continue
		}
		dst, ok := knobField(sc, path, f.Type.Elem())
		if !ok {
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			return nil, fmt.Errorf("dsmc: point %q overrides %s but the base scenario (%s) has no such knob", p.Name, name, base.Kind())
		}
		dst.Set(v.Elem())
	}
	return sc.Interface().(Scenario), nil
}

// knobField resolves a dotted field path (e.g. "Wedge.AngleDeg") in a
// scenario struct value; ok is false when the struct has no field there
// or the field is not of type t.
func knobField(v reflect.Value, path string, t reflect.Type) (reflect.Value, bool) {
	for name := range strings.SplitSeq(path, ".") {
		if v.Kind() != reflect.Struct {
			return reflect.Value{}, false
		}
		if v = v.FieldByName(name); !v.IsValid() {
			return v, false
		}
	}
	return v, v.Type() == t
}

// Sweep is a SweepSpec lowered and validated once: the job list, the
// result key and the per-point plans its results are assembled from.
// Build it with NewSweep and hand it around — the coordinator and dsmcd
// run a sweep from its Sweep and never lower its spec again.
type Sweep struct {
	// Spec is the spec the sweep was lowered from. Pool and CheckpointDir
	// are execution fields the lowering does not read: an executor may
	// set them after NewSweep (dsmcd does) without touching Jobs or
	// ResultKey.
	Spec SweepSpec
	// Jobs are the replica jobs in deterministic (point, replica) order.
	// The list is a pure function of the spec, so every process that
	// holds the spec agrees on the job set and its store keys.
	Jobs []SweepJob
	// ResultKey is the result-store key ID of the sweep's encoded result
	// ("res" artifacts). The determinism contract one level up: what
	// WriteSweepResult writes for sw.Assemble(aggs) is a pure function of
	// the spec, so the key covers every input of the two — the encoding
	// version, the sweep name and, per point in order, the resolved name,
	// the scenario kind and the quantity-inclusive store fingerprint
	// (physics epoch, every trajectory field of the lowered scenario, step
	// counts, quantities) in the hash; the master seed, point count and
	// replica count in the clear. Whatever changes a byte of the result
	// changes the key; execution knobs (pool, workers, checkpoint
	// placement) change neither.
	ResultKey string

	sp    run.Spec // the lowered spec, without the execution fields
	plans []*plan  // per point: kind, field shape, analysis context
}

// maxSweepJobs bounds a sweep's points × replicas, and with it what a
// lowering allocates: about 450 bytes per job and 4 KB per point.
const maxSweepJobs = 4096

// NewSweep lowers and validates a spec — the one place a SweepSpec is
// lowered: every point's scenario is resolved, lowered, and handed to
// internal/run with its own grid shape. A lowering holds no per-cell
// array, so it costs O(points) whatever the grids.
func NewSweep(spec SweepSpec) (*Sweep, error) {
	base, err := spec.BaseScenario()
	if err != nil {
		return nil, err
	}
	basePlan, err := base.lower()
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Spec: spec, sp: run.Spec{
		Name:            spec.Name,
		Replicas:        spec.Replicas,
		WarmSteps:       spec.WarmSteps,
		SampleSteps:     spec.SampleSteps,
		BaseSeed:        basePlan.seed,
		CheckpointEvery: spec.CheckpointEvery,
	}}
	for _, q := range spec.SampledQuantities() {
		sw.sp.Quantities = append(sw.sp.Quantities, string(q))
	}
	points := spec.Points
	if len(points) == 0 {
		points = []SweepPoint{{}}
	}
	// The job list is points × replicas entries whatever the spec's
	// length: bound it, and the points, before lowering a point, or a few
	// bytes of JSON could ask for gigabytes.
	if len(points) > maxSweepJobs/max(spec.Replicas, 1) {
		return nil, fmt.Errorf("dsmc: %d points × %d replicas exceeds %d jobs", len(points), spec.Replicas, maxSweepJobs)
	}
	for i, name := range spec.PointNames() {
		sc, err := applyPoint(base, points[i])
		if err != nil {
			return nil, err
		}
		pl, err := sc.lower()
		if err != nil {
			return nil, fmt.Errorf("dsmc: point %q: %w", name, err)
		}
		rsc := pl.sc
		rsc.Name = name
		// Under orchestration the outer pool supplies the parallelism;
		// defaulting every job to all cores would oversubscribe.
		if rsc.Sim != nil && rsc.Sim.Workers == 0 {
			rsc.Sim.Workers = 1
		}
		if rsc.Sim3 != nil && rsc.Sim3.Workers == 0 {
			rsc.Sim3.Workers = 1
		}
		sw.plans = append(sw.plans, pl)
		sw.sp.Scenarios = append(sw.sp.Scenarios, rsc)
	}
	if err := sw.sp.Validate(); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %q", resultEncoding, spec.Name)
	for si, rsc := range sw.sp.Scenarios {
		for r := 0; r < spec.Replicas; r++ {
			sw.Jobs = append(sw.Jobs, SweepJob{
				ID:         run.JobName(rsc.Name, r),
				Point:      si,
				Replica:    r,
				StepsTotal: spec.WarmSteps + spec.SampleSteps,
				StoreKey:   sw.sp.OutputKey(si, r).ID(),
			})
		}
		fmt.Fprintf(h, " %q %q %016x", rsc.Name, sw.plans[si].kind, sw.sp.OutputKey(si, 0).Fp)
	}
	sw.ResultKey = store.Key{Kind: "res", Fp: h.Sum64(), Seed: sw.sp.BaseSeed,
		Point: len(sw.plans), Replica: spec.Replicas}.ID()
	return sw, nil
}

// RunSweep executes the sweep's job DAG — replicas fan out over a
// bounded pool of concurrent simulations, per-point aggregations fan in
// — and returns cross-replica mean/variance/CI statistics per point and
// per requested quantity. Points may override the base scenario's
// geometry and grid shape; each point's aggregate carries its own field
// shape. Aggregates are bit-identical for any pool size and any job
// completion order; with a checkpoint directory, a killed and re-run
// sweep resumes from the checkpoints and still produces identical bits.
// onEvent, when non-nil, observes progress (serialized calls); every
// job-started is answered by one job-done, job-failed or job-skipped
// before RunSweep returns. Cancelling ctx interrupts the sweep: jobs in
// flight checkpoint where they stopped (with a checkpoint directory) and
// are reported skipped, and the error wraps ctx.Err().
func RunSweep(ctx context.Context, spec SweepSpec, onEvent func(SweepEvent)) (*SweepResult, error) {
	sw, err := NewSweep(spec)
	if err != nil {
		return nil, err
	}
	sp := sw.sp
	sp.Pool, sp.CheckpointDir = spec.Pool, spec.CheckpointDir
	if spec.ResultStoreDir != "" {
		st, err := store.Open(spec.ResultStoreDir)
		if err != nil {
			return nil, fmt.Errorf("dsmc: opening result store: %w", err)
		}
		sp.Results = st
	}
	var observer func(run.Event)
	if onEvent != nil {
		observer = func(e run.Event) {
			onEvent(SweepEvent{
				Type: string(e.Type), Job: e.Job, Scenario: e.Scenario, Replica: e.Replica,
				StepsDone: e.StepsDone, StepsTotal: e.StepsTotal, Err: e.Err,
			})
		}
	}
	res, err := run.Run(ctx, sp, observer)
	if err != nil {
		return nil, err
	}
	return sw.Assemble(res.Aggregates), nil
}

// RunEnsemble runs replicas of one scenario and aggregates them — the
// single-point sweep. The result's CI quantifies the statistical
// scatter DSMC answers carry. Any scenario works, including the 3D
// shock tube.
func RunEnsemble(ctx context.Context, sc Scenario, replicas, warmSteps, sampleSteps int) (*PointResult, error) {
	ss, err := NewScenarioSpec(sc)
	if err != nil {
		return nil, err
	}
	res, err := RunSweep(ctx, SweepSpec{
		Scenario:    ss,
		Replicas:    replicas,
		WarmSteps:   warmSteps,
		SampleSteps: sampleSteps,
	}, nil)
	if err != nil {
		return nil, err
	}
	return &res.Points[0], nil
}
