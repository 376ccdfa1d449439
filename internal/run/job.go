package run

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"dsmc/internal/ckpt"
	"dsmc/internal/grid"
	"dsmc/internal/kernel"
	"dsmc/internal/rng"
	"dsmc/internal/sample"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
	"dsmc/internal/store"
)

// Scenario is one sweep point lowered to an internal configuration:
// exactly one of the backend configs is set (2D wind tunnel or 3D shock
// tube), plus the storage precision to instantiate it at. The Seed field
// of the config is ignored — Open is told the seed: every job derives its
// own from the spec's base seed (rng.JobSeed), so replicas are
// independent by construction and a sweep is reproducible from (spec,
// base seed) alone.
type Scenario struct {
	Name    string
	Sim     *sim.Config  // 2D wind tunnel
	Sim3    *sim3.Config // 3D shock tube
	Float32 bool
}

// validate reports scenario errors (run.Spec.Validate wraps them with
// the scenario name).
func (sc *Scenario) validate() error {
	switch {
	case sc.Sim != nil && sc.Sim3 != nil:
		return errors.New("both Sim and Sim3 set")
	case sc.Sim != nil:
		return sc.Sim.Validate()
	case sc.Sim3 != nil:
		return sc.Sim3.Validate()
	}
	return errors.New("no backend config set")
}

// cells is the scenario's cell count: the length of every field its
// replicas output.
func (sc *Scenario) cells() int {
	if sc.Sim3 != nil {
		return sc.Sim3.NX * sc.Sim3.NY * sc.Sim3.NZ
	}
	return sc.Sim.NX * sc.Sim.NY
}

// ReplicaResult is one finished replica's contribution to the
// aggregation, in the one type it is computed, stored, shipped and
// merged as.
type ReplicaResult = store.Output

// jobCkpt describes the checkpoint policy of one replica job.
type jobCkpt struct {
	store CkptStore // nil disables checkpointing
	every int       // steps between checkpoints (> 0 when store is set)
}

// Sim is the surface of an engine-backed simulation that this layer and
// the public package drive. All four instantiations implement it — both
// precisions of the 2D wind tunnel and of the 3D shock tube — mostly
// through the engine they embed.
type Sim interface {
	Step()
	Run(n int)
	StepCount() int
	Collisions() int64
	NFlow() int
	NReservoir() int
	SampleInto(acc *sample.Accumulator)
	PhaseTimes() map[string]time.Duration
	CheckpointSections(w *ckpt.Writer)
	RestoreSections(r *ckpt.Reader) error
	WriteCheckpoint(w io.Writer) error
	ReadCheckpoint(r io.Reader) error
}

var (
	_ Sim = (*sim.SimOf[float32])(nil)
	_ Sim = (*sim.SimOf[float64])(nil)
	_ Sim = (*sim3.SimOf[float32])(nil)
	_ Sim = (*sim3.SimOf[float64])(nil)
)

// Replica is a scenario built at a seed: the live simulation plus the
// scenario-derived metadata the shared stepping loop and the checkpoint
// codec need (shape, precision tag, normalisers, analysis hook), read
// back from the simulation so its resolved defaults are the only ones.
type Replica struct {
	Sim
	prec  ckpt.Prec
	cells int
	vols  []float64 // per-cell gas volumes; nil means unit (3D)
	nInf  float64
	norms sample.Norms
	// angle fits the scenario's validation scalar from the density
	// field; NaN when the scenario has no oblique shock to fit.
	angle func(density []float64) float64
	// ckw is the checkpoint writer every save reuses, so a job allocates
	// its staging chunk once; ckbuf holds the last checkpoint encoded for
	// a store without SaveStream, and is reused the same way.
	ckw   ckpt.Writer
	ckbuf bytes.Buffer
}

// NewAccumulator returns an empty moment accumulator of the replica's
// shape, cut-cell volumes and normalisation.
func (rp *Replica) NewAccumulator() *sample.Accumulator {
	return sample.NewAccumulatorCells(rp.cells, rp.vols, rp.nInf)
}

// Open builds the scenario's simulation at the given seed. It is the one
// place an engine-backed simulation is constructed: dsmc.NewSimulation
// passes the scenario's own seed, a sweep job its derived one.
func Open(sc Scenario, seed uint64) (*Replica, error) {
	switch {
	case sc.Sim != nil && sc.Float32:
		return open2D[float32](*sc.Sim, seed)
	case sc.Sim != nil:
		return open2D[float64](*sc.Sim, seed)
	case sc.Sim3 != nil && sc.Float32:
		return open3D[float32](*sc.Sim3, seed)
	case sc.Sim3 != nil:
		return open3D[float64](*sc.Sim3, seed)
	}
	return nil, errors.New("no backend config set")
}

func open2D[F kernel.Float](cfg sim.Config, seed uint64) (*Replica, error) {
	cfg.Seed = seed
	s, err := sim.NewOf[F](cfg)
	if err != nil {
		return nil, err
	}
	cfg, g := s.Config(), s.Grid()
	return &Replica{
		Sim:   s,
		prec:  ckpt.PrecOf[F](),
		cells: g.Cells(),
		vols:  s.Volumes(),
		nInf:  cfg.NPerCell,
		norms: sample.Norms{Cm: cfg.Free.Cm, Gamma: cfg.Free.Gamma},
		angle: func(density []float64) float64 { return shockAngleDeg(density, g, cfg) },
	}, nil
}

func open3D[F kernel.Float](cfg sim3.Config, seed uint64) (*Replica, error) {
	cfg.Seed = seed
	s, err := sim3.NewOf[F](cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.Config()
	return &Replica{
		Sim:   s,
		prec:  ckpt.PrecOf[F](),
		cells: s.Grid().Cells(),
		nInf:  cfg.NPerCell,
		norms: sample.Norms{Cm: cfg.Cm, Gamma: cfg.Model.Gamma()},
		angle: func([]float64) float64 { return math.NaN() },
	}, nil
}

// runReplica executes one replica of a scenario: warm to steady state,
// then sample every step into the one-pass moment accumulator, and
// derive the requested quantity fields at the end. With a checkpoint
// store the job persists its progress every `every` steps and resumes
// exactly — the restored run is bit-identical to an uninterrupted one,
// because the checkpoint carries the full engine, domain and accumulator
// state and the step sequence does not depend on chunk boundaries. No
// save follows the last chunk: the finished job returns its output,
// which the caller keeps, so a checkpoint at the final step would never
// be read. A 50-step job saving every 10 steps saves 4 times; a job of
// `every` steps or fewer saves none.
//
// Cancellation is checked after every step, not just at chunk
// boundaries: a cancelled job saves a checkpoint at whatever step it
// reached (the state is consistent after any full step) and returns
// ctx.Err(), so graceful shutdown loses no work and the resumed run is
// still bit-identical.
func runReplica(ctx context.Context, sc Scenario, quantities []string, seed uint64, warm, sampleSteps int, ck jobCkpt, progress func(done, total int)) (*ReplicaResult, error) {
	job, err := Open(sc, seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	acc := job.NewAccumulator()

	done := 0 // steps completed, warm and sampling combined
	total := warm + sampleSteps
	fp := specFingerprint(sc, warm, sampleSteps)
	if ck.store != nil {
		restored, n, err := job.loadCheckpoint(ck.store, acc, seed, fp)
		if err != nil {
			return nil, err
		}
		if restored {
			done = n
		}
	}
	if progress != nil {
		progress(done, total)
	}

	for done < total {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := total - done
		if ck.store != nil && ck.every > 0 && chunk > ck.every {
			chunk = ck.every
		}
		cancelled := false
		for k := 0; k < chunk; k++ {
			job.Step()
			if done+k+1 > warm {
				job.SampleInto(acc)
			}
			if ctx.Err() != nil {
				done += k + 1
				cancelled = true
				break
			}
		}
		if cancelled {
			// Best-effort checkpoint of the in-flight state; the job is
			// abandoning anyway, so a failed save only costs recomputation.
			if ck.store != nil {
				_ = job.saveCheckpoint(ck.store, acc, seed, fp, done)
			}
			return nil, ctx.Err()
		}
		done += chunk
		if ck.store != nil && done < total {
			if err := job.saveCheckpoint(ck.store, acc, seed, fp, done); err != nil {
				return nil, err
			}
		}
		if progress != nil {
			progress(done, total)
		}
	}

	res := &ReplicaResult{
		Fields:     make(map[string][]float64, len(quantities)),
		Collisions: job.Collisions(),
		NFlow:      job.NFlow(),
	}
	for _, q := range quantities {
		field, err := acc.FieldOf(q, job.norms)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		res.Fields[q] = field
	}
	// The shock-angle fit runs on the density field; reuse the derived
	// one when it was requested (the public layer always requests it).
	density := res.Fields[sample.QDensity]
	if density == nil {
		d, err := acc.FieldOf(sample.QDensity, job.norms)
		if err != nil {
			return nil, err
		}
		density = d
	}
	res.ShockAngleDeg = job.angle(density)
	return res, nil
}

// saveCheckpoint serializes the job state — progress counters, the full
// simulation, and the sampling accumulator — and hands it to the store,
// which persists it atomically (the file store via
// write-temp/fsync/rename, the distributed worker via an idempotent
// upload). If the medium still delivers a corrupt checkpoint later,
// loadCheckpoint detects it by checksum and falls back to a fresh
// (bit-identical) run rather than wedging the sweep. A store with
// SaveStream takes the checkpoint as it streams from the live columns;
// any other gets it encoded, by the same writer, into the replica's
// reused buffer, which is why Save must not retain the bytes.
func (job *Replica) saveCheckpoint(st CkptStore, acc *sample.Accumulator, seed, fp uint64, done int) error {
	write := func(dst io.Writer) error {
		w := &job.ckw
		ckpt.Reset(w, dst, ckpt.KindJob, job.prec, job.cells)
		w.U64(seed)
		w.U64(fp)
		w.U64(uint64(done))
		job.CheckpointSections(w)
		ckpt.WriteAccumulator(w, acc)
		return w.Finish()
	}
	if s, ok := st.(CkptStreamer); ok {
		return s.SaveStream(write)
	}
	job.ckbuf.Reset()
	write(&job.ckbuf) // a bytes.Buffer takes every write
	return st.Save(job.ckbuf.Bytes())
}

// loadCheckpoint restores a job checkpoint if one exists, returning
// whether a restore happened and the completed step count.
//
// Failure policy: a checkpoint that is merely corrupt (torn write,
// disk damage — ckpt.Restore verifies the whole buffer before any state
// is applied, so it can never leave the simulation half-mutated) or from
// a different format version (pre-upgrade leftovers in a resumed sweep
// directory) is discarded and the job starts fresh, which is
// bit-identical to having resumed and costs only the recomputation; a
// checkpoint that is structurally valid but belongs to a different job
// or spec — wrong seed, spec fingerprint (step budget or physics knobs
// changed), kind, precision or grid, i.e. a checkpoint directory shared
// across specs — is a hard error, because silently ignoring it would
// mask the misconfiguration (or worse, serve the old spec's state as the
// new spec's result).
func (job *Replica) loadCheckpoint(store CkptStore, acc *sample.Accumulator, seed, fp uint64) (bool, int, error) {
	data, err := store.Load()
	if err != nil {
		return false, 0, err
	}
	if data == nil {
		return false, 0, nil
	}
	var done int
	err = ckpt.Restore(data, ckpt.KindJob, job.prec, job.cells, func(r *ckpt.Reader) error {
		ckSeed, ckFp := r.U64(), r.U64()
		done = int(r.U64())
		if r.Err() != nil {
			return r.Err()
		}
		if ckSeed != seed {
			return fmt.Errorf("seed %#x does not match job seed %#x", ckSeed, seed)
		}
		if ckFp != fp {
			return fmt.Errorf("spec fingerprint %#x does not match %#x (step budget or physics parameters changed; use a fresh checkpoint directory)", ckFp, fp)
		}
		if err := job.RestoreSections(r); err != nil {
			return err
		}
		return ckpt.ReadAccumulator(r, acc)
	})
	if errors.Is(err, ckpt.ErrCorrupt) || errors.Is(err, ckpt.ErrVersion) {
		store.Discard()
		return false, 0, nil
	}
	if err != nil {
		return false, 0, fmt.Errorf("job checkpoint: %w", err)
	}
	return true, done, nil
}

// JobCkptPath names a job's checkpoint file inside the sweep's
// checkpoint directory — for Run's jobs and the coordinator's uploads
// alike, so either resumes from checkpoints the other wrote.
func JobCkptPath(dir string, scenarioIdx, replica int) string {
	return filepath.Join(dir, fmt.Sprintf("job-s%03d-r%03d.ckpt", scenarioIdx, replica))
}

// PhysicsEpoch is the first word of every trajectory fingerprint: the
// FNV-1a digest of the recorded goldens, held equal to it by
// internal/golden's TestPhysicsEpoch. Re-recording a golden rotates every
// out and res key and job checkpoint fingerprint with it.
const PhysicsEpoch uint64 = 0xd59a3ff71f29ae06

// execOnly is the one list of Scenario fields that do not steer the
// trajectory: Open is told the job's seed, and the bits do not depend on
// the worker count. Every other field is fingerprinted, new ones too.
var execOnly = map[reflect.Type][]string{
	reflect.TypeFor[Scenario]():    {"Name"},
	reflect.TypeFor[sim.Config]():  {"Seed", "Workers"},
	reflect.TypeFor[sim3.Config](): {"Seed", "Workers"},
}

// specFingerprint hashes the physics epoch, the step budget, every
// scenario field but execOnly's, then extra (a store key's quantities,
// which do not steer the trajectory), so a checkpoint directory reused
// after the spec changed is rejected. The seed is checked separately.
func specFingerprint(sc Scenario, warm, sampleSteps int, extra ...string) uint64 {
	h := fnv1a(14695981039346656037) // the offset basis
	h.word(PhysicsEpoch)
	h.word(uint64(warm))
	h.word(uint64(sampleSteps))
	h.walk(reflect.ValueOf(&sc).Elem())
	for _, s := range extra {
		h.text(s)
	}
	return uint64(h)
}

// fnv1a is an FNV-1a state absorbing 8-byte little-endian words.
type fnv1a uint64

func (h *fnv1a) word(v uint64) {
	for i := 0; i < 64; i += 8 {
		*h = (*h ^ fnv1a(byte(v>>i))) * 1099511628211
	}
}

// text absorbs a length-prefixed string.
func (h *fnv1a) text(s string) {
	h.word(uint64(len(s)))
	for i := range len(s) {
		*h = (*h ^ fnv1a(s[i])) * 1099511628211
	}
}

// walk absorbs v: a bool (0 or 1), integer or float (its bits) as a word,
// a string length-prefixed, a pointer as a presence bool and its pointee,
// a struct as each field's name and value but execOnly's. Any other kind
// is a field nobody classified, and panics.
func (h *fnv1a) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		h.word(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.word(math.Float64bits(v.Float()))
	case reflect.String:
		h.text(v.String())
	case reflect.Pointer:
		h.walk(reflect.ValueOf(!v.IsNil()))
		if !v.IsNil() {
			h.walk(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if name := v.Type().Field(i).Name; !slices.Contains(execOnly[v.Type()], name) {
				h.text(name)
				h.walk(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("run: the trajectory fingerprint cannot hash a %s; hash it deliberately or add it to execOnly", v.Type()))
	}
}

// jobSeed derives the simulation seed of (scenario, replica) from the
// spec's base seed; see rng.JobSeed for the non-collision argument. The
// job index packs the scenario into the high word so sweeps of any
// practical width cannot overlap.
func jobSeed(base uint64, scenarioIdx, replica int) uint64 {
	return rng.JobSeed(base, uint64(scenarioIdx)<<32|uint64(uint32(replica)))
}

// shockAngleDeg fits the oblique shock angle from a density field — the
// identical analysis (sample.WedgeShockAngle) the public Field runs, so
// per-replica statistics and the fit on the cross-replica mean can never
// diverge in convention; NaN when the scenario has no wedge or no front
// is found.
func shockAngleDeg(density []float64, g grid.Grid, cfg sim.Config) float64 {
	if cfg.Wedge == nil {
		return math.NaN()
	}
	return sample.WedgeShockAngle(density, g,
		cfg.Wedge.LeadX, cfg.Wedge.Base, cfg.Wedge.Angle, cfg.Free.Mach) * 180 / math.Pi
}
