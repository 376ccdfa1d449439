// Package dsmc is a Go reproduction of the hypersonic rarefied-flow
// direct particle simulation (DSMC) that Leonardo Dagum implemented on
// the Thinking Machines CM-2 (RIACS TR 88.46 / Supercomputing '89),
// using the McDonald–Baganoff particle-level selection rule and
// 5-component permutation collision algorithm.
//
// Two interchangeable backends run the same physics:
//
//   - Reference: a sequential float64 implementation of the algorithm
//     (the role of the paper's hand-vectorized Cray-2 comparator);
//   - ConnectionMachine: a data-parallel fixed-point (Q9.23)
//     implementation on a simulated CM — virtual processors, scans,
//     sort-based pairing, router cost model — the paper's actual system,
//     built by NewConnectionMachine for the 2D tunnel scenarios.
//
// The public API is organised around scenarios and quantities: a
// Scenario (WedgeTunnel2D, EmptyTunnel2D, DoubleWedge2D, ShockTube3D)
// describes what to simulate, NewSimulation builds the matching 2D or 3D
// engine behind one Simulation type, and one sampling pass derives every
// macroscopic quantity (Density, VelocityX/Y/Z, Temperature, MachNumber)
// from the same moment accumulation.
//
// The quickest start:
//
//	sc := dsmc.PaperWedgeTunnel()
//	sc.ParticlesPerCell = 8 // scale down from the 512k-particle run
//	s, err := dsmc.NewSimulation(sc)
//	...
//	s.Run(600)                        // reach steady state
//	smp := s.Sample(300)              // one pass, all moments
//	field, _ := smp.Field(dsmc.Density)
//	fmt.Println(field.ShockAngleDeg())
//
//dsmclint:layer root
package dsmc

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dsmc/internal/cmsim"
	"dsmc/internal/phys"
	"dsmc/internal/run"
)

// Backend selects the implementation.
type Backend int

// Available backends.
const (
	// Reference is the sequential float64 implementation.
	Reference Backend = iota
	// ConnectionMachine is the data-parallel fixed-point implementation
	// with the CM-2 cost model.
	ConnectionMachine
)

// String names the backend.
func (b Backend) String() string {
	if b == ConnectionMachine {
		return "connection-machine"
	}
	return "reference"
}

// WedgeSpec describes the test body.
type WedgeSpec struct {
	LeadX    float64 // distance of the leading edge from the upstream boundary, cells
	Base     float64 // base length, cells
	AngleDeg float64 // ramp angle, degrees
}

// Precision selects the storage precision of the Reference backend's
// particle columns. All RNG draws, the probability rule, and the
// collision exchange are computed in float64 for either setting;
// Float32 narrows the stored columns — halving the memory traffic of
// the cell-major sweeps, the dominant cost at paper scale — and
// additionally accumulates the pair relative-speed sums feeding the
// selection rule in single precision (the streaming half of that
// kernel), so float32 physics deviates by that accumulation plus one
// rounding per column write.
type Precision string

// Supported storage precisions.
const (
	// Float64 is the default, bit-exact reference precision.
	Float64 Precision = "float64"
	// Float32 halves the particle-store memory traffic; physics
	// validation targets (shock angle, Rankine–Hugoniot rise) still hold
	// within slightly loosened tolerances.
	Float32 Precision = "float32"
)

// MolecularModel selects the interaction law for the selection rule.
type MolecularModel string

// Supported molecular models.
const (
	// Maxwell molecules (α = 4): the paper's model; the selection rule
	// depends only on density.
	Maxwell MolecularModel = "maxwell"
	// HardSphere molecules: the selection rule scales with relative speed.
	HardSphere MolecularModel = "hard-sphere"
)

// backend abstracts the implementations behind the minimal stepping
// surface every backend offers.
type backend interface {
	Step()
	Run(n int)
	NFlow() int
	NReservoir() int
	StepCount() int
	Collisions() int64
}

// Simulation is a running simulation of any scenario — the 2D wind
// tunnel (either backend, either precision), the double wedge, or the
// 3D shock tube — behind one type.
type Simulation struct {
	scen Scenario
	p    *plan
	ref  *run.Replica // the engine-backed Reference simulation; nil on the CM
	cm   *cmsim.Sim
	b    backend
	// timed counts the steps run through this Simulation, the ones its
	// phase times cover; a restored checkpoint's steps are not among them.
	timed int
}

// NewSimulation builds and initialises a simulation of any Scenario on
// the Reference backend.
func NewSimulation(sc Scenario) (*Simulation, error) {
	if sc == nil {
		return nil, errNilScenario
	}
	p, err := sc.lower()
	if err != nil {
		return nil, err
	}
	rp, err := run.Open(p.sc, p.seed)
	if err != nil {
		return nil, err
	}
	return &Simulation{scen: sc, p: p, ref: rp, b: rp}, nil
}

// errNilScenario is what every entry point that takes a Scenario returns
// for a nil one.
var errNilScenario = errors.New("dsmc: nil scenario")

// NewConnectionMachine builds the paper's own system: the wind tunnel on
// the fixed-point ConnectionMachine backend, modelled over physProcs
// physical processors (0 selects 1024; the paper's machine had 32k). The
// backend runs WedgeTunnel2D and EmptyTunnel2D only, and stores Q9.23
// fixed point, so Precision must be unset or Float64. It samples Density
// alone and cannot be checkpointed, which is why it is a constructor and
// not a scenario field: nothing a sweep spec can carry names it.
func NewConnectionMachine(sc Scenario, physProcs int) (*Simulation, error) {
	if sc == nil {
		return nil, errNilScenario
	}
	switch sc.(type) {
	case WedgeTunnel2D, EmptyTunnel2D:
	default:
		return nil, fmt.Errorf("dsmc: the ConnectionMachine backend runs %s and %s only, not %s",
			KindWedgeTunnel2D, KindEmptyTunnel2D, sc.Kind())
	}
	if physProcs < 0 {
		return nil, errors.New("dsmc: physProcs must not be negative")
	}
	p, err := sc.lower()
	if err != nil {
		return nil, err
	}
	if p.sc.Float32 {
		return nil, errors.New("dsmc: the ConnectionMachine backend is fixed-point; Precision must be unset or float64")
	}
	cs, err := cmsim.New(cmsim.Config{Sim: *p.sc.Sim, PhysProcs: physProcs})
	if err != nil {
		return nil, err
	}
	return &Simulation{scen: sc, p: p, cm: cs, b: cs}, nil
}

// Scenario returns the scenario the simulation was built from.
func (s *Simulation) Scenario() Scenario { return s.scen }

// Kind returns the running scenario's kind slug.
func (s *Simulation) Kind() string { return s.p.kind }

// Shape returns the field shape: grid dimensions NX, NY and NZ
// (NZ = 1 for 2D scenarios).
func (s *Simulation) Shape() (nx, ny, nz int) { return s.p.nx, s.p.ny, s.p.nz }

// Step advances one time step.
func (s *Simulation) Step() { s.b.Step(); s.timed++ }

// Run advances n time steps.
func (s *Simulation) Run(n int) { s.b.Run(n); s.timed += max(n, 0) }

// NFlow returns the number of particles in the flow.
func (s *Simulation) NFlow() int { return s.b.NFlow() }

// NReservoir returns the number of particles banked in the reservoir.
func (s *Simulation) NReservoir() int { return s.b.NReservoir() }

// StepCount returns completed time steps.
func (s *Simulation) StepCount() int { return s.b.StepCount() }

// Collisions returns the cumulative collision count.
func (s *Simulation) Collisions() int64 { return s.b.Collisions() }

// Backend reports which implementation is running.
func (s *Simulation) Backend() Backend {
	if s.cm != nil {
		return ConnectionMachine
	}
	return Reference
}

// PhaseSeconds returns the cumulative wall-clock seconds per algorithm
// phase (move+boundary, sort, select, collide). On the Reference backend
// cell indexing is part of move+boundary, not of sort as in the paper's
// table (see engine.Phase).
func (s *Simulation) PhaseSeconds() map[string]float64 {
	out := map[string]float64{}
	if s.ref != nil {
		for k, v := range s.ref.PhaseTimes() {
			out[k] = v.Seconds()
		}
		return out
	}
	book := s.cm.Machine().Cost()
	for _, name := range book.Phases() {
		out[name] = book.Phase(name).Wall.Seconds()
	}
	return out
}

// ModelPhaseCycles returns the Connection Machine cost model's cycle
// counts per phase; nil for the Reference backend.
func (s *Simulation) ModelPhaseCycles() map[string]int64 {
	if s.cm == nil {
		return nil
	}
	book := s.cm.Machine().Cost()
	out := map[string]int64{}
	for _, name := range book.Phases() {
		out[name] = book.Phase(name).Cycles
	}
	return out
}

// MicrosecondsPerParticleStep reports the average wall-clock cost per
// particle per time step this Simulation has run — the paper's headline
// metric (7.2 µs on the 32k-processor CM-2, 0.5 µs on the Cray-2).
func (s *Simulation) MicrosecondsPerParticleStep() float64 {
	if s.timed == 0 || s.NFlow() == 0 {
		return 0
	}
	var total time.Duration
	if s.ref != nil {
		for _, v := range s.ref.PhaseTimes() {
			total += v
		}
	} else {
		total = s.cm.Machine().Cost().TotalWall()
	}
	return total.Seconds() * 1e6 / float64(s.timed) / float64(s.NFlow())
}

// Theory returns the inviscid-theory references for this scenario —
// the numbers the paper validates against, extended with the
// Rankine–Hugoniot temperature rise and the piston-shock solution of
// the 3D tube.
type Theory struct {
	ShockAngleDeg    float64 // oblique shock angle (45° for the paper's case)
	DensityRatio     float64 // Rankine–Hugoniot rise (3.7 for the paper's case)
	TemperatureRatio float64 // Rankine–Hugoniot T2/T1 across the shock
	Knudsen          float64 // λ∞ / wedge base
	SpeedRatio       float64 // u∞/cm∞
	FreestreamU      float64 // cells per step
	Detached         bool    // no attached-shock solution exists
	// ShockSpeed is the 3D piston-shock propagation speed in cells per
	// step (0 for 2D scenarios).
	ShockSpeed float64
}

// Theory computes the validation references from the scenario.
func (s *Simulation) Theory() Theory {
	gamma := s.p.gamma
	if s.p.sc.Sim3 != nil {
		a1 := s.p.cm * math.Sqrt(gamma/2)
		ms := phys.PistonShockMach(s.p.pistonSpeed, a1, gamma)
		return Theory{
			ShockSpeed:       ms * a1,
			DensityRatio:     phys.RHDensityRatio(ms, gamma),
			TemperatureRatio: phys.RHTemperatureRatio(ms, gamma),
		}
	}
	t := Theory{
		SpeedRatio:  s.p.mach * math.Sqrt(gamma/2),
		FreestreamU: s.p.mach * s.p.cm * math.Sqrt(gamma/2),
	}
	if s.p.wedge == nil {
		return t
	}
	t.Knudsen = s.p.lambda / s.p.wedge.Base
	beta, err := phys.ObliqueShockBeta(s.p.mach, s.p.wedge.AngleDeg*math.Pi/180, gamma)
	if err != nil {
		t.Detached = true
		return t
	}
	m1n := phys.NormalMach(s.p.mach, beta)
	t.ShockAngleDeg = beta * 180 / math.Pi
	t.DensityRatio = phys.RHDensityRatio(m1n, gamma)
	t.TemperatureRatio = phys.RHTemperatureRatio(m1n, gamma)
	return t
}
