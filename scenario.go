package dsmc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"

	"dsmc/internal/geom"
	"dsmc/internal/molec"
	"dsmc/internal/phys"
	"dsmc/internal/run"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

// Scenario describes a complete simulation setup — geometry, freestream
// state, grid shape, and execution knobs — that NewSimulation can
// construct. The concrete scenarios are WedgeTunnel2D (the paper's wind
// tunnel), EmptyTunnel2D, DoubleWedge2D, and ShockTube3D.
//
// The scenario set is closed to this package (the lowering method is
// unexported); new geometries are added here, over the internal boundary
// machinery, rather than by external implementations.
type Scenario interface {
	// Kind returns the scenario's stable kind slug (e.g.
	// KindWedgeTunnel2D) — the tag ScenarioSpec serialises.
	Kind() string
	// Validate reports configuration errors at the public layer, with
	// descriptive messages (geometry that does not fit the grid fails
	// here, before any internal lowering).
	Validate() error
	// lower resolves the scenario to the internal build plan.
	lower() (*plan, error)
}

// Scenario kind slugs.
const (
	// KindWedgeTunnel2D is the paper's wind tunnel with a single wedge.
	KindWedgeTunnel2D = "wedge-tunnel-2d"
	// KindEmptyTunnel2D is the wind tunnel with no body (freestream
	// diagnostics).
	KindEmptyTunnel2D = "empty-tunnel-2d"
	// KindDoubleWedge2D is a wind tunnel with two disjoint wedges on the
	// lower wall — successive compression corners.
	KindDoubleWedge2D = "double-wedge-2d"
	// KindShockTube3D is the 3D piston-driven shock tube.
	KindShockTube3D = "shock-tube-3d"
)

// plan is a lowered scenario: everything NewSimulation, the sampling
// layer, and the sweep lowering need to build and analyse a simulation.
// It holds no per-cell array, so lowering costs O(1) in the grid size:
// the cut-cell volume table is built by the backend that steps the grid.
type plan struct {
	kind       string
	nx, ny, nz int // field shape (nz = 1 for 2D)

	// sc is the internal configuration the scenario lowers to — what
	// run.Open builds, at seed for NewSimulation and at a derived seed for
	// each sweep job (which also names it after its point).
	sc   run.Scenario
	seed uint64

	nInf        float64    // freestream particles per unit cell volume
	cm          float64    // freestream most-probable speed (normaliser)
	gamma       float64    // ratio of specific heats
	mach        float64    // freestream Mach number (0 for quiescent gas)
	lambda      float64    // freestream mean free path
	pistonSpeed float64    // 3D shock tube only
	wedge       *WedgeSpec // primary body, for the Field analysis
}

// norms returns the freestream normalisers of the derived quantities.
func (p *plan) norms() (cm, gamma float64) { return p.cm, p.gamma }

// modelOf lowers the public molecular-model enum.
func modelOf(m MolecularModel) (molec.Model, error) {
	switch m {
	case "", Maxwell:
		return molec.Maxwell(), nil
	case HardSphere:
		return molec.HardSphere(), nil
	}
	return molec.Model{}, fmt.Errorf("dsmc: unknown molecular model %q (want %q or %q)", m, Maxwell, HardSphere)
}

// validatePrecision rejects unknown precision tags.
func validatePrecision(p Precision) error {
	switch p {
	case "", Float64, Float32:
		return nil
	}
	return fmt.Errorf("dsmc: unknown precision %q (want %q or %q)", p, Float64, Float32)
}

// validateFlow rejects out-of-range freestream and execution knobs
// shared by every scenario.
func validateFlow(meanFreePath, particlesPerCell float64, model MolecularModel, prec Precision, workers int) error {
	if err := validatePrecision(prec); err != nil {
		return err
	}
	if _, err := modelOf(model); err != nil {
		return err
	}
	if meanFreePath < 0 {
		return errors.New("dsmc: MeanFreePath must not be negative (0 selects the near-continuum collide-all mode)")
	}
	if particlesPerCell <= 0 {
		return errors.New("dsmc: ParticlesPerCell must be positive")
	}
	if workers < 0 {
		return errors.New("dsmc: Workers must not be negative (0 selects runtime.NumCPU())")
	}
	return nil
}

// validateWedgeFit rejects a wedge whose triangle does not fit the grid,
// with a descriptive public-layer error (the internal validator's
// lower-level message never surfaces).
func validateWedgeFit(w WedgeSpec, nx, ny int, label string) error {
	if w.Base <= 0 {
		return fmt.Errorf("dsmc: %s base must be positive (got %g)", label, w.Base)
	}
	if w.AngleDeg <= 0 || w.AngleDeg >= 90 {
		return fmt.Errorf("dsmc: %s angle %g° out of range (0°, 90°)", label, w.AngleDeg)
	}
	if w.LeadX < 0 {
		return fmt.Errorf("dsmc: %s leading edge at x=%g lies upstream of the inlet (x=0)", label, w.LeadX)
	}
	if trail := w.LeadX + w.Base; trail > float64(nx) {
		return fmt.Errorf("dsmc: %s does not fit the grid: trailing edge at x=%.4g exceeds NX=%d (leading edge %g + base %g)",
			label, trail, nx, w.LeadX, w.Base)
	}
	if h := w.Base * math.Tan(w.AngleDeg*math.Pi/180); h >= float64(ny) {
		return fmt.Errorf("dsmc: %s does not fit the grid: apex height %.4g (base %g at %g°) reaches the upper wall NY=%d",
			label, h, w.Base, w.AngleDeg, ny)
	}
	return nil
}

// lower2D builds the shared 2D wind-tunnel plan.
func lower2D(kind string, nx, ny int, wedge, wedge2 *WedgeSpec, mach, thermalSpeed, meanFreePath, nPerCell float64, model MolecularModel, prec Precision, workers int, seed uint64) (*plan, error) {
	m, err := modelOf(model)
	if err != nil {
		return nil, err
	}
	var gw, gw2 *geom.Wedge
	if wedge != nil {
		gw = &geom.Wedge{LeadX: wedge.LeadX, Base: wedge.Base, Angle: wedge.AngleDeg * math.Pi / 180}
	}
	if wedge2 != nil {
		gw2 = &geom.Wedge{LeadX: wedge2.LeadX, Base: wedge2.Base, Angle: wedge2.AngleDeg * math.Pi / 180}
	}
	ic := sim.Config{
		NX: nx, NY: ny,
		Wedge:  gw,
		Wedge2: gw2,
		Free: phys.Freestream{
			Mach:   mach,
			Cm:     thermalSpeed,
			Lambda: meanFreePath,
			Gamma:  m.Gamma(),
		},
		Model:          m,
		NPerCell:       nPerCell,
		PlungerTrigger: 4,
		Seed:           seed,
		Workers:        workers,
	}
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	return &plan{
		kind: kind,
		nx:   nx, ny: ny, nz: 1,
		sc:     run.Scenario{Sim: &ic, Float32: prec == Float32},
		seed:   seed,
		nInf:   nPerCell,
		cm:     thermalSpeed,
		gamma:  m.Gamma(),
		mach:   mach,
		lambda: meanFreePath,
		wedge:  wedge,
	}, nil
}

// WedgeTunnel2D is the paper's scenario as a first-class value: the
// Mach-M wind tunnel with a single wedge on the lower wall. The wedge is
// required; use EmptyTunnel2D for no body.
type WedgeTunnel2D struct {
	// GridNX, GridNY are the cell-grid dimensions (the paper: 98×64).
	GridNX, GridNY int
	// Wedge is the body.
	Wedge WedgeSpec
	// Mach is the freestream Mach number (> 1).
	Mach float64
	// ThermalSpeed is the freestream most-probable molecular speed,
	// cells per time step.
	ThermalSpeed float64
	// MeanFreePath is the freestream mean free path in cells
	// (0 = near-continuum collide-all mode).
	MeanFreePath float64
	// ParticlesPerCell is the freestream simulator-particle density.
	ParticlesPerCell float64
	// Model is the molecular model (default Maxwell).
	Model MolecularModel
	// Precision selects the storage precision (default Float64).
	Precision Precision
	// Workers is the CPU worker count (0 = runtime.NumCPU()); results
	// are bit-identical for any value.
	Workers int
	// Seed seeds all randomness.
	Seed uint64
}

// PaperWedgeTunnel returns the configuration of the paper's simulations:
// a 98×64 grid, the 30° wedge placed 20 cells from the upstream boundary
// with a 25-cell base, Mach 4, and a mean free path of 0.5 cells
// (the rarefied case of figures 4–6; set MeanFreePath = 0 for the
// near-continuum case of figures 1–3). ParticlesPerCell = 75 corresponds
// to the full 512k-particle run; scale it down for laptop-scale runs.
func PaperWedgeTunnel() WedgeTunnel2D {
	return WedgeTunnel2D{
		GridNX: 98, GridNY: 64,
		Wedge:            WedgeSpec{LeadX: 20, Base: 25, AngleDeg: 30},
		Mach:             4,
		ThermalSpeed:     0.125,
		MeanFreePath:     0.5,
		ParticlesPerCell: 75,
		Seed:             1988,
	}
}

// Kind returns KindWedgeTunnel2D.
func (s WedgeTunnel2D) Kind() string { return KindWedgeTunnel2D }

// Validate reports configuration errors.
func (s WedgeTunnel2D) Validate() error {
	if s.GridNX <= 0 || s.GridNY <= 0 {
		return errors.New("dsmc: grid dimensions must be positive")
	}
	if err := validateFlow(s.MeanFreePath, s.ParticlesPerCell, s.Model, s.Precision, s.Workers); err != nil {
		return err
	}
	return validateWedgeFit(s.Wedge, s.GridNX, s.GridNY, "wedge")
}

func (s WedgeTunnel2D) lower() (*plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := s.Wedge
	return lower2D(s.Kind(), s.GridNX, s.GridNY, &w, nil,
		s.Mach, s.ThermalSpeed, s.MeanFreePath, s.ParticlesPerCell,
		s.Model, s.Precision, s.Workers, s.Seed)
}

// EmptyTunnel2D is the wind tunnel with no body: undisturbed freestream
// flow, the null scenario for calibration and statistics checks (every
// sampled density must read 1.0).
type EmptyTunnel2D struct {
	GridNX, GridNY   int
	Mach             float64
	ThermalSpeed     float64
	MeanFreePath     float64
	ParticlesPerCell float64
	Model            MolecularModel
	Precision        Precision
	Workers          int
	Seed             uint64
}

// Kind returns KindEmptyTunnel2D.
func (s EmptyTunnel2D) Kind() string { return KindEmptyTunnel2D }

// Validate reports configuration errors.
func (s EmptyTunnel2D) Validate() error {
	if s.GridNX <= 0 || s.GridNY <= 0 {
		return errors.New("dsmc: grid dimensions must be positive")
	}
	return validateFlow(s.MeanFreePath, s.ParticlesPerCell, s.Model, s.Precision, s.Workers)
}

func (s EmptyTunnel2D) lower() (*plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return lower2D(s.Kind(), s.GridNX, s.GridNY, nil, nil,
		s.Mach, s.ThermalSpeed, s.MeanFreePath, s.ParticlesPerCell,
		s.Model, s.Precision, s.Workers, s.Seed)
}

// DoubleWedge2D is a wind tunnel with two disjoint wedges on the lower
// wall — successive compression corners, each launching its own oblique
// shock (the downstream wedge sits in the processed flow of the first).
// Built entirely from the existing boundary machinery: both bodies use
// the same specular reflection and fractional cell volumes as the
// paper's single wedge.
type DoubleWedge2D struct {
	GridNX, GridNY int
	// Wedge is the upstream body; Wedge2 the downstream one. Their base
	// intervals on the lower wall must not overlap.
	Wedge, Wedge2    WedgeSpec
	Mach             float64
	ThermalSpeed     float64
	MeanFreePath     float64
	ParticlesPerCell float64
	Model            MolecularModel
	Precision        Precision
	Workers          int
	Seed             uint64
}

// Kind returns KindDoubleWedge2D.
func (s DoubleWedge2D) Kind() string { return KindDoubleWedge2D }

// Validate reports configuration errors, including overlapping bodies.
func (s DoubleWedge2D) Validate() error {
	if s.GridNX <= 0 || s.GridNY <= 0 {
		return errors.New("dsmc: grid dimensions must be positive")
	}
	if err := validateFlow(s.MeanFreePath, s.ParticlesPerCell, s.Model, s.Precision, s.Workers); err != nil {
		return err
	}
	if err := validateWedgeFit(s.Wedge, s.GridNX, s.GridNY, "first wedge"); err != nil {
		return err
	}
	if err := validateWedgeFit(s.Wedge2, s.GridNX, s.GridNY, "second wedge"); err != nil {
		return err
	}
	if s.Wedge2.LeadX < s.Wedge.LeadX+s.Wedge.Base && s.Wedge.LeadX < s.Wedge2.LeadX+s.Wedge2.Base {
		return fmt.Errorf("dsmc: wedges overlap: first spans x=[%g, %g], second x=[%g, %g]",
			s.Wedge.LeadX, s.Wedge.LeadX+s.Wedge.Base, s.Wedge2.LeadX, s.Wedge2.LeadX+s.Wedge2.Base)
	}
	return nil
}

func (s DoubleWedge2D) lower() (*plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w, w2 := s.Wedge, s.Wedge2
	return lower2D(s.Kind(), s.GridNX, s.GridNY, &w, &w2,
		s.Mach, s.ThermalSpeed, s.MeanFreePath, s.ParticlesPerCell,
		s.Model, s.Precision, s.Workers, s.Seed)
}

// ShockTube3D is the 3D extension (the paper's future work): a closed
// box of quiescent gas with a piston driving in from the low-x end at
// constant speed, launching a normal shock whose speed and density rise
// follow the exact Rankine–Hugoniot piston solution.
type ShockTube3D struct {
	// GridNX, GridNY, GridNZ are the box dimensions in cells. GridNX
	// should be long (shock propagation direction); GridNY/GridNZ can be
	// slender.
	GridNX, GridNY, GridNZ int
	// ThermalSpeed is the quiescent gas's most probable molecular speed,
	// cells per time step.
	ThermalSpeed float64
	// MeanFreePath is the quiescent mean free path in cells
	// (0 = collide-all).
	MeanFreePath float64
	// PistonSpeed is the piston velocity in +x, cells per step.
	PistonSpeed float64
	// ParticlesPerCell is the initial particle density.
	ParticlesPerCell float64
	// Model is the molecular model (default Maxwell).
	Model MolecularModel
	// Precision selects the storage precision (default Float64).
	Precision Precision
	// Workers is the CPU worker count (0 = runtime.NumCPU()).
	Workers int
	// Seed seeds all randomness.
	Seed uint64
}

// Kind returns KindShockTube3D.
func (s ShockTube3D) Kind() string { return KindShockTube3D }

// Validate reports configuration errors.
func (s ShockTube3D) Validate() error {
	if s.GridNX <= 0 || s.GridNY <= 0 || s.GridNZ <= 0 {
		return errors.New("dsmc: grid dimensions must be positive")
	}
	if s.ThermalSpeed <= 0 {
		return errors.New("dsmc: ThermalSpeed must be positive")
	}
	if s.PistonSpeed < 0 {
		return errors.New("dsmc: PistonSpeed must not be negative")
	}
	return validateFlow(s.MeanFreePath, s.ParticlesPerCell, s.Model, s.Precision, s.Workers)
}

func (s ShockTube3D) lower() (*plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, err := modelOf(s.Model)
	if err != nil {
		return nil, err
	}
	ic := sim3.Config{
		NX: s.GridNX, NY: s.GridNY, NZ: s.GridNZ,
		Cm:          s.ThermalSpeed,
		Lambda:      s.MeanFreePath,
		PistonSpeed: s.PistonSpeed,
		NPerCell:    s.ParticlesPerCell,
		Model:       m,
		Seed:        s.Seed,
		Workers:     s.Workers,
	}
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	return &plan{
		kind: s.Kind(),
		nx:   s.GridNX, ny: s.GridNY, nz: s.GridNZ,
		sc:          run.Scenario{Sim3: &ic, Float32: s.Precision == Float32},
		seed:        s.Seed,
		nInf:        s.ParticlesPerCell,
		cm:          s.ThermalSpeed,
		gamma:       m.Gamma(),
		lambda:      s.MeanFreePath,
		pistonSpeed: s.PistonSpeed,
	}, nil
}

// ScenarioSpec is the serialisable form of a Scenario: the kind slug
// plus the scenario struct's fields as raw JSON. It is what sweep specs
// and the dsmcd job server carry over the wire.
type ScenarioSpec struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// scenarioKinds maps each kind slug to its scenario type: the one list
// of what a ScenarioSpec serialises and decodes to.
var scenarioKinds = map[string]reflect.Type{
	KindWedgeTunnel2D: reflect.TypeFor[WedgeTunnel2D](),
	KindEmptyTunnel2D: reflect.TypeFor[EmptyTunnel2D](),
	KindDoubleWedge2D: reflect.TypeFor[DoubleWedge2D](),
	KindShockTube3D:   reflect.TypeFor[ShockTube3D](),
}

// NewScenarioSpec serialises a scenario.
func NewScenarioSpec(sc Scenario) (*ScenarioSpec, error) {
	if sc == nil {
		return nil, errNilScenario
	}
	if scenarioKinds[sc.Kind()] != reflect.TypeOf(sc) {
		return nil, fmt.Errorf("dsmc: cannot serialise scenario kind %q", sc.Kind())
	}
	raw, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	return &ScenarioSpec{Kind: sc.Kind(), Params: raw}, nil
}

// Scenario deserialises the spec back into its concrete scenario value.
// Unknown kinds and unknown fields are rejected.
func (s ScenarioSpec) Scenario() (Scenario, error) {
	t, ok := scenarioKinds[s.Kind]
	if !ok {
		return nil, fmt.Errorf("dsmc: unknown scenario kind %q", s.Kind)
	}
	params := s.Params
	if len(params) == 0 {
		params = json.RawMessage("{}")
	}
	v := reflect.New(t)
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v.Interface()); err != nil {
		return nil, fmt.Errorf("dsmc: scenario %q params: %w", s.Kind, err)
	}
	return v.Elem().Interface().(Scenario), nil
}
