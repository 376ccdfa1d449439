package dsmc

import (
	"fmt"

	"dsmc/internal/grid"
	"dsmc/internal/sample"
)

// Quantity identifies a sampled macroscopic field. All quantities are
// derived from the same one-pass moment accumulation, so asking for
// several costs one sampling run, not several.
type Quantity string

// The derivable quantities. Each is normalised by its freestream value:
// density by ρ∞, velocities by the freestream most-probable speed cm∞,
// temperature by the freestream temperature (so undisturbed flow reads
// 1.0), and MachNumber is the local bulk speed over the local sound
// speed.
const (
	Density     Quantity = sample.QDensity
	VelocityX   Quantity = sample.QVelocityX
	VelocityY   Quantity = sample.QVelocityY
	VelocityZ   Quantity = sample.QVelocityZ
	Temperature Quantity = sample.QTemperature
	MachNumber  Quantity = sample.QMach
)

// Quantities lists every derivable quantity in stable order.
func Quantities() []Quantity {
	qs := sample.Quantities()
	out := make([]Quantity, len(qs))
	for i, q := range qs {
		out[i] = Quantity(q)
	}
	return out
}

// Sampling is the result of a sampling pass: the accumulated per-cell
// moments of `Steps()` consecutive time steps, from which any Quantity
// field is derived without re-running the simulation.
type Sampling struct {
	p     *plan
	acc   *sample.Accumulator
	steps int
	// countsOnly marks backends that expose per-cell counts but not
	// per-particle moments (the ConnectionMachine backend): only Density
	// is derivable.
	countsOnly bool
}

// Sample advances the simulation `steps` further steps while
// accumulating all per-cell moments (count, momentum, energy) in one
// pass — sharded over cell ranges on the backend's worker pool, with the
// same worker-count bit-identity contract as the simulation itself. Use
// the returned Sampling's Field to derive quantity fields.
func (s *Simulation) Sample(steps int) *Sampling {
	var acc *sample.Accumulator
	if s.ref != nil {
		acc = s.ref.NewAccumulator()
	} else {
		acc = sample.NewAccumulator(s.cm.Grid(), s.cm.Volumes(), s.p.nInf)
	}
	for k := 0; k < steps; k++ {
		s.Step()
		if s.ref != nil {
			s.ref.SampleInto(acc)
		} else {
			acc.AddCounts(s.cm.CellCounts())
		}
	}
	return &Sampling{p: s.p, acc: acc, steps: steps, countsOnly: s.ref == nil}
}

// Steps returns the number of time steps averaged into the sampling.
func (sp *Sampling) Steps() int { return sp.steps }

// Field derives one quantity field from the accumulated moments. The
// field carries the scenario's shape header (NX, NY, NZ) — 3D scenarios
// yield 3D fields whose Slice/ProjectXY/ProfileX views feed the 2D
// analysis and renderers. The ConnectionMachine backend accumulates
// per-cell counts only; asking it for anything but Density is an error.
func (sp *Sampling) Field(q Quantity) (*Field, error) {
	if sp.countsOnly && q != Density {
		return nil, fmt.Errorf("dsmc: the ConnectionMachine backend samples cell counts only; quantity %q requires the Reference backend", q)
	}
	cm, gamma := sp.p.norms()
	data, err := sp.acc.FieldOf(string(q), sample.Norms{Cm: cm, Gamma: gamma})
	if err != nil {
		return nil, err
	}
	return &Field{
		NX: sp.p.nx, NY: sp.p.ny, NZ: sp.p.nz,
		Quantity: q,
		Data:     data,
		grid:     grid.New(sp.p.nx, sp.p.ny),
		vols:     sp.acc.Vols,
		wedge:    sp.p.wedge,
		mach:     sp.p.mach,
	}, nil
}

// MustField is Field for quantities known to be derivable (e.g. Density
// on any backend); it panics on error. Convenient in examples and tests.
func (sp *Sampling) MustField(q Quantity) *Field {
	f, err := sp.Field(q)
	if err != nil {
		panic(err)
	}
	return f
}
