// Package sample provides macroscopic sampling of the particle field: the
// time-averaged cell density (with the paper's fractional-volume
// correction at wedge-cut cells), velocity and temperature moments, and
// the analysis used for validation — shock-front location, shock-angle
// fit and shock thickness — plus contour extraction and renderers for the
// density figures.
//
//dsmclint:layer sample
//dsmclint:scope determinism
//dsmclint:scope rng-discipline
package sample

import (
	"fmt"
	"math"

	"dsmc/internal/grid"
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/phys"
)

// Accumulator collects time-averaged per-cell moments. It is shape-
// agnostic: the cell count is all it knows about the grid, so the same
// accumulator serves the 2D wind tunnel and the 3D shock tube (and the
// per-plane layout of any future domain).
type Accumulator struct {
	Cells int
	Vols  []float64 // per-cell gas volumes; nil means unit volumes
	NInf  float64   // freestream particles per unit volume (density normaliser)
	Steps int

	count []float64 // Σ particles
	momX  []float64 // Σ u
	momY  []float64 // Σ v
	momZ  []float64 // Σ w
	enrg  []float64 // Σ (u²+v²+w²+r1²+r2²)
}

// NewAccumulator creates an accumulator over the given 2D grid; vols are
// the per-cell gas volumes and nInf the freestream number density.
func NewAccumulator(g grid.Grid, vols []float64, nInf float64) *Accumulator {
	return NewAccumulatorCells(g.Cells(), vols, nInf)
}

// NewAccumulatorCells creates an accumulator over `cells` cells of any
// dimensionality; vols may be nil for unit cell volumes everywhere.
func NewAccumulatorCells(cells int, vols []float64, nInf float64) *Accumulator {
	return &Accumulator{
		Cells: cells, Vols: vols, NInf: nInf,
		count: make([]float64, cells),
		momX:  make([]float64, cells),
		momY:  make([]float64, cells),
		momZ:  make([]float64, cells),
		enrg:  make([]float64, cells),
	}
}

// vol returns the gas volume of cell c (unit when no volume table).
func (a *Accumulator) vol(c int) float64 {
	if a.Vols == nil {
		return 1
	}
	return a.Vols[c]
}

// addParticle accumulates the moments of particle i into cell c. The
// sums are kept in float64 for either storage precision; the float64
// instantiation reproduces the pre-generic accumulation bit for bit.
func addParticle[F kernel.Float](a *Accumulator, st *particle.Store[F], c int32, i int) {
	u, v, w := float64(st.U[i]), float64(st.V[i]), float64(st.W[i])
	r1, r2 := float64(st.R1[i]), float64(st.R2[i])
	a.count[c]++
	a.momX[c] += u
	a.momY[c] += v
	a.momZ[c] += w
	a.enrg[c] += u*u + v*v + w*w + r1*r1 + r2*r2
}

// AddFlow accumulates one snapshot of the store (cell indices must be
// current, i.e. call after the step's sort).
//
//dsmclint:allow exports the particle-order sampling oracle AddFlowCellMajor is checked against
func AddFlow[F kernel.Float](a *Accumulator, st *particle.Store[F]) {
	n := st.Len()
	for i := 0; i < n; i++ {
		addParticle(a, st, st.Cell[i], i)
	}
	a.Steps++
}

// AddFlowCellMajor accumulates one snapshot of a cell-major store (the
// layout the step's sort produces): cell c's particles are the contiguous
// store indices [cellStart[c], cellStart[c+1]), so each cell's moments
// stream a contiguous slice of every column. parFor shards the cell range
// given the bucket boundaries (pass a serial loop or a worker pool's
// ForCells); workers touch disjoint cells and the per-cell summation order
// follows the store order, so the accumulation is race-free and
// bit-identical for any sharding.
//
//dsmc:hotpath
func AddFlowCellMajor[F kernel.Float](a *Accumulator, st *particle.Store[F], cellStart []int32, parFor func(start []int32, f func(w, clo, chi int))) {
	//dsmclint:allow hotpath-alloc one closure per sample call (not per particle); the capture set varies per call so it cannot be prebuilt here
	parFor(cellStart, func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := int(cellStart[c]), int(cellStart[c+1])
			if lo == hi {
				continue
			}
			// The cell's five sums ride in locals across its span and are
			// stored once: addParticle's additions in addParticle's order,
			// without its five read-modify-writes of memory per particle.
			cnt, mx, my, mz, en := a.count[c], a.momX[c], a.momY[c], a.momZ[c], a.enrg[c]
			for i := lo; i < hi; i++ {
				u, v, w := float64(st.U[i]), float64(st.V[i]), float64(st.W[i])
				r1, r2 := float64(st.R1[i]), float64(st.R2[i])
				cnt++
				mx += u
				my += v
				mz += w
				en += u*u + v*v + w*w + r1*r1 + r2*r2
			}
			a.count[c], a.momX[c], a.momY[c], a.momZ[c], a.enrg[c] = cnt, mx, my, mz, en
		}
	})
	a.Steps++
}

// Raw exposes the live moment columns (Σcount, Σu, Σv, Σw, Σenergy) for
// checkpointing: a writer streams them out, a reader copies a
// checkpointed snapshot back in. The slices alias the accumulator's
// storage — treat them as owned by the accumulator.
func (a *Accumulator) Raw() (count, momX, momY, momZ, enrg []float64) {
	return a.count, a.momX, a.momY, a.momZ, a.enrg
}

// AddCounts accumulates a per-cell count snapshot only (density sampling
// for backends that do not expose per-particle moments cheaply).
func (a *Accumulator) AddCounts(counts []int32) {
	for c, v := range counts {
		a.count[c] += float64(v)
	}
	a.Steps++
}

// Density returns the time-averaged density field normalised by the
// freestream (ρ/ρ∞ = 1 in undisturbed flow). Cells with zero gas volume
// return 0. The fractional cell volume enters here, exactly as the paper
// prescribes for wedge-cut cells.
func (a *Accumulator) Density() []float64 {
	out := make([]float64, len(a.count))
	if a.Steps == 0 {
		return out
	}
	for c := range out {
		if a.vol(c) <= 0 {
			continue
		}
		out[c] = a.count[c] / (float64(a.Steps) * a.vol(c) * a.NInf)
	}
	return out
}

// thermal returns cell c's mean thermal (peculiar) energy per degree of
// freedom: the mean square 5-component velocity minus the square of the
// mean bulk velocity, over 5 dof. Negative rounding residue clamps to 0.
func (a *Accumulator) thermal(c int) float64 {
	ux := a.momX[c] / a.count[c]
	uy := a.momY[c] / a.count[c]
	uz := a.momZ[c] / a.count[c]
	meanSq := a.enrg[c] / a.count[c]
	therm := meanSq - ux*ux - uy*uy - uz*uz
	if therm < 0 {
		therm = 0
	}
	return therm / 5
}

// Quantity slugs — the shared vocabulary between the public sampling
// API, the orchestration layer, and the job server. Every quantity is
// derived from the same one-pass moment accumulation.
const (
	QDensity     = "density"     // ρ/ρ∞
	QVelocityX   = "velocity-x"  // mean u / cm∞
	QVelocityY   = "velocity-y"  // mean v / cm∞
	QVelocityZ   = "velocity-z"  // mean w / cm∞
	QTemperature = "temperature" // T/T∞ (thermal energy per dof over cm∞²/2)
	QMach        = "mach"        // local bulk speed over local sound speed
)

// Quantities lists every derivable quantity slug (stable order).
func Quantities() []string {
	return []string{QDensity, QVelocityX, QVelocityY, QVelocityZ, QTemperature, QMach}
}

// KnownQuantity reports whether q is a derivable quantity slug.
func KnownQuantity(q string) bool {
	for _, k := range Quantities() {
		if k == q {
			return true
		}
	}
	return false
}

// Norms carries the freestream normalisers the derived quantities are
// reported in: velocities in units of the freestream most-probable
// speed Cm, temperature in units of the freestream temperature proxy
// Cm²/2, and the local Mach number via the ratio of specific heats.
type Norms struct {
	Cm    float64
	Gamma float64
}

// FieldOf derives one normalised quantity field from the accumulated
// moments. Cells without samples (or without gas volume, for density)
// read 0. The derivation is pure arithmetic over the deterministic
// moment sums, so every quantity inherits the accumulation's worker-
// count bit-identity.
func (a *Accumulator) FieldOf(q string, n Norms) ([]float64, error) {
	switch q {
	case QDensity:
		return a.Density(), nil
	case QVelocityX:
		return a.meanOver(a.momX, n.Cm), nil
	case QVelocityY:
		return a.meanOver(a.momY, n.Cm), nil
	case QVelocityZ:
		return a.meanOver(a.momZ, n.Cm), nil
	case QTemperature:
		tInf := n.Cm * n.Cm / 2
		out := make([]float64, len(a.count))
		for c := range out {
			if a.count[c] > 0 {
				out[c] = a.thermal(c) / tInf
			}
		}
		return out, nil
	case QMach:
		out := make([]float64, len(a.count))
		for c := range out {
			if a.count[c] <= 0 {
				continue
			}
			ux := a.momX[c] / a.count[c]
			uy := a.momY[c] / a.count[c]
			uz := a.momZ[c] / a.count[c]
			t := a.thermal(c)
			if t <= 0 {
				continue
			}
			// Sound speed a² = γ·(kT/m), with kT/m = the thermal proxy.
			out[c] = math.Sqrt((ux*ux + uy*uy + uz*uz) / (n.Gamma * t))
		}
		return out, nil
	}
	return nil, fmt.Errorf("sample: unknown quantity %q", q)
}

// meanOver returns mom/count normalised by norm (0 where no samples).
func (a *Accumulator) meanOver(mom []float64, norm float64) []float64 {
	out := make([]float64, len(a.count))
	for c := range out {
		if a.count[c] > 0 {
			out[c] = mom[c] / a.count[c] / norm
		}
	}
	return out
}

// At reads a field at cell coordinates.
func At(field []float64, g grid.Grid, ix, iy int) float64 {
	return field[g.Index(ix, iy)]
}

// Window copies the sub-field [x0,x1)×[y0,y1) (the stagnation-region zoom
// of figures 3 and 6).
func Window(field []float64, g grid.Grid, x0, y0, x1, y1 int) ([]float64, int, int) {
	w, h := x1-x0, y1-y0
	out := make([]float64, w*h)
	for iy := y0; iy < y1; iy++ {
		for ix := x0; ix < x1; ix++ {
			out[(iy-y0)*w+(ix-x0)] = field[g.Index(ix, iy)]
		}
	}
	return out, w, h
}

// CrossingFromAbove scans column ix from the top down and returns the y
// (cell-centre units) where the density first rises through level,
// linearly interpolated; returns -1 if no crossing.
func CrossingFromAbove(field []float64, g grid.Grid, ix int, level float64) float64 {
	prev := At(field, g, ix, g.NY-1)
	for iy := g.NY - 2; iy >= 0; iy-- {
		cur := At(field, g, ix, iy)
		if prev < level && cur >= level {
			// Interpolate between cell centres iy+0.5 and iy+1.5.
			t := (level - prev) / (cur - prev)
			return float64(iy) + 1.5 - t
		}
		prev = cur
	}
	return -1
}

// ShockFront locates the shock above the wedge ramp: for each column in
// [x0, x1) it finds the downward crossing of the half-rise density level
// (1+postShock)/2 and returns the (x, y) points.
func ShockFront(field []float64, g grid.Grid, x0, x1 int, postShock float64) (xs, ys []float64) {
	level := (1 + postShock) / 2
	for ix := x0; ix < x1; ix++ {
		y := CrossingFromAbove(field, g, ix, level)
		if y >= 0 {
			xs = append(xs, float64(ix)+0.5)
			ys = append(ys, y)
		}
	}
	return xs, ys
}

// FitLine least-squares fits y = a + b·x and returns (a, b).
func FitLine(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}

// ShockAngle fits the shock front over [x0, x1) and returns the shock
// angle in radians (the paper's validation: 45° for Mach 4 over the 30°
// wedge).
func ShockAngle(field []float64, g grid.Grid, x0, x1 int, postShock float64) float64 {
	xs, ys := ShockFront(field, g, x0, x1, postShock)
	if len(xs) < 2 {
		return math.NaN()
	}
	_, slope := FitLine(xs, ys)
	return math.Atan(slope)
}

// WedgePostShockRatio returns the Rankine–Hugoniot post-shock density
// ratio for a wedge flow — the reference level front detection keys on —
// falling back to 3 when no attached-shock solution exists. This is the
// one place the convention lives; the public Field analysis and the
// orchestration layer's per-replica fits both use it.
func WedgePostShockRatio(mach, wedgeAngleRad float64) float64 {
	beta, err := phys.ObliqueShockBeta(mach, wedgeAngleRad, phys.GammaDiatomic)
	if err != nil {
		return 3
	}
	return phys.RHDensityRatio(phys.NormalMach(mach, beta), phys.GammaDiatomic)
}

// WedgeShockAngle fits the oblique-shock angle (radians) of a wedge-flow
// density field over the standard ramp window — 6 cells behind the
// leading edge to 2 cells before the trailing edge, the stretch where
// the shock is straight and attached. NaN when no front is found.
func WedgeShockAngle(field []float64, g grid.Grid, leadX, base, wedgeAngleRad, mach float64) float64 {
	x0 := int(leadX) + 6
	x1 := int(leadX + base - 2)
	return ShockAngle(field, g, x0, x1, WedgePostShockRatio(mach, wedgeAngleRad))
}

// ShockThickness measures the 10–90% rise distance of the density through
// the shock along column ix, returning the distance along the shock
// normal (vertical distance × cos β). The paper reads 3 cell widths in
// the near-continuum case and 5 in the rarefied case.
func ShockThickness(field []float64, g grid.Grid, ix int, postShock, beta float64) float64 {
	lo := 1 + 0.1*(postShock-1)
	hi := 1 + 0.9*(postShock-1)
	yHi := CrossingFromAbove(field, g, ix, lo) // upper edge (low density)
	yLo := CrossingFromAbove(field, g, ix, hi) // lower edge (high density)
	if yHi < 0 || yLo < 0 || yHi <= yLo {
		return math.NaN()
	}
	return (yHi - yLo) * math.Cos(beta)
}

// RegionMean averages the field over cells [x0,x1)×[y0,y1) with positive
// volume.
func RegionMean(field []float64, g grid.Grid, vols []float64, x0, y0, x1, y1 int) float64 {
	var sum float64
	n := 0
	for iy := y0; iy < y1; iy++ {
		for ix := x0; ix < x1; ix++ {
			c := g.Index(ix, iy)
			if vols[c] > 0 {
				sum += field[c]
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
