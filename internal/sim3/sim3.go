// Package sim3 extends the particle simulation to three dimensions — the
// first item of the paper's future-work list. The geometry is a shock
// tube: a box of gas at rest with a piston (the 3D analogue of the
// paper's plunger) driving in from the low-x end at constant speed. A
// normal shock detaches from the piston and runs ahead of it; its speed
// and the density rise behind it are classical Rankine–Hugoniot results,
// giving the 3D code an exact validation target just as the oblique shock
// validates the 2D code.
//
// The phase pipeline is the shared cell-major engine (internal/engine);
// this package supplies only the 3D parts — box grid indexing, the
// piston + five specular walls — as the engine's Domain, plus
// configuration and the shock diagnostics. SimOf[float64] is the
// reference (bit-identical to the pre-unification backend, pinned by
// internal/golden); NewOf[float32] runs the same physics at half the
// memory traffic.
package sim3

import (
	"errors"
	"math"

	"dsmc/internal/collide"
	"dsmc/internal/engine"
	"dsmc/internal/kernel"
	"dsmc/internal/molec"
	"dsmc/internal/par"
	"dsmc/internal/particle"
	"dsmc/internal/phys"
	"dsmc/internal/rng"
)

// Grid3 is an NX×NY×NZ arrangement of unit cube cells.
type Grid3 struct {
	NX, NY, NZ int
}

// Cells returns the total cell count.
func (g Grid3) Cells() int { return g.NX * g.NY * g.NZ }

// Index returns the distinct index of cell (ix, iy, iz).
func (g Grid3) Index(ix, iy, iz int) int { return (iz*g.NY+iy)*g.NX + ix }

// clampCell floors a coordinate to its cell index, clamping edge
// coordinates into [0, n). Package-level (rather than a closure inside
// CellOf) so the per-particle cell lookup of the move phase carries no
// closure construction.
func clampCell(v float64, n int) int {
	i := int(math.Floor(v))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// CellOf returns the cell containing a position, clamping edge
// coordinates inward.
func (g Grid3) CellOf(x, y, z float64) int {
	return g.Index(clampCell(x, g.NX), clampCell(y, g.NY), clampCell(z, g.NZ))
}

// Config specifies the 3D shock-tube simulation.
type Config struct {
	// NX, NY, NZ are the box dimensions in cells. NX should be long
	// (shock propagation direction); NY, NZ can be slender.
	NX, NY, NZ int
	// Cm is the most probable thermal speed of the quiescent gas,
	// cells/step.
	Cm float64
	// Lambda is the mean free path of the quiescent gas in cells
	// (0 = collide-all).
	Lambda float64
	// PistonSpeed is the piston velocity in +x, cells/step.
	PistonSpeed float64
	// NPerCell is the initial particle density.
	NPerCell float64
	// Model is the molecular model (default Maxwell, diatomic).
	Model molec.Model
	// Seed seeds the randomness.
	Seed uint64
	// Workers is the CPU worker count the phases are sharded over; 0
	// selects runtime.NumCPU(). As in the 2D reference backend, every
	// cell draws from its own counter-based stream, so results are
	// bit-identical for any worker count.
	Workers int
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.NX <= 0 || c.NY <= 0 || c.NZ <= 0 {
		return errors.New("sim3: box dimensions must be positive")
	}
	if c.Cm <= 0 || c.NPerCell <= 0 {
		return errors.New("sim3: thermal speed and density must be positive")
	}
	if c.PistonSpeed < 0 {
		return errors.New("sim3: piston must not retreat")
	}
	return nil
}

// Theory returns the exact piston-shock solution: the shock speed Ms·a1
// and the Rankine–Hugoniot density ratio at the shock Mach number Ms.
func (c *Config) Theory() (shockSpeed, densityRatio float64) {
	gamma := c.model().Gamma()
	a1 := c.Cm * math.Sqrt(gamma/2)
	ms := phys.PistonShockMach(c.PistonSpeed, a1, gamma)
	return ms * a1, phys.RHDensityRatio(ms, gamma)
}

func (c *Config) model() molec.Model {
	if c.Model.Name == "" {
		return molec.Maxwell()
	}
	return c.Model
}

// layout3D is the 3D backend's stream-domain encoding, preserved exactly
// from the pre-unification code: two domains per step — the in-cell
// shuffle and the collide stream, which the fused selection also draws
// from. Select aliases Collide, which makes the engine fuse selection
// into the collide pass; Wall aliases it too but is never consumed
// (specular walls).
var layout3D = engine.StreamLayout{NumDomains: 2, Sort: 0, Select: 1, Collide: 1, Wall: 1}

// The float64 step is instantiated here, in a package that imports
// collide. Instantiated only in internal/run, which does not, the step's
// kernel.ExchangePair calls collide.Exchange instead of inlining it, at
// both precisions (TestCompilerDecisions fails).
var _ *SimOf[float64]

// SimOf is a running 3D shock-tube simulation at storage precision F,
// on the shared cell-major engine (in-place sort, in-cell shuffle,
// allocation-free steady-state Step), embedded: the stepping surface —
// Step (3D motion, piston + five specular walls, 3D cell sort, selection
// and collision), Run, Store, SampleInto, … — is the engine's own; what
// is declared here is what the tube adds.
type SimOf[F kernel.Float] struct {
	*engine.Engine[F]
	cfg  Config
	grid Grid3
	dom  *tubeDomain[F]
}

// NewOf builds and fills the shock tube with gas at rest, at storage
// precision F.
func NewOf[F kernel.Float](cfg Config) (*SimOf[F], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Model = cfg.model()
	g := Grid3{cfg.NX, cfg.NY, cfg.NZ}
	n := int(cfg.NPerCell * float64(g.Cells()))
	free := phys.Freestream{Mach: 2, Cm: cfg.Cm, Lambda: cfg.Lambda, Gamma: cfg.Model.Gamma()}

	pool := par.New(cfg.Workers)
	dom := &tubeDomain[F]{
		grid:  g,
		w:     float64(cfg.NX),
		h:     float64(cfg.NY),
		d:     float64(cfg.NZ),
		speed: cfg.PistonSpeed,
	}
	store := particle.NewStore3[F](n)
	eng := engine.New(engine.Config{
		Cells: g.Cells(),
		Seed:  cfg.Seed,
		Rule: collide.Rule{
			Model:      cfg.Model,
			PInf:       free.SelectionPInf(),
			NInf:       cfg.NPerCell,
			GInf:       math.Sqrt2 * free.MeanSpeed(),
			CollideAll: cfg.Lambda <= 0,
		},
		Layout: layout3D,
	}, dom, pool, store)

	r := rng.NewStream(cfg.Seed)
	sigma := free.ComponentSigma()
	store.SetLen(n)
	for i := 0; i < n; i++ {
		store.X[i] = F(r.Float64() * float64(cfg.NX))
		store.Y[i] = F(r.Float64() * float64(cfg.NY))
		store.Z[i] = F(r.Float64() * float64(cfg.NZ))
		store.SetVel(i, collide.State5{
			r.Gaussian(0, sigma), r.Gaussian(0, sigma), r.Gaussian(0, sigma),
			r.Gaussian(0, sigma), r.Gaussian(0, sigma),
		})
	}
	return &SimOf[F]{Engine: eng, cfg: cfg, grid: g, dom: dom}, nil
}

// N returns the particle count.
func (s *SimOf[F]) N() int { return s.Store().Len() }

// NFlow returns the particle count — the whole tube is "the flow"; the
// name matches the 2D backend so the public layer can treat both engine
// backends uniformly.
func (s *SimOf[F]) NFlow() int { return s.N() }

// NReservoir returns 0: the shock tube is closed and banks no particles.
func (s *SimOf[F]) NReservoir() int { return 0 }

// Config returns the configuration the simulation was built from, with
// the default molecular model NewOf resolves filled in.
func (s *SimOf[F]) Config() Config { return s.cfg }

// Grid returns the box grid.
func (s *SimOf[F]) Grid() Grid3 { return s.grid }

// PistonX returns the piston position.
func (s *SimOf[F]) PistonX() float64 { return s.dom.pistonX }

// tubeDomain is the engine Domain of the shock tube: the piston + five
// specular walls, with the box grid indexing folded into the same sweep.
// The boundaries consume no randomness, so the sharded pass is trivially
// deterministic.
type tubeDomain[F kernel.Float] struct {
	grid    Grid3
	w, h, d float64
	speed   float64
	pistonX float64
}

// PreMove advances the piston.
func (t *tubeDomain[F]) PreMove() { t.pistonX += t.speed }

// Boundary applies the piston face (specular in the piston frame) and
// the five fixed specular walls to the just-advanced particles [lo, hi)
// and leaves their cell index current — the one sweep of the step that
// reads positions; a particle inside the box stores nothing but Cell.
// The geometry runs in float64 and the columns round once on write-back,
// so the cell is taken from the position as stored.
//
//dsmc:hotpath
func (t *tubeDomain[F]) Boundary(st *particle.Store[F], _, lo, hi int) {
	w, h, d := t.w, t.h, t.d
	px := t.pistonX
	up2 := 2 * t.speed
	for i := lo; i < hi; i++ {
		x := float64(st.X[i])
		// Piston face (specular in the piston frame) and far wall.
		if x < px {
			x = 2*px - x
			st.X[i] = F(x)
			st.U[i] = F(up2 - float64(st.U[i]))
		}
		if x > w {
			st.X[i] = F(2*w - x)
			if st.U[i] > 0 {
				st.U[i] = -st.U[i]
			}
		}
		// Side walls.
		y := float64(st.Y[i])
		if y < 0 {
			y = -y
			st.Y[i] = F(y)
			st.V[i] = -st.V[i]
		}
		if y > h {
			st.Y[i] = F(2*h - y)
			st.V[i] = -st.V[i]
		}
		z := float64(st.Z[i])
		if z < 0 {
			z = -z
			st.Z[i] = F(z)
			st.W[i] = -st.W[i]
		}
		if z > d {
			st.Z[i] = F(2*d - z)
			st.W[i] = -st.W[i]
		}
		st.Cell[i] = int32(t.grid.CellOf(float64(st.X[i]), float64(st.Y[i]), float64(st.Z[i])))
	}
}

// PostMove is a no-op: the shock tube is closed, no particle ever leaves.
func (t *tubeDomain[F]) PostMove() {}

// Relax is a no-op: there is no reservoir.
func (t *tubeDomain[F]) Relax() {}

// DensityProfile returns the particle density along x (averaged over the
// cross-section), normalised by the initial density.
func (s *SimOf[F]) DensityProfile() []float64 {
	prof := make([]float64, s.cfg.NX)
	st := s.Store()
	for i := 0; i < st.Len(); i++ {
		ix := int(st.X[i])
		if ix < 0 {
			ix = 0
		}
		if ix >= s.cfg.NX {
			ix = s.cfg.NX - 1
		}
		prof[ix]++
	}
	slab := s.cfg.NPerCell * float64(s.cfg.NY*s.cfg.NZ)
	for i := range prof {
		prof[i] /= slab
	}
	return prof
}

// ShockPosition locates the shock front: the x where the density profile
// falls through the half-rise level between the post-shock plateau and
// the quiescent gas, scanning downstream from the piston. Returns NaN if
// no front is found.
func (s *SimOf[F]) ShockPosition() float64 {
	prof := s.DensityProfile()
	_, ratio := s.cfg.Theory()
	level := (1 + ratio) / 2
	start := int(s.dom.pistonX)
	if start < 0 {
		start = 0
	}
	for ix := start; ix+1 < len(prof); ix++ {
		if prof[ix] >= level && prof[ix+1] < level {
			t := (prof[ix] - level) / (prof[ix] - prof[ix+1])
			return float64(ix) + 0.5 + t
		}
	}
	return math.NaN()
}

// PostShockDensity averages the density between the piston and the shock
// (excluding two cells of cushion at each end); NaN when the region is
// too thin.
//
//dsmclint:allow exports the shock tube's measured density rise, checked against the piston-shock theory
func (s *SimOf[F]) PostShockDensity() float64 {
	shock := s.ShockPosition()
	if math.IsNaN(shock) {
		return math.NaN()
	}
	lo := int(s.dom.pistonX) + 2
	hi := int(shock) - 2
	if hi <= lo {
		return math.NaN()
	}
	prof := s.DensityProfile()
	var sum float64
	for ix := lo; ix < hi; ix++ {
		sum += prof[ix]
	}
	return sum / float64(hi-lo)
}

// TotalEnergyAndMomentum returns the conservation diagnostics (the piston
// does work, so energy grows; y/z momentum must stay near zero).
//
//dsmclint:allow exports energy and momentum conservation diagnostic of the 3D tube
func (s *SimOf[F]) TotalEnergyAndMomentum() (energy, py, pz float64) {
	st := s.Store()
	for i := 0; i < st.Len(); i++ {
		u, v, w := float64(st.U[i]), float64(st.V[i]), float64(st.W[i])
		r1, r2 := float64(st.R1[i]), float64(st.R2[i])
		energy += u*u + v*v + w*w + r1*r1 + r2*r2
		py += v
		pz += w
	}
	return energy, py, pz
}
