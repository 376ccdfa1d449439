// Package sim is the wind-tunnel backend of the paper's simulation: the
// same four sub-steps per time step (collisionless motion, boundary
// conditions, selection of collision partners, collision of selected
// partners), the same arrangement (specular walls, wedge body, upstream
// plunger, downstream sink into a reservoir) — the role the
// hand-vectorized Cray-2 implementation plays in the paper's performance
// comparison.
//
// The phase pipeline itself lives in internal/engine, shared with the 3D
// shock tube and generic over the storage precision; this package
// supplies only the 2D parts — grid indexing, the wedge/wall/plunger/
// sink boundary conditions, and the reservoir bookkeeping — as the
// engine's Domain, plus configuration. SimOf[float64] is the reference
// (bit-identical to the pre-unification backend, pinned by
// internal/golden); NewOf[float32] runs the same physics at half the
// memory traffic.
//
//dsmclint:layer sim
//dsmclint:scope determinism
//dsmclint:scope rng-discipline=serial
package sim

import (
	"errors"
	"fmt"
	"math"

	"dsmc/internal/collide"
	"dsmc/internal/engine"
	"dsmc/internal/geom"
	"dsmc/internal/grid"
	"dsmc/internal/kernel"
	"dsmc/internal/molec"
	"dsmc/internal/par"
	"dsmc/internal/particle"
	"dsmc/internal/phys"
	"dsmc/internal/rng"
)

// Config specifies a wind-tunnel simulation. The zero value is not
// runnable; use DefaultConfig as a starting point.
type Config struct {
	// NX, NY are the grid dimensions in cells (the paper: 98×64).
	NX, NY int
	// Wedge is the body; nil simulates an empty tunnel.
	Wedge *geom.Wedge
	// Wedge2 is an optional second body downstream of (and disjoint
	// from) Wedge — the double-wedge scenario. Requires Wedge.
	Wedge2 *geom.Wedge
	// Free is the freestream state (Mach, thermal speed, mean free path).
	Free phys.Freestream
	// Model is the molecular model (default Maxwell molecules).
	Model molec.Model
	// NPerCell is the freestream particle count per unit cell volume.
	NPerCell float64
	// PlungerTrigger is the downstream distance at which the plunger
	// snaps back (cells).
	PlungerTrigger float64
	// Wall selects the gas-surface interaction (specular by default).
	Wall geom.DiffuseState
	// Seed seeds all randomness.
	Seed uint64
	// ReservoirCapacity bounds the reservoir (default: 12% of flow).
	ReservoirCapacity int
	// ZVib enables vibrational relaxation (the future-work extension)
	// when positive: each collision exchanges energy with the particles'
	// continuous vibrational reservoirs with probability 1/ZVib.
	ZVib float64
	// Workers is the CPU worker count the phases are sharded over
	// (move/boundary over contiguous particle chunks, sort scatter over
	// particle chunks, shuffle/select/collide/sample over cell ranges of
	// about equal particle count); beyond one worker the reservoir relaxes
	// on the pool beside the sort, select and collide passes. 0 selects
	// runtime.NumCPU(). Results are bit-identical for any
	// worker count: every cell (and, at diffuse walls, every particle)
	// draws from its own counter-based stream keyed by (seed, step,
	// phase, index) rather than from a shared sequential stream.
	Workers int
}

// DefaultConfig returns the paper's configuration at a particle density
// scaled by scale in (0, 1]: scale = 1 reproduces the 512k-particle run
// (460k in flow, the rest in the reservoir).
func DefaultConfig(scale float64) Config {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	w := geom.Wedge{LeadX: 20, Base: 25, Angle: 30 * math.Pi / 180}
	return Config{
		NX:    98,
		NY:    64,
		Wedge: &w,
		Free: phys.Freestream{
			Mach:   4,
			Cm:     0.125,
			Lambda: 0.5,
			Gamma:  phys.GammaDiatomic,
		},
		Model:          molec.Maxwell(),
		NPerCell:       75 * scale,
		PlungerTrigger: 4,
		Seed:           1988,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.NX <= 0 || c.NY <= 0 {
		return errors.New("sim: grid dimensions must be positive")
	}
	if c.NPerCell <= 0 {
		return errors.New("sim: NPerCell must be positive")
	}
	if c.Free.Cm <= 0 {
		return errors.New("sim: freestream thermal speed must be positive")
	}
	if c.Free.Mach <= 1 {
		return errors.New("sim: wind tunnel requires supersonic freestream (downstream boundary must be supersonic)")
	}
	if c.Wedge != nil {
		if err := validateWedge("wedge", c.Wedge, c.NX, c.NY); err != nil {
			return err
		}
	}
	if c.Wedge2 != nil {
		if c.Wedge == nil {
			return errors.New("sim: Wedge2 requires Wedge")
		}
		if err := validateWedge("second wedge", c.Wedge2, c.NX, c.NY); err != nil {
			return err
		}
		if c.Wedge2.LeadX < c.Wedge.TrailX() && c.Wedge.LeadX < c.Wedge2.TrailX() {
			return errors.New("sim: wedges overlap; their base intervals must be disjoint")
		}
	}
	if err := c.Free.ValidateTimeStep(); err != nil {
		return err
	}
	return nil
}

// validateWedge rejects a body whose slope the prepared geometry cannot
// represent (tan(Angle) not positive and finite; the negated comparisons
// catch NaN) and one that does not fit in the tunnel.
func validateWedge(name string, w *geom.Wedge, nx, ny int) error {
	if !(w.Base > 0) || !(w.Angle > 0 && w.Angle < math.Pi/2) {
		return fmt.Errorf("sim: %s needs a positive base and an angle in (0, π/2)", name)
	}
	if !(w.LeadX >= 0 && w.TrailX() <= float64(nx) && w.Height() < float64(ny)) {
		return fmt.Errorf("sim: %s does not fit in the tunnel", name)
	}
	return nil
}

// layout2D is the 2D backend's stream-domain encoding, preserved exactly
// from the pre-unification code so the unified engine's float64 output
// stays bit-identical: sort (in-cell shuffle, lane = cell), select
// (lane = cell), collide (lane = cell), wall (diffuse re-emission,
// lane = particle).
var layout2D = engine.StreamLayout{NumDomains: 4, Sort: 0, Select: 1, Collide: 2, Wall: 3}

// The float64 step is instantiated here, in a package that imports
// collide. Instantiated only in internal/run, which does not, the step's
// kernel.ExchangePicks calls collide.Exchange instead of inlining it, at
// both precisions (TestCompilerDecisions fails).
var _ *SimOf[float64]

// SimOf is a running wind-tunnel simulation at storage precision F. The
// phase pipeline (cell-major store sorted in place, fused passes,
// allocation-free steady state) is the shared engine's, embedded: Step,
// Run, Store, SampleInto, PhaseTimes, Collisions and the rest of the
// stepping surface are the engine's own methods; see that package.
// What is declared here is what the wind tunnel adds.
type SimOf[F kernel.Float] struct {
	*engine.Engine[F]
	cfg  Config
	grid grid.Grid
	vols []float64
	dom  *wedgeDomain[F]
}

// NewOf builds a simulation with storage precision F from the
// configuration.
func NewOf[F kernel.Float](cfg Config) (*SimOf[F], error) {
	if cfg.Model.Name == "" {
		cfg.Model = molec.Maxwell()
	}
	if cfg.Free.Gamma == 0 {
		cfg.Free.Gamma = cfg.Model.Gamma()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := grid.New(cfg.NX, cfg.NY)
	vols := g.Volumes(cfg.Wedge, cfg.Wedge2)
	var freeVol float64
	for _, v := range vols {
		freeVol += v
	}
	flowTarget := int(cfg.NPerCell * freeVol)
	resCap := cfg.ReservoirCapacity
	if resCap == 0 {
		resCap = flowTarget/8 + 1024
	}
	capacity := flowTarget + resCap + flowTarget/8

	pool := par.New(cfg.Workers)
	sigma := cfg.Free.ComponentSigma()
	dom := &wedgeDomain[F]{
		tun:      geom.Tunnel{W: float64(cfg.NX), H: float64(cfg.NY), Wedge: cfg.Wedge, Wedge2: cfg.Wedge2}.Prepare(),
		wall:     cfg.Wall,
		uInf:     cfg.Free.Velocity(),
		trigger:  cfg.PlungerTrigger,
		nPerCell: cfg.NPerCell,
		sigma:    sigma,
		zvib:     cfg.ZVib,
		res:      particle.NewReservoir(resCap, sigma),
		resCap:   resCap,
		r:        rng.NewStream(cfg.Seed),
	}
	dom.grid = g
	// A worker's exit list can never exceed its block span, so sizing it
	// to the largest possible span means it never grows — one of the
	// pre-sizings behind the zero-allocation steady-state Step.
	dom.exits = make([][]int32, pool.Workers())
	blockCap := pool.BlockStep(capacity)
	for b := range dom.exits {
		dom.exits[b] = make([]int32, 0, blockCap)
	}

	store := particle.NewStore[F](capacity)
	eng := engine.New(engine.Config{
		Cells: g.Cells(),
		Seed:  cfg.Seed,
		Rule: collide.Rule{
			Model:      cfg.Model,
			PInf:       cfg.Free.SelectionPInf(),
			NInf:       cfg.NPerCell,
			GInf:       math.Sqrt2 * cfg.Free.MeanSpeed(),
			CollideAll: cfg.Free.Lambda <= 0,
		},
		Vols:   vols,
		Layout: layout2D,
		ZVib:   cfg.ZVib,
	}, dom, pool, store)
	dom.eng = eng

	// Fill the tunnel with freestream gas and bank the paper's ~10% extra
	// in the reservoir.
	placed := store.InitFreestream(flowTarget, dom.tun.W, dom.tun.H,
		cfg.Free.Velocity(), sigma,
		func(x, y float64) bool { return dom.tun.Inside(geom.Vec2{X: x, Y: y}) }, &dom.r)
	if placed < flowTarget {
		return nil, fmt.Errorf("sim: store capacity exhausted at %d of %d particles", placed, flowTarget)
	}
	dom.res.DepositN(resCap*3/4, &dom.r)
	if cfg.ZVib > 0 {
		dom.initVibEquilibrium(store, 0, store.Len())
	}
	return &SimOf[F]{Engine: eng, cfg: cfg, grid: g, vols: vols, dom: dom}, nil
}

// NFlow returns the number of particles currently in the flow.
func (s *SimOf[F]) NFlow() int { return s.Store().Len() }

// NReservoir returns the number of particles banked in the reservoir.
func (s *SimOf[F]) NReservoir() int { return s.dom.res.Len() }

// Config returns the configuration the simulation was built from, with
// the defaults NewOf resolves (molecular model, γ) filled in.
func (s *SimOf[F]) Config() Config { return s.cfg }

// Grid returns the cell grid.
func (s *SimOf[F]) Grid() grid.Grid { return s.grid }

// Volumes returns the per-cell gas volumes (fractional at the wedge).
func (s *SimOf[F]) Volumes() []float64 { return s.vols }

// wedgeDomain is the engine Domain of the wind tunnel: the move loop
// (advance, then downstream soft sink into the reservoir, upstream
// plunger, hard tunnel walls, wedge, and the 2D grid index), and the
// serial plunger/reservoir bookkeeping around it.
type wedgeDomain[F kernel.Float] struct {
	eng  *engine.Engine[F]
	tun  geom.PreparedTunnel
	grid grid.Grid
	wall geom.DiffuseState

	uInf     float64
	trigger  float64
	nPerCell float64
	sigma    float64
	zvib     float64
	plungerX float64

	res    *particle.Reservoir
	resCap int // resolved reservoir capacity (Config default applied)
	r      rng.Stream

	exits   [][]int32 // per-worker downstream-exit lists
	wallKey rng.Key   // this step's diffuse-wall stream key, set in PreMove
}

// PreMove advances the plunger, makes the step's diffuse-wall stream key
// and resets the per-worker exit lists Move appends to.
func (d *wedgeDomain[F]) PreMove() {
	d.plungerX += d.uInf
	d.wallKey = d.eng.PhaseKey(layout2D.Wall)
	for w := range d.exits {
		d.exits[w] = d.exits[w][:0]
	}
}

// Move advances particles [lo, hi) one step, enforces all boundary
// conditions and leaves their cell index current — the one sweep of the
// step that reads positions. Downstream exits go on the worker's exit
// list (removed in PostMove so the parallel pass never mutates
// membership); the plunger reflects specularly in its own frame; the
// walls and the wedge touch only the particles the tunnel's fast reject
// flags, the rest store nothing but X, Y and Cell. The advance is x += u
// in the storage precision, the geometry runs in float64 and the columns
// round once on write-back, so the cell is taken from the position as
// stored.
//
//dsmc:hotpath
func (d *wedgeDomain[F]) Move(st *particle.Store[F], w, lo, hi int) {
	px, uInf, xMax := d.plungerX, d.uInf, d.tun.W
	tun, g := &d.tun, d.grid
	xs, ys, us, vs, cell := st.X[lo:hi], st.Y[lo:hi], st.U[lo:hi], st.V[lo:hi], st.Cell[lo:hi]
	ex := d.exits[w]
	for k := range xs {
		xs[k] += us[k]
		ys[k] += vs[k]
		x := float64(xs[k])
		// Downstream sink: record for removal.
		if x > xMax {
			//dsmclint:allow hotpath-alloc exit lists are pre-sized to the largest block span at construction and reset to [:0] in PreMove
			ex = append(ex, int32(lo+k))
			continue
		}
		// Upstream plunger: specular reflection in the plunger frame.
		if x < px {
			xs[k] = F(2*px - x)
			us[k] = F(2*uInf - float64(us[k]))
			x = float64(xs[k])
		}
		y := float64(ys[k])
		if tun.Hit(x, y) {
			d.reflectWalls(st, lo+k)
			x, y = float64(xs[k]), float64(ys[k])
		}
		cell[k] = int32(g.CellOf(x, y))
	}
	d.exits[w] = ex
}

// PostMove removes the recorded exits (in descending index order: every
// particle swapped in from the end is then a survivor that already
// received its boundary treatment) and refills the plunger void when
// triggered.
func (d *wedgeDomain[F]) PostMove() {
	for w := len(d.exits) - 1; w >= 0; w-- {
		ex := d.exits[w]
		for k := len(ex) - 1; k >= 0; k-- {
			d.depositToReservoir(int(ex[k]))
		}
	}
	if d.plungerX >= d.trigger {
		d.refillVoid()
	}
}

// Relax relaxes the reservoir bath one step. It runs beside the sort,
// select and collide passes (see engine.Domain): it touches only the
// reservoir and the serial stream d.r, which those passes never read, so
// d.r's draws keep their order — PostMove, Relax, the next PostMove.
func (d *wedgeDomain[F]) Relax() { d.res.Relax(&d.r) }

// depositToReservoir moves particle i into the reservoir (velocity is
// re-drawn there from the rectangular distribution). The resolved
// capacity bound keeps the reservoir slice at its construction size, so
// deposits never re-allocate.
func (d *wedgeDomain[F]) depositToReservoir(i int) {
	if d.res.Len() < d.resCap {
		d.res.Deposit(&d.r)
	}
	d.eng.Store().RemoveSwap(i)
}

// reflectWalls applies the hard-wall and wedge interactions for particle i.
func (d *wedgeDomain[F]) reflectWalls(st *particle.Store[F], i int) {
	if d.wall.Model == geom.Specular {
		p := geom.Vec2{X: float64(st.X[i]), Y: float64(st.Y[i])}
		v := geom.Vec2{X: float64(st.U[i]), Y: float64(st.V[i])}
		p2, v2 := d.tun.ReflectSpecular(p, v)
		st.X[i], st.Y[i] = F(p2.X), F(p2.Y)
		st.U[i], st.V[i] = F(v2.X), F(v2.Y)
		return
	}
	d.reflectDiffuse(st, i)
}

// reflectDiffuse handles the extension wall models: positions are mirrored
// as in the specular case, but the velocity is re-emitted from the wall
// distribution; for isothermal walls the out-of-plane and rotational
// components re-equilibrate with the wall too. The re-emission draws from
// the particle's own counter-based stream so the boundary phase can run
// on any worker count without changing results.
func (d *wedgeDomain[F]) reflectDiffuse(st *particle.Store[F], i int) {
	r := d.wallKey.At(uint64(i))
	for b := 0; b < 8; b++ {
		p := geom.Vec2{X: float64(st.X[i]), Y: float64(st.Y[i])}
		v := geom.Vec2{X: float64(st.U[i]), Y: float64(st.V[i])}
		var face geom.Face
		if p.Y < 0 {
			face = geom.Face{P: geom.Vec2{X: 0, Y: 0}, N: geom.Vec2{X: 0, Y: 1}}
		} else if p.Y > d.tun.H {
			face = geom.Face{P: geom.Vec2{X: 0, Y: d.tun.H}, N: geom.Vec2{X: 0, Y: -1}}
		} else if body := d.tun.ContainingBody(p); body != nil {
			face = body.NearestFace(p)
		} else {
			return
		}
		p = face.MirrorPosition(p)
		out := d.wall.Emit(face, v, &r)
		st.X[i], st.Y[i] = F(p.X), F(p.Y)
		st.U[i], st.V[i] = F(out.X), F(out.Y)
		if d.wall.Model == geom.DiffuseIsothermal {
			st.W[i] = F(d.wall.EmitAux(&r))
			st.R1[i] = F(d.wall.EmitAux(&r))
			st.R2[i] = F(d.wall.EmitAux(&r))
		}
	}
}

// refillVoid withdraws the plunger to the upstream wall and fills the void
// it leaves with new particles at freestream conditions, taken from the
// reservoir when available. The appended particles missed the boundary
// sweep, so their cell index is set here.
func (d *wedgeDomain[F]) refillVoid() {
	void := d.plungerX
	d.plungerX = 0
	area := void * d.tun.H
	want := int(area*d.nPerCell + 0.5)
	st := d.eng.Store()
	for k := 0; k < want; k++ {
		x := d.r.Float64() * void
		y := d.r.Float64() * d.tun.H
		var v collide.State5
		if th, ok := d.res.Withdraw(); ok {
			v = th
		} else {
			// Reservoir exhausted: sample the Gaussian directly (the costly
			// path the reservoir exists to avoid).
			v = collide.State5{
				d.r.Gaussian(0, d.sigma), d.r.Gaussian(0, d.sigma), d.r.Gaussian(0, d.sigma),
				d.r.Gaussian(0, d.sigma), d.r.Gaussian(0, d.sigma),
			}
		}
		v[0] += d.uInf
		idx := st.Append(x, y, v)
		if idx < 0 {
			return
		}
		st.Cell[idx] = int32(d.grid.CellOf(float64(st.X[idx]), float64(st.Y[idx])))
		if d.zvib > 0 {
			d.initVibEquilibrium(st, idx, idx+1)
		}
	}
}

// initVibEquilibrium samples the vibrational energies of particles
// [lo, hi) from the equilibrium (exponential) distribution for two
// continuous vibrational degrees of freedom at the freestream
// temperature: mean 2·sigma² in the Σv² energy units used throughout.
func (d *wedgeDomain[F]) initVibEquilibrium(st *particle.Store[F], lo, hi int) {
	mean := 2 * d.sigma * d.sigma
	for i := lo; i < hi; i++ {
		u := d.r.Float64()
		for u == 0 {
			u = d.r.Float64()
		}
		st.Evib[i] = F(-mean * math.Log(u))
	}
}
