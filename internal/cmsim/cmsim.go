// Package cmsim is the paper's implementation: the particle simulation
// expressed in Connection Machine data-parallel primitives with one
// virtual processor per particle and 32-bit fixed-point (Q9.23) particle
// state.
//
// Every mechanism described in the implementation section of the paper is
// present:
//
//   - particles-to-processors mapping; flow and reservoir particles share
//     the machine, so "idle" processors do the useful work of relaxing the
//     reservoir;
//   - collisionless motion as one elementwise vector add, perfectly load
//     balanced;
//   - the upstream plunger moving with the freestream, withdrawn at a
//     trigger point, with the void refilled from the reservoir via an
//     enumeration scan;
//   - the per-step sort on cell index scaled by a constant with a random
//     offset added, so ordering within a cell changes every step;
//   - even/odd candidate pairing after the sort, so collision partners sit
//     in the same physical processor for VP ratios ≥ 2;
//   - cell population (density) via segmented scans;
//   - the McDonald–Baganoff selection rule in fixed point;
//   - the 5-component permutation collision using per-particle permutation
//     vectors refreshed by one random transposition per collision;
//   - stochastic rounding of the halvings, curing the truncation energy
//     loss the paper describes.
//
//dsmclint:layer cmsim
//dsmclint:scope rng-discipline=serial
package cmsim

import (
	"math"

	"dsmc/internal/cm"
	"dsmc/internal/fixed"
	"dsmc/internal/geom"
	"dsmc/internal/grid"
	"dsmc/internal/rng"
	"dsmc/internal/sim"
)

// Config configures the data-parallel simulation.
type Config struct {
	// Sim carries the physical configuration (grid, wedge, freestream,
	// densities). The Wall field is ignored: this backend always runs
	// the paper's algorithm with specular walls.
	Sim sim.Config
	// PhysProcs is the number of physical processors of the modelled
	// machine (the paper uses 32k; any positive count works). The virtual
	// processor ratio is the particle count divided by this.
	PhysProcs int
}

// keyScale is the constant factor by which the cell index is scaled
// before a random number below it is added, giving randomised order
// within a cell after the sort.
const keyScale = 64

// region codes stored in the region field.
const (
	regionFlow = iota
	regionReservoir
)

// Sim is a running data-parallel simulation.
type Sim struct {
	cfg  Config
	m    *cm.Machine
	grid grid.Grid
	vols []fixed.Fix // per-cell gas volume, fixed point
	volF []float64

	// particle state fields (one VP per particle)
	x, y                cm.Field
	u, v, w, r1, r2     cm.Field
	permF               cm.Field // packed Perm5
	region              cm.Field
	cellF, key          cm.Field
	ones, scratch, enum cm.Field
	nU, nV, nW          cm.Field // neighbour velocities (shifted)
	count, rank         cm.Field
	nCell               cm.Field

	segStart  []bool
	pairFirst []bool
	flowCtx   []bool
	resCtx    []bool

	lanes []rng.Stream

	// fixed-point constants
	uInfF    fixed.Fix
	wTan     fixed.Fix
	wSin     fixed.Fix
	wCos     fixed.Fix
	leadX    fixed.Fix
	trailX   fixed.Fix
	height   fixed.Fix
	tunnelW  fixed.Fix
	tunnelH  fixed.Fix
	pInfQ    float64 // selection probability scale, float (front-end constant)
	resCells int

	plungerX   fixed.Fix
	stepN      int
	collisions int64
	nFlow      int
}

// New builds the data-parallel simulation. The machine is sized to the
// total particle count (flow target + reservoir), rounded up to a
// multiple of the physical processor count.
func New(cfg Config) (*Sim, error) {
	if cfg.PhysProcs <= 0 {
		cfg.PhysProcs = 1024
	}
	c := cfg.Sim
	if c.Free.Gamma == 0 {
		c.Free.Gamma = 1.4
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cfg.Sim = c
	g := grid.New(c.NX, c.NY)
	volF := g.Volumes(c.Wedge)
	var freeVol float64
	for _, v := range volF {
		freeVol += v
	}
	flowTarget := int(c.NPerCell * freeVol)
	resTarget := flowTarget / 10
	if resTarget < 64 {
		resTarget = 64
	}
	m := cm.New(cfg.PhysProcs, flowTarget+resTarget)

	s := &Sim{
		cfg: cfg, m: m, grid: g, volF: volF,
		x: m.NewField(), y: m.NewField(),
		u: m.NewField(), v: m.NewField(), w: m.NewField(),
		r1: m.NewField(), r2: m.NewField(),
		permF: m.NewField(), region: m.NewField(),
		cellF: m.NewField(), key: m.NewField(),
		ones: m.NewField(), scratch: m.NewField(), enum: m.NewField(),
		nU: m.NewField(), nV: m.NewField(), nW: m.NewField(),
		count: m.NewField(), rank: m.NewField(), nCell: m.NewField(),
		segStart:  make([]bool, m.VPs()),
		pairFirst: make([]bool, m.VPs()),
		flowCtx:   make([]bool, m.VPs()),
		resCtx:    make([]bool, m.VPs()),
		lanes:     rng.Streams(c.Seed+1, m.VPs()),
	}
	s.vols = make([]fixed.Fix, len(volF))
	for i, v := range volF {
		s.vols[i] = fixed.FromFloat(v)
	}
	wedge := c.Wedge
	if wedge != nil {
		s.wTan = fixed.FromFloat(math.Tan(wedge.Angle))
		s.wSin = fixed.FromFloat(math.Sin(wedge.Angle))
		s.wCos = fixed.FromFloat(math.Cos(wedge.Angle))
		s.leadX = fixed.FromFloat(wedge.LeadX)
		s.trailX = fixed.FromFloat(wedge.TrailX())
		s.height = fixed.FromFloat(wedge.Height())
	}
	s.tunnelW = fixed.FromInt(c.NX)
	s.tunnelH = fixed.FromInt(c.NY)
	s.uInfF = fixed.FromFloat(c.Free.Velocity())
	s.pInfQ = c.Free.SelectionPInf() / c.NPerCell
	s.resCells = resTarget/64 + 1

	s.initParticles(flowTarget)
	m.Fill(s.ones, 1)
	return s, nil
}

// initParticles fills the first flowTarget lanes with freestream flow and
// the remainder with reservoir particles.
func (s *Sim) initParticles(flowTarget int) {
	c := s.cfg.Sim
	sigma := c.Free.ComponentSigma()
	uInf := c.Free.Velocity()
	w := float64(c.NX)
	h := float64(c.NY)
	placedEnd := flowTarget
	var body geom.Body
	if c.Wedge != nil {
		body = c.Wedge.Prepare()
	}
	s.m.Update(8, func(i int) {
		r := &s.lanes[i]
		if i < placedEnd {
			// Rejection-sample a gas-region position.
			for {
				px := r.Float64() * w
				py := r.Float64() * h
				if c.Wedge != nil && body.Contains(geom.Vec2{X: px, Y: py}) {
					continue
				}
				s.x[i] = int32(fixed.FromFloat(px))
				s.y[i] = int32(fixed.FromFloat(py))
				break
			}
			s.u[i] = int32(fixed.FromFloat(uInf + r.Gaussian(0, sigma)))
			s.v[i] = int32(fixed.FromFloat(r.Gaussian(0, sigma)))
			s.w[i] = int32(fixed.FromFloat(r.Gaussian(0, sigma)))
			s.r1[i] = int32(fixed.FromFloat(r.Gaussian(0, sigma)))
			s.r2[i] = int32(fixed.FromFloat(r.Gaussian(0, sigma)))
			s.region[i] = regionFlow
		} else {
			s.depositLane(i)
		}
		s.permF[i] = rng.RandomPerm5(r).Pack()
	})
	s.nFlow = flowTarget
}

// depositLane converts lane i to a reservoir particle with rectangular
// thermal-frame velocities.
func (s *Sim) depositLane(i int) {
	r := &s.lanes[i]
	sigma := s.cfg.Sim.Free.ComponentSigma()
	s.region[i] = regionReservoir
	s.u[i] = int32(fixed.FromFloat(r.Rect(sigma)))
	s.v[i] = int32(fixed.FromFloat(r.Rect(sigma)))
	s.w[i] = int32(fixed.FromFloat(r.Rect(sigma)))
	s.r1[i] = int32(fixed.FromFloat(r.Rect(sigma)))
	s.r2[i] = int32(fixed.FromFloat(r.Rect(sigma)))
	s.x[i] = 0
	s.y[i] = 0
}

// Machine exposes the underlying data-parallel machine (cost model and
// phase timers).
func (s *Sim) Machine() *cm.Machine { return s.m }

// Grid returns the cell grid.
func (s *Sim) Grid() grid.Grid { return s.grid }

// Volumes returns the per-cell gas volumes.
func (s *Sim) Volumes() []float64 { return s.volF }

// NFlow returns the number of particles currently in the flow.
func (s *Sim) NFlow() int { return s.nFlow }

// NReservoir returns the number of reservoir particles.
func (s *Sim) NReservoir() int { return s.m.VPs() - s.nFlow }

// StepCount returns completed steps.
func (s *Sim) StepCount() int { return s.stepN }

// Collisions returns cumulative collisions (flow and reservoir).
func (s *Sim) Collisions() int64 { return s.collisions }

// Run advances n steps.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Step advances one time step: motion, boundaries, sort, selection,
// collision — each charged to its named phase of the cost model.
func (s *Sim) Step() {
	s.m.Phase("move")
	s.move()
	s.boundaries()
	s.m.Phase("sort")
	s.sort()
	s.m.Phase("select")
	s.selectPairs()
	s.m.Phase("collide")
	s.collide()
	s.m.FlushTimers()
	s.stepN++
}

// move is the collisionless motion: one saturating add per coordinate,
// executed on every flow processor simultaneously.
func (s *Sim) move() {
	s.m.Mask(s.flowCtx, s.region, func(r int32) bool { return r == regionFlow })
	s.m.ZipWhere(cm.OpALU, s.flowCtx, s.x, s.x, s.u, func(a, b int32) int32 {
		return int32(fixed.Add(fixed.Fix(a), fixed.Fix(b)))
	})
	s.m.ZipWhere(cm.OpALU, s.flowCtx, s.y, s.y, s.v, func(a, b int32) int32 {
		return int32(fixed.Add(fixed.Fix(a), fixed.Fix(b)))
	})
	s.plungerX = fixed.Add(s.plungerX, s.uInfF)
}

// boundaries enforces the soft downstream sink, the plunger, the hard
// walls and the wedge — all as per-processor conditional updates, then
// triggers the plunger refill when needed.
func (s *Sim) boundaries() {
	uInf2 := fixed.Scale(s.uInfF, 2)
	plunger := s.plungerX
	exited := s.m.UpdateReduce(78, func(i int, acc *int64) {
		if s.region[i] != regionFlow {
			return
		}
		x := fixed.Fix(s.x[i])
		// Downstream soft boundary: into the reservoir.
		if x > s.tunnelW {
			s.depositLane(i)
			*acc++
			return
		}
		// Upstream plunger, specular in the plunger frame.
		if x < plunger {
			s.x[i] = int32(fixed.Sub(fixed.Scale(plunger, 2), x))
			s.u[i] = int32(fixed.Sub(uInf2, fixed.Fix(s.u[i])))
		}
		s.reflectLane(i)
	})
	s.nFlow -= int(exited)
	if s.plungerX.Float() >= s.cfg.Sim.PlungerTrigger {
		s.refill()
	}
}

// reflectLane applies wall and wedge specular reflection in fixed point.
func (s *Sim) reflectLane(i int) {
	wedge := s.cfg.Sim.Wedge
	for b := 0; b < 6; b++ {
		y := fixed.Fix(s.y[i])
		if y < 0 {
			s.y[i] = int32(fixed.Neg(y))
			if fixed.Fix(s.v[i]) < 0 {
				s.v[i] = int32(fixed.Neg(fixed.Fix(s.v[i])))
			}
			continue
		}
		if y > s.tunnelH {
			s.y[i] = int32(fixed.Sub(fixed.Scale(s.tunnelH, 2), y))
			if fixed.Fix(s.v[i]) > 0 {
				s.v[i] = int32(fixed.Neg(fixed.Fix(s.v[i])))
			}
			continue
		}
		if wedge == nil {
			return
		}
		x := fixed.Fix(s.x[i])
		if x <= s.leadX || x >= s.trailX || y <= 0 {
			return
		}
		ramp := fixed.Mul(fixed.Sub(x, s.leadX), s.wTan)
		if y >= ramp {
			return
		}
		// Inside the wedge: mirror across the nearer face.
		// Ramp face depth (perpendicular): (ramp − y)·cosθ.
		dRamp := fixed.Mul(fixed.Sub(ramp, y), s.wCos)
		dBack := fixed.Sub(s.trailX, x)
		if dBack < dRamp {
			// Back face: mirror in x, flip u if moving upstream.
			s.x[i] = int32(fixed.Add(s.trailX, dBack))
			if fixed.Fix(s.u[i]) < 0 {
				s.u[i] = int32(fixed.Neg(fixed.Fix(s.u[i])))
			}
			continue
		}
		// Ramp face: p' = p + 2d·n with n = (−sinθ, cosθ).
		d2 := fixed.Scale(dRamp, 2)
		s.x[i] = int32(fixed.Sub(x, fixed.Mul(d2, s.wSin)))
		s.y[i] = int32(fixed.Add(y, fixed.Mul(d2, s.wCos)))
		// v' = v − 2(n·v)n when incoming.
		vn := fixed.Sub(fixed.Mul(fixed.Fix(s.v[i]), s.wCos),
			fixed.Mul(fixed.Fix(s.u[i]), s.wSin))
		if vn < 0 {
			vn2 := fixed.Scale(vn, 2)
			s.u[i] = int32(fixed.Add(fixed.Fix(s.u[i]), fixed.Mul(vn2, s.wSin)))
			s.v[i] = int32(fixed.Sub(fixed.Fix(s.v[i]), fixed.Mul(vn2, s.wCos)))
		}
	}
}

// refill withdraws the plunger and converts reservoir particles to flow
// in the vacated band, using the enumeration-scan idiom to pick the first
// K reservoir particles.
func (s *Sim) refill() {
	void := s.plungerX.Float()
	s.plungerX = 0
	want := int(void*float64(s.cfg.Sim.NY)*s.cfg.Sim.NPerCell + 0.5)
	s.m.Mask(s.resCtx, s.region, func(r int32) bool { return r == regionReservoir })
	avail := s.m.Enumerate(s.enum, s.resCtx)
	if want > avail {
		want = avail
	}
	if want == 0 {
		return
	}
	uInf := s.uInfF
	h := float64(s.cfg.Sim.NY)
	wantQ := int32(want)
	s.m.Update(10, func(i int) {
		if s.region[i] != regionReservoir || s.enum[i] < 0 || s.enum[i] >= wantQ {
			return
		}
		r := &s.lanes[i]
		s.region[i] = regionFlow
		s.x[i] = int32(fixed.FromFloat(r.Float64() * void))
		s.y[i] = int32(fixed.FromFloat(r.Float64() * h))
		s.u[i] = int32(fixed.Add(fixed.Fix(s.u[i]), uInf))
	})
	s.nFlow += want
}

// sort computes the dithered sort key — cell index times keyScale plus a
// random number below keyScale, the paper's randomisation trick — and
// reorders every particle field by the resulting rank.
func (s *Sim) sort() {
	nCells := int32(s.grid.Cells())
	nx := s.grid.NX
	resCells := int32(s.resCells)
	s.m.Update(12, func(i int) {
		var cell int32
		if s.region[i] == regionFlow {
			ix := fixed.Fix(s.x[i]).Int()
			iy := fixed.Fix(s.y[i]).Int()
			if ix < 0 {
				ix = 0
			}
			if ix >= nx {
				ix = nx - 1
			}
			if iy < 0 {
				iy = 0
			}
			if iy >= s.grid.NY {
				iy = s.grid.NY - 1
			}
			cell = int32(iy*nx + ix)
		} else {
			// Reservoir pseudo-cells sort after all flow cells; a random
			// pseudo-cell each step remixes the reservoir pairing.
			cell = nCells + int32(s.lanes[i].Intn(int(resCells)))
		}
		s.cellF[i] = cell
		s.key[i] = cell*keyScale + int32(fixed.DirtyBits(fixed.Fix(s.u[i])^fixed.Fix(s.x[i]), 12)%keyScale)
	})
	perm := s.m.SortPerm(s.key)
	s.m.GatherMany(perm, s.scratch,
		s.x, s.y, s.u, s.v, s.w, s.r1, s.r2, s.permF, s.region, s.cellF)
}

// selectPairs identifies candidate pairs (even/odd within each cell after
// the sort), obtains the cell population by segmented scan, and applies
// the selection rule, leaving the accepted pairs in pairFirst.
func (s *Sim) selectPairs() {
	m := s.m
	n := m.VPs()
	// Segment starts where the cell index changes.
	m.ShiftUp(s.nCell, s.cellF, -1)
	m.Update(2, func(i int) {
		s.segStart[i] = i == 0 || s.nCell[i] != s.cellF[i]
	})
	// Cell population on every particle.
	m.SegBroadcastSum(s.count, s.ones, s.segStart)
	// Rank within the cell.
	m.SegPlusScan(s.rank, s.ones, s.segStart, true)
	// Neighbour state (within-processor communication for VPR ≥ 2).
	m.ShiftDown(s.nU, s.u, 0)
	m.ShiftDown(s.nV, s.v, 0)
	m.ShiftDown(s.nW, s.w, 0)
	m.ShiftDown(s.nCell, s.cellF, -1)
	// Selection rule per candidate pair.
	nCells := int32(s.grid.Cells())
	collideAll := s.cfg.Sim.Free.Lambda <= 0
	gInf := math.Sqrt2 * s.cfg.Sim.Free.MeanSpeed()
	gExp := s.cfg.Sim.Model.GExp
	pInfQ := s.pInfQ
	m.Update(95, func(i int) {
		s.pairFirst[i] = false
		if s.rank[i]&1 != 0 || i+1 >= n || s.nCell[i] != s.cellF[i] {
			return
		}
		// A valid candidate pair (i, i+1) in the same cell.
		cell := s.cellF[i]
		var p float64
		switch {
		case cell >= nCells:
			p = 1 // reservoir bath: every candidate collides
		case collideAll:
			p = 1
		default:
			vol := s.volF[cell]
			if vol <= 0 {
				return
			}
			p = pInfQ * float64(s.count[i]) / vol
			if gExp != 0 {
				g := s.laneRelSpeed(i)
				if g <= 0 {
					return
				}
				p *= math.Pow(g/gInf, gExp)
			}
			if p > 1 {
				p = 1
			}
		}
		//dsmclint:allow float-eq exact saturation sentinel: p is clamped to 1 just above; == skips the lane draw without shifting it
		if p == 1 || s.lanes[i].Float64() < p {
			s.pairFirst[i] = true
		}
	})
}

// laneRelSpeed returns the translational relative speed of pair (i, i+1)
// in float units (the selection rule's g).
func (s *Sim) laneRelSpeed(i int) float64 {
	du := fixed.Sub(fixed.Fix(s.u[i]), fixed.Fix(s.nU[i])).Float()
	dv := fixed.Sub(fixed.Fix(s.v[i]), fixed.Fix(s.nV[i])).Float()
	dw := fixed.Sub(fixed.Fix(s.w[i]), fixed.Fix(s.nW[i])).Float()
	return math.Sqrt(du*du + dv*dv + dw*dw)
}

// collide performs the accepted collisions: the five relative components
// are computed with stochastically rounded halvings, re-ordered by the
// lane's permutation vector with random signs, and both partners are
// rebuilt about the mean. Each collision also applies one random
// transposition to each partner's permutation vector.
func (s *Sim) collide() {
	collided := s.m.UpdateReduce(235, func(i int, acc *int64) {
		if !s.pairFirst[i] {
			return
		}
		j := i + 1
		r := &s.lanes[i]
		var a, b, rel, mean [5]fixed.Fix
		a[0], a[1], a[2] = fixed.Fix(s.u[i]), fixed.Fix(s.v[i]), fixed.Fix(s.w[i])
		a[3], a[4] = fixed.Fix(s.r1[i]), fixed.Fix(s.r2[i])
		b[0], b[1], b[2] = fixed.Fix(s.u[j]), fixed.Fix(s.v[j]), fixed.Fix(s.w[j])
		b[3], b[4] = fixed.Fix(s.r1[j]), fixed.Fix(s.r2[j])
		for k := 0; k < 5; k++ {
			rel[k] = fixed.Sub(a[k], b[k])
			// Stochastically rounded halving: the paper's fix for the
			// truncation energy loss in stagnation regions.
			mean[k] = fixed.HalfStochastic(fixed.Add(a[k], b[k]), r.Bit())
		}
		perm := rng.UnpackPerm5(s.permF[i])
		dirty := fixed.DirtyBits(rel[0]^rel[1]^fixed.Fix(s.x[i]), 10) ^ r.Uint32()
		var newRel [5]fixed.Fix
		for k, src := range perm {
			val := rel[src]
			if dirty>>uint(k)&1 == 1 {
				val = fixed.Neg(val)
			}
			newRel[k] = val
		}
		for k := 0; k < 5; k++ {
			// Split newRel into h + (newRel−h) exactly, so a−b = newRel
			// bit-exactly (energy) and a+b = 2·mean bit-exactly (momentum,
			// up to the unbiased dither already inside mean).
			h := fixed.HalfStochastic(newRel[k], r.Bit())
			a[k] = fixed.Add(mean[k], h)
			b[k] = fixed.Sub(mean[k], fixed.Sub(newRel[k], h))
		}
		s.u[i], s.v[i], s.w[i] = int32(a[0]), int32(a[1]), int32(a[2])
		s.r1[i], s.r2[i] = int32(a[3]), int32(a[4])
		s.u[j], s.v[j], s.w[j] = int32(b[0]), int32(b[1]), int32(b[2])
		s.r1[j], s.r2[j] = int32(b[3]), int32(b[4])
		// One random transposition per collision refreshes each partner's
		// permutation vector (Aldous–Diaconis mixing).
		s.permF[i] = perm.RandomTransposition(r).Pack()
		s.permF[j] = rng.UnpackPerm5(s.permF[j]).RandomTransposition(r).Pack()
		*acc++
	})
	s.collisions += collided
}

// CellCounts returns the per-cell flow particle counts of the current
// (post-sort) configuration, for density sampling.
func (s *Sim) CellCounts() []int32 {
	counts := make([]int32, s.grid.Cells())
	nCells := int32(s.grid.Cells())
	for i := 0; i < s.m.VPs(); i++ {
		if s.region[i] == regionFlow && s.cellF[i] >= 0 && s.cellF[i] < nCells {
			counts[s.cellF[i]]++
		}
	}
	return counts
}

// TotalEnergy returns Σ over flow and reservoir of the five squared
// velocity components, in float units — the fixed-point energy-drift
// diagnostic.
//
//dsmclint:allow exports energy conservation diagnostic of the CM backend
func (s *Sim) TotalEnergy() float64 {
	var e float64
	for i := 0; i < s.m.VPs(); i++ {
		for _, f := range []cm.Field{s.u, s.v, s.w, s.r1, s.r2} {
			x := fixed.Fix(f[i]).Float()
			e += x * x
		}
	}
	return e
}
