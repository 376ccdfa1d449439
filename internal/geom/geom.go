// Package geom provides the wind-tunnel geometry of the simulation: the
// inclined wedge (the only body the paper's implementation supports, as an
// "inclined flat plate" ramp), the tunnel walls, and the boundary
// interactions — specular (inviscid) reflection as in the paper, plus the
// diffuse isothermal reflection listed in the paper's future work.
//
//dsmclint:layer geom
//dsmclint:scope determinism
//dsmclint:scope rng-discipline
package geom

import "math"

// Vec2 is a 2D vector in cell units.
type Vec2 struct{ X, Y float64 }

// Add returns a+b.
func (a Vec2) Add(b Vec2) Vec2 { return Vec2{a.X + b.X, a.Y + b.Y} }

// Sub returns a-b.
func (a Vec2) Sub(b Vec2) Vec2 { return Vec2{a.X - b.X, a.Y - b.Y} }

// Dot returns the dot product.
func (a Vec2) Dot(b Vec2) float64 { return a.X*b.X + a.Y*b.Y }

// Scale returns s·a.
func (a Vec2) Scale(s float64) Vec2 { return Vec2{s * a.X, s * a.Y} }

// Norm returns |a|.
func (a Vec2) Norm() float64 { return math.Hypot(a.X, a.Y) }

// Face is an oriented planar surface element: a point on the surface and
// the unit normal pointing into the gas.
type Face struct {
	P Vec2 // a point on the face
	N Vec2 // unit outward (into-gas) normal
}

// Depth returns the penetration depth of point p behind the face
// (positive when p is on the solid side).
func (f Face) Depth(p Vec2) float64 { return -f.N.Dot(p.Sub(f.P)) }

// MirrorPosition reflects a penetrating position back across the face.
func (f Face) MirrorPosition(p Vec2) Vec2 {
	d := f.N.Dot(p.Sub(f.P))
	return p.Sub(f.N.Scale(2 * d))
}

// ReflectVelocity specularly reflects v if it points into the surface;
// velocities already leaving the surface are unchanged (this keeps the
// iterated corner handling from double-flipping).
func (f Face) ReflectVelocity(v Vec2) Vec2 {
	vn := f.N.Dot(v)
	if vn >= 0 {
		return v
	}
	return v.Sub(f.N.Scale(2 * vn))
}

// Wedge is the test body: a ramp rising from the lower wall at the given
// angle, with a vertical back face — the paper's configuration has the
// leading edge 20 cells from the upstream boundary, a 25-cell base and a
// 30° incline, with a single expansion corner at the apex.
type Wedge struct {
	LeadX float64 // x of the leading edge on the lower wall
	Base  float64 // base length along the wall, cells
	Angle float64 // ramp angle, radians
}

// Height returns the apex height Base·tan(Angle).
func (w Wedge) Height() float64 { return w.Base * math.Tan(w.Angle) }

// Apex returns the expansion-corner vertex.
func (w Wedge) Apex() Vec2 { return Vec2{w.LeadX + w.Base, w.Height()} }

// TrailX returns the x coordinate of the back face.
func (w Wedge) TrailX() float64 { return w.LeadX + w.Base }

// Vertices returns the triangle (leading edge, trailing edge, apex).
func (w Wedge) Vertices() [3]Vec2 {
	return [3]Vec2{{w.LeadX, 0}, {w.TrailX(), 0}, w.Apex()}
}

// Body is the prepared form of a Wedge and the single definition of
// "inside the body": the base interval, the ramp slope and the two
// gas-facing faces (the base lies on the lower wall and never is) are
// computed once, so the per-particle tests of the move pass evaluate no
// trigonometry. The wedge must be valid (Base > 0, Angle in (0, π/2);
// sim.Config.Validate enforces it) for the slope to be positive and finite.
type Body struct {
	LeadX, TrailX float64
	Slope         float64 // tan(Angle)
	Ramp          Face    // hypotenuse: outward up-left normal
	Back          Face    // vertical back face: downstream normal
}

// Prepare returns the prepared form of the wedge.
func (w Wedge) Prepare() Body {
	s, c := math.Sin(w.Angle), math.Cos(w.Angle)
	return Body{
		LeadX: w.LeadX, TrailX: w.TrailX(), Slope: math.Tan(w.Angle),
		Ramp: Face{P: Vec2{w.LeadX, 0}, N: Vec2{-s, c}},
		Back: Face{P: Vec2{w.TrailX(), 0}, N: Vec2{1, 0}},
	}
}

// Contains reports whether p is strictly inside the body.
func (b *Body) Contains(p Vec2) bool {
	if p.X <= b.LeadX || p.X >= b.TrailX || p.Y <= 0 {
		return false
	}
	return p.Y < (p.X-b.LeadX)*b.Slope
}

// NearestFace returns the gas-facing face with the smallest penetration
// depth for an interior point — the surface a just-moved particle most
// plausibly crossed during the step.
func (b *Body) NearestFace(p Vec2) Face {
	if b.Back.Depth(p) < b.Ramp.Depth(p) {
		return b.Back
	}
	return b.Ramp
}

// Tunnel is the wind-tunnel domain: x in [0, W], y in [0, H], with up to
// two disjoint wedges on the lower wall (the second supports the
// double-wedge scenario; nil for the paper's single-body runs). The
// upstream (x=0) boundary is the plunger, owned by the simulation; the
// downstream (x=W) boundary is the soft sink, also owned by the
// simulation. It is the description; Prepare yields the form the
// boundary tests run on.
type Tunnel struct {
	W, H   float64
	Wedge  *Wedge
	Wedge2 *Wedge
}

// PreparedTunnel is a Tunnel with its bodies prepared (Wedge first; they
// are disjoint, so at most one contains a point).
type PreparedTunnel struct {
	W, H   float64
	Bodies []Body
	// Top is the highest apex of the bodies, (TrailX−LeadX)·Slope as
	// Contains rounds it, and 0 without a body: Contains is false for
	// every point with y >= Top, because rounding is monotone.
	Top float64
}

// Prepare returns the prepared form of the tunnel.
func (t Tunnel) Prepare() PreparedTunnel {
	pt := PreparedTunnel{W: t.W, H: t.H}
	for _, w := range [...]*Wedge{t.Wedge, t.Wedge2} {
		if w != nil {
			b := w.Prepare()
			pt.Bodies = append(pt.Bodies, b)
			pt.Top = max(pt.Top, (b.TrailX-b.LeadX)*b.Slope)
		}
	}
	return pt
}

// Hit is the move pass's fast reject: it reports whether a just-moved
// particle at (x, y) lies beyond a hard wall or strictly inside a body,
// i.e. whether ReflectSpecular would change it. Comparisons only, and
// small enough to inline into the move loop; a particle at or above Top
// skips the body tests.
//
//dsmc:hotpath
//dsmc:inline
func (t *PreparedTunnel) Hit(x, y float64) bool {
	return y < 0 || y > t.H || (y < t.Top && t.ContainingBody(Vec2{x, y}) != nil)
}

// ContainingBody returns the body strictly containing p, or nil.
func (t *PreparedTunnel) ContainingBody(p Vec2) *Body {
	for k := range t.Bodies {
		if t.Bodies[k].Contains(p) {
			return &t.Bodies[k]
		}
	}
	return nil
}

// maxBounces bounds the mirror iteration; a particle cannot legitimately
// cross more than a few surfaces in one step when velocities are below a
// cell per step, and corner pockets converge within this bound.
const maxBounces = 8

// ReflectSpecular applies the paper's inviscid boundary interaction to a
// particle that has just completed its collisionless move: positions
// beyond the hard walls or inside a body are mirrored across the
// violated surface and the normal velocity component is reversed. The
// mirroring iterates to handle corners (wall+ramp). Returns the corrected
// position and velocity.
func (t *PreparedTunnel) ReflectSpecular(p, v Vec2) (Vec2, Vec2) {
	for b := 0; b < maxBounces; b++ {
		if p.Y < 0 {
			p.Y = -p.Y
			if v.Y < 0 {
				v.Y = -v.Y
			}
		} else if p.Y > t.H {
			p.Y = 2*t.H - p.Y
			if v.Y > 0 {
				v.Y = -v.Y
			}
		} else if body := t.ContainingBody(p); body != nil {
			f := body.NearestFace(p)
			p = f.MirrorPosition(p)
			v = f.ReflectVelocity(v)
		} else {
			return p, v
		}
	}
	// Degenerate pocket: place the particle on the nearest free spot and
	// let the next step carry it out.
	p = t.clampFree(p)
	return p, v
}

// clampFree nudges a position to the domain interior outside the bodies.
func (t *PreparedTunnel) clampFree(p Vec2) Vec2 {
	if p.Y < 0 {
		p.Y = 0
	}
	if p.Y > t.H {
		p.Y = t.H
	}
	if body := t.ContainingBody(p); body != nil {
		f := body.NearestFace(p)
		p = p.Add(f.N.Scale(f.Depth(p) + 1e-9))
	}
	return p
}

// Inside reports whether p lies in the gas region of the tunnel
// (within the walls and outside the bodies).
func (t *PreparedTunnel) Inside(p Vec2) bool {
	if p.Y < 0 || p.Y > t.H || p.X < 0 || p.X > t.W {
		return false
	}
	return t.ContainingBody(p) == nil
}
