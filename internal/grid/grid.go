// Package grid implements the rectangular grid of small, geometrically
// simple and similar cells that the selection of collision partners
// requires: square cells of unit width, a distinct integer index per cell,
// and — for cells divided by the wedge — the fractional cell volume the
// paper applies both in the selection rule and in the time-averaged cell
// density.
//
//dsmclint:layer grid
//dsmclint:scope determinism
package grid

import (
	"math"

	"dsmc/internal/geom"
)

// Grid is an NX×NY arrangement of unit square cells covering
// [0,NX]×[0,NY].
type Grid struct {
	NX, NY int
}

// New returns a grid; dimensions must be positive.
func New(nx, ny int) Grid {
	if nx <= 0 || ny <= 0 {
		panic("grid: dimensions must be positive")
	}
	return Grid{NX: nx, NY: ny}
}

// Cells returns the total cell count.
func (g Grid) Cells() int { return g.NX * g.NY }

// Index returns the distinct cell index of cell (ix, iy).
func (g Grid) Index(ix, iy int) int { return iy*g.NX + ix }

// CellOf returns the index of the cell containing position (x, y),
// clamping positions on or beyond the domain edge into the boundary cell
// (boundary conditions have already been enforced when this is called;
// the clamp only guards against exact-edge coordinates). Truncation is
// the floor wherever the clamp lets it show: they agree for x >= 0, and
// for x < 0 both are at most 0 and clamp to 0.
//
//dsmc:inline
func (g Grid) CellOf(x, y float64) int {
	ix := int(x)
	iy := int(y)
	if ix < 0 {
		ix = 0
	}
	if ix >= g.NX {
		ix = g.NX - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= g.NY {
		iy = g.NY - 1
	}
	return g.Index(ix, iy)
}

// Volumes returns the gas-accessible volume (area, in 2D) of every cell:
// 1 for free cells, the fractional volume for cells divided by a wedge,
// and 0 for cells entirely inside a body. The paper notes this special
// allowance is needed wherever the rectangular grid cuts the smooth wedge
// surface. Multiple (disjoint) wedges each subtract their own overlap;
// nil entries are skipped, so the historical single-wedge call sites are
// unchanged.
func (g Grid) Volumes(ws ...*geom.Wedge) []float64 {
	vols := make([]float64, g.Cells())
	for i := range vols {
		vols[i] = 1
	}
	for _, w := range ws {
		if w == nil {
			continue
		}
		tri := w.Vertices()
		poly := []geom.Vec2{tri[0], tri[1], tri[2]}
		// Only cells overlapping the wedge's bounding box need clipping.
		ix0 := int(math.Floor(w.LeadX))
		ix1 := int(math.Ceil(w.TrailX()))
		iy1 := int(math.Ceil(w.Height()))
		for iy := 0; iy < iy1 && iy < g.NY; iy++ {
			for ix := ix0; ix < ix1 && ix < g.NX; ix++ {
				if ix < 0 || iy < 0 {
					continue
				}
				cell := []geom.Vec2{
					{X: float64(ix), Y: float64(iy)},
					{X: float64(ix + 1), Y: float64(iy)},
					{X: float64(ix + 1), Y: float64(iy + 1)},
					{X: float64(ix), Y: float64(iy + 1)},
				}
				overlap := PolyArea(ClipPolygon(cell, poly))
				v := vols[g.Index(ix, iy)] - overlap
				if v < 0 {
					v = 0
				}
				vols[g.Index(ix, iy)] = v
			}
		}
	}
	return vols
}

// ClipPolygon clips subject against a convex clip polygon (CCW order)
// using the Sutherland–Hodgman algorithm and returns the intersection
// polygon (possibly empty).
func ClipPolygon(subject, clip []geom.Vec2) []geom.Vec2 {
	out := append([]geom.Vec2(nil), subject...)
	n := len(clip)
	for i := 0; i < n && len(out) > 0; i++ {
		a, b := clip[i], clip[(i+1)%n]
		out = clipHalfPlane(out, a, b)
	}
	return out
}

// clipHalfPlane keeps the part of poly on the left of directed edge a→b.
func clipHalfPlane(poly []geom.Vec2, a, b geom.Vec2) []geom.Vec2 {
	side := func(p geom.Vec2) float64 {
		return (b.X-a.X)*(p.Y-a.Y) - (b.Y-a.Y)*(p.X-a.X)
	}
	var out []geom.Vec2
	n := len(poly)
	for i := 0; i < n; i++ {
		cur, next := poly[i], poly[(i+1)%n]
		sc, sn := side(cur), side(next)
		if sc >= 0 {
			out = append(out, cur)
		}
		if (sc > 0 && sn < 0) || (sc < 0 && sn > 0) {
			t := sc / (sc - sn)
			out = append(out, geom.Vec2{
				X: cur.X + t*(next.X-cur.X),
				Y: cur.Y + t*(next.Y-cur.Y),
			})
		}
	}
	return out
}

// PolyArea returns the unsigned area of a simple polygon (shoelace).
func PolyArea(poly []geom.Vec2) float64 {
	if len(poly) < 3 {
		return 0
	}
	var s float64
	n := len(poly)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += poly[i].X*poly[j].Y - poly[j].X*poly[i].Y
	}
	return math.Abs(s) / 2
}
