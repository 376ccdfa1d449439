package grid

import (
	"math"
	"testing"
	"testing/quick"

	"dsmc/internal/geom"
)

const deg = math.Pi / 180

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := New(98, 64)
	f := func(ix, iy uint16) bool {
		x, y := int(ix)%98, int(iy)%64
		idx := g.Index(x, y)
		return idx >= 0 && idx < g.NX*g.NY && idx%g.NX == x && idx/g.NX == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellOf(t *testing.T) {
	g := New(10, 10)
	if g.CellOf(0.5, 0.5) != 0 {
		t.Errorf("origin cell")
	}
	if g.CellOf(9.5, 9.5) != 99 {
		t.Errorf("far corner cell")
	}
	if g.CellOf(3.999, 7.001) != g.Index(3, 7) {
		t.Errorf("interior cell")
	}
	// Edge clamping.
	if g.CellOf(10.0, 5.0) != g.Index(9, 5) {
		t.Errorf("x edge clamp")
	}
	if g.CellOf(-0.001, 5.0) != g.Index(0, 5) {
		t.Errorf("negative x clamp")
	}
	if g.CellOf(5.0, 10.0) != g.Index(5, 9) {
		t.Errorf("y edge clamp")
	}
}

// TestCellOfTruncationIsFloor pins CellOf's truncating index to the
// floor definition it replaced, on both axes: the two differ only below
// zero, where the clamp maps both to cell 0. The table includes the
// values where truncation and the floor part ways and those the
// float-to-int conversion has no integer for.
func TestCellOfTruncationIsFloor(t *testing.T) {
	g := New(98, 64)
	floorCell := func(v float64, n int) int {
		i := int(math.Floor(v))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	inf := math.Inf(1)
	for _, v := range []float64{
		0, math.Copysign(0, -1), -0.25, -0.5, -0.999, -1, -1.5, -63.5,
		math.Nextafter(0, -1), math.SmallestNonzeroFloat64, 0.5, 1, 2, 3.999, 63, 64,
		math.Nextafter(64, 0), math.Nextafter(64, inf), 97, 98, math.Nextafter(98, 0), math.Nextafter(98, inf),
		1e300, -1e300, 1 << 62, 1 << 63, -(1 << 63), inf, -inf, math.NaN(),
	} {
		if got, want := g.CellOf(v, 5), g.Index(floorCell(v, g.NX), 5); got != want {
			t.Errorf("CellOf(%v, 5) = %d, the floor definition gives %d", v, got, want)
		}
		if got, want := g.CellOf(5, v), g.Index(5, floorCell(v, g.NY)); got != want {
			t.Errorf("CellOf(5, %v) = %d, the floor definition gives %d", v, got, want)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	New(0, 5)
}

func TestPolyArea(t *testing.T) {
	square := []geom.Vec2{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}
	if got := PolyArea(square); math.Abs(got-4) > 1e-12 {
		t.Errorf("square area = %v", got)
	}
	tri := []geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	if got := PolyArea(tri); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("triangle area = %v", got)
	}
	if PolyArea(tri[:2]) != 0 {
		t.Errorf("degenerate polygon has zero area")
	}
}

func TestClipPolygonFullContainment(t *testing.T) {
	inner := []geom.Vec2{{X: 0.25, Y: 0.25}, {X: 0.75, Y: 0.25}, {X: 0.75, Y: 0.75}, {X: 0.25, Y: 0.75}}
	outer := []geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	got := PolyArea(ClipPolygon(inner, outer))
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("contained polygon must be unchanged, area %v", got)
	}
}

func TestClipPolygonDisjoint(t *testing.T) {
	a := []geom.Vec2{{X: 5, Y: 5}, {X: 6, Y: 5}, {X: 6, Y: 6}, {X: 5, Y: 6}}
	b := []geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	if got := PolyArea(ClipPolygon(a, b)); got != 0 {
		t.Errorf("disjoint polygons must clip to nothing, area %v", got)
	}
}

func TestClipPolygonHalfOverlap(t *testing.T) {
	a := []geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	b := []geom.Vec2{{X: 0.5, Y: 0}, {X: 1.5, Y: 0}, {X: 1.5, Y: 1}, {X: 0.5, Y: 1}}
	if got := PolyArea(ClipPolygon(a, b)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half overlap area = %v", got)
	}
}

func paperWedge() *geom.Wedge { return &geom.Wedge{LeadX: 20, Base: 25, Angle: 30 * deg} }

func TestVolumesNoWedge(t *testing.T) {
	g := New(8, 8)
	for _, v := range g.Volumes(nil) {
		if v != 1 {
			t.Fatalf("free cell volume must be 1")
		}
	}
}

func TestVolumesWithWedge(t *testing.T) {
	g := New(98, 64)
	w := paperWedge()
	vols := g.Volumes(w)
	// Total removed volume equals the wedge area: base·height/2.
	var removed float64
	for _, v := range vols {
		removed += 1 - v
	}
	wantArea := 25 * w.Height() / 2
	if math.Abs(removed-wantArea) > 1e-6 {
		t.Errorf("removed volume %v, wedge area %v", removed, wantArea)
	}
	// A cell fully inside the wedge near the back has zero volume.
	if v := vols[g.Index(43, 2)]; v != 0 {
		t.Errorf("deep interior cell volume = %v, want 0", v)
	}
	// A cell upstream of the wedge is free.
	if v := vols[g.Index(5, 5)]; v != 1 {
		t.Errorf("free cell volume = %v", v)
	}
	// A cell straddling the ramp has a strictly fractional volume.
	midX := 30
	surfY := int((30.5 - 20) * math.Tan(30*deg))
	v := vols[g.Index(midX, surfY)]
	if v <= 0 || v >= 1 {
		t.Errorf("ramp-cut cell volume = %v, want fractional", v)
	}
	// All volumes in [0, 1].
	for i, v := range vols {
		if v < 0 || v > 1 {
			t.Fatalf("cell %d volume %v out of range", i, v)
		}
	}
}

// TestVolumesConsistentWithContains cross-checks the clipper against Monte
// Carlo point sampling for a band of cut cells.
func TestVolumesConsistentWithContains(t *testing.T) {
	g := New(98, 64)
	w := paperWedge()
	vols := g.Volumes(w)
	body := w.Prepare()
	for _, cell := range []struct{ ix, iy int }{{25, 3}, {35, 8}, {44, 13}, {21, 0}} {
		idx := g.Index(cell.ix, cell.iy)
		const samples = 40000
		inside := 0
		// Deterministic low-discrepancy sampling is enough here.
		for i := 0; i < samples; i++ {
			fx := float64(i%200)/200 + 1.0/400
			fy := float64(i/200)/200 + 1.0/400
			p := geom.Vec2{X: float64(cell.ix) + fx, Y: float64(cell.iy) + fy}
			if body.Contains(p) {
				inside++
			}
		}
		mc := 1 - float64(inside)/samples
		if math.Abs(mc-vols[idx]) > 0.02 {
			t.Errorf("cell (%d,%d): clipped volume %v, sampled %v", cell.ix, cell.iy, vols[idx], mc)
		}
	}
}
