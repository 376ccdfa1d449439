package sim

import (
	"math"
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/grid"
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// oracleMove is the move pass as two passes: the blocked advance kernel
// over the whole range, then the boundary sweep with the fast reject and
// the cell index spelled out as they were defined before the one-pass
// loop — every body tested at every height, and the cell taken by
// math.Floor. It returns the exit list.
func oracleMove[F kernel.Float](d *wedgeDomain[F], st *particle.Store[F], lo, hi int) []int32 {
	kernel.Advance2(st.X[lo:hi], st.Y[lo:hi], st.U[lo:hi], st.V[lo:hi])
	px, uInf := d.plungerX, d.uInf
	var ex []int32
	for i := lo; i < hi; i++ {
		x := float64(st.X[i])
		if x > d.tun.W {
			ex = append(ex, int32(i))
			continue
		}
		if x < px {
			st.X[i] = F(2*px - x)
			st.U[i] = F(2*uInf - float64(st.U[i]))
			x = float64(st.X[i])
		}
		y := float64(st.Y[i])
		if y < 0 || y > d.tun.H || d.tun.ContainingBody(geom.Vec2{X: x, Y: y}) != nil {
			d.reflectWalls(st, i)
			x, y = float64(st.X[i]), float64(st.Y[i])
		}
		st.Cell[i] = int32(floorCellOf(d.grid, x, y))
	}
	return ex
}

// floorCellOf is grid.Grid.CellOf by its floor definition.
func floorCellOf(g grid.Grid, x, y float64) int {
	ix, iy := int(math.Floor(x)), int(math.Floor(y))
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

// moveCase is one tunnel the move pass is checked on.
type moveCase struct {
	name string
	d64  *wedgeDomain[float64]
	d32  *wedgeDomain[float32]
}

// moveCases builds the paper tunnel with specular and diffuse-isothermal
// walls, each with one wedge and with a second, taller one behind it (so
// the tunnel's Top comes from the second body).
func moveCases(t testing.TB) []moveCase {
	var out []moveCase
	for _, wall := range []geom.DiffuseState{{}, {Model: geom.DiffuseIsothermal, WallCm: 0.125}} {
		for _, two := range []bool{false, true} {
			cfg := DefaultConfig(0.001)
			cfg.Workers = 1
			cfg.Wall = wall
			name := "specular"
			if wall.Model != geom.Specular {
				name = "diffuse"
			}
			if two {
				cfg.Wedge2 = &geom.Wedge{LeadX: 55, Base: 30, Angle: 40 * math.Pi / 180}
				name += "/two-wedges"
			}
			s64, err := NewOf[float64](cfg)
			if err != nil {
				t.Fatal(err)
			}
			s32, err := NewOf[float32](cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, moveCase{name, s64.dom, s32.dom})
		}
	}
	return out
}

// moveParticles is the store one check runs on: background particles
// from seed, scattered over the tunnel and three cells beyond each edge
// with fast velocities, and the fuzzed particle at an index seed picks.
const moveParticles = 17

func fillMoveStore[F kernel.Float](st *particle.Store[F], x, y, u, v float64, seed uint64) {
	r := rng.NewStream(seed)
	at := int(seed % moveParticles)
	st.SetLen(moveParticles)
	for i := 0; i < moveParticles; i++ {
		px, py := r.Float64()*104-3, r.Float64()*70-3
		pu, pv := r.Gaussian(0, 1), r.Gaussian(0, 1)
		if i == at {
			px, py, pu, pv = x, y, u, v
		}
		st.X[i], st.Y[i], st.U[i], st.V[i] = F(px), F(py), F(pu), F(pv)
		st.W[i], st.R1[i], st.R2[i] = F(r.Gaussian(0, 1)), F(r.Gaussian(0, 1)), F(r.Gaussian(0, 1))
		st.Cell[i] = -1
	}
}

// checkMovePass runs Move and the oracle on identical stores, with the
// plunger at px, and requires every column, the cell index and the exit
// list to agree bit for bit.
func checkMovePass[F kernel.Float](t *testing.T, name string, d *wedgeDomain[F], x, y, u, v, px float64, seed uint64) {
	t.Helper()
	got, want := particle.NewStore[F](moveParticles), particle.NewStore[F](moveParticles)
	fillMoveStore(got, x, y, u, v, seed)
	fillMoveStore(want, x, y, u, v, seed)
	d.PreMove()
	d.plungerX = px
	d.Move(got, 0, 0, moveParticles)
	wantEx := oracleMove(d, want, 0, moveParticles)
	gotEx := d.exits[0]
	if len(gotEx) != len(wantEx) {
		t.Fatalf("%s: exits %v, oracle %v", name, gotEx, wantEx)
	}
	for k := range gotEx {
		if gotEx[k] != wantEx[k] {
			t.Fatalf("%s: exits %v, oracle %v", name, gotEx, wantEx)
		}
	}
	bits := func(f F) uint64 { return math.Float64bits(float64(f)) }
	cols := [...]struct {
		name      string
		got, want []F
	}{
		{"X", got.X, want.X}, {"Y", got.Y, want.Y}, {"U", got.U, want.U}, {"V", got.V, want.V},
		{"W", got.W, want.W}, {"R1", got.R1, want.R1}, {"R2", got.R2, want.R2},
	}
	for i := 0; i < moveParticles; i++ {
		for _, c := range cols {
			if bits(c.got[i]) != bits(c.want[i]) {
				t.Fatalf("%s: particle %d column %s = %v, oracle %v (input %v %v %v %v, plunger %v, seed %d)",
					name, i, c.name, c.got[i], c.want[i], x, y, u, v, px, seed)
			}
		}
		if got.Cell[i] != want.Cell[i] {
			t.Fatalf("%s: particle %d cell %d, oracle %d (input %v %v %v %v, plunger %v, seed %d)",
				name, i, got.Cell[i], want.Cell[i], x, y, u, v, px, seed)
		}
	}
}

// FuzzMovePass holds the one-pass move loop to the two passes it
// replaced (oracleMove): the same bits in every column, the same cell
// index and the same exit list, at both precisions, with specular and
// diffuse-isothermal walls, and with one wedge or two.
func FuzzMovePass(f *testing.F) {
	cases := moveCases(f)
	single := geom.Tunnel{W: 98, H: 64, Wedge: DefaultConfig(1).Wedge}.Prepare()
	double := cases[1].d64.tun
	const w, h, px = 98.0, 64.0, 0.5
	ramp := func(x float64) float64 { return (x - 20) * math.Tan(30*math.Pi/180) }
	inf := math.Inf(1)
	type seedPoint struct{ x, y, u, v, px float64 }
	points := []seedPoint{
		{30, 40, 0.5, 0.1, px},                                 // free stream
		{30, -0.3, 0.1, -0.2, px}, {30, h + 0.3, 0.1, 0.2, px}, // beyond each wall
		{30, h - 0.1, 0, 0.5, px}, {30, 0.1, 0, -0.5, px}, // crossing each wall
		{30, 1, 0.2, 0, px}, {70, 5, 0.2, 0, px}, {80, 18, 0.2, 0, px}, // inside the first body, the second, the second above the first's apex
		{30, ramp(30), 0, 0, px}, {30, math.Nextafter(ramp(30), 0), 0, 0, px}, // on and beside the ramp
		{20.4, -0.2, 0.1, 0.1, px},                // wall+ramp corner pocket
		{0.2, 30, 0.1, 0, 1}, {-2, 10, 0.3, 0, 1}, // behind the plunger
		{w + 0.1, 30, 0.5, 0, px}, {w - 0.2, 30, 0.5, 0, px}, // past the sink, crossing it
		{w, 30, 0, 0, px}, {0, 0, 0, 0, 0}, {w, h, 0, 0, px}, // on the edges
		{math.NaN(), 5, 0, 0, px}, {30, math.NaN(), 0, 0, px}, {inf, 5, 0, 0, px}, {-inf, 5, 0, 0, px}, {30, inf, 0, 0, px}, {30, -inf, 0, 0, px},
	}
	// At each tunnel's Top and one ulp either side, at the highest body's
	// trailing edge and a cell ahead of it.
	for _, top := range []struct{ y, trail float64 }{{single.Top, 45}, {double.Top, 85}} {
		for _, y := range []float64{top.y, math.Nextafter(top.y, inf), math.Nextafter(top.y, -inf)} {
			points = append(points, seedPoint{math.Nextafter(top.trail, 0), y, 0, 0, px}, seedPoint{top.trail - 1, y, 0, 0, px})
		}
	}
	for k, p := range points {
		f.Add(p.x, p.y, p.u, p.v, p.px, uint64(k))
	}
	f.Fuzz(func(t *testing.T, x, y, u, v, px float64, seed uint64) {
		for _, c := range cases {
			checkMovePass(t, c.name+"/float64", c.d64, x, y, u, v, px, seed)
			checkMovePass(t, c.name+"/float32", c.d32, x, y, u, v, px, seed)
		}
	})
}
