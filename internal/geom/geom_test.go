package geom

import (
	"math"
	"testing"
	"testing/quick"

	"dsmc/internal/rng"
)

const deg = math.Pi / 180

func paperWedge() Wedge { return Wedge{LeadX: 20, Base: 25, Angle: 30 * deg} }

func TestWedgeDerivedGeometry(t *testing.T) {
	w := paperWedge()
	if math.Abs(w.Height()-25*math.Tan(30*deg)) > 1e-12 {
		t.Errorf("Height = %v", w.Height())
	}
	if w.TrailX() != 45 {
		t.Errorf("TrailX = %v", w.TrailX())
	}
	apex := w.Apex()
	if apex.X != 45 || math.Abs(apex.Y-w.Height()) > 1e-12 {
		t.Errorf("Apex = %v", apex)
	}
}

func TestWedgeContains(t *testing.T) {
	b := paperWedge().Prepare()
	cases := []struct {
		p    Vec2
		want bool
	}{
		{Vec2{10, 1}, false},      // upstream of wedge
		{Vec2{30, 1}, true},       // under the ramp
		{Vec2{30, 10}, false},     // above the ramp
		{Vec2{44, 10}, true},      // deep interior near back
		{Vec2{50, 1}, false},      // downstream
		{Vec2{30, -1}, false},     // below the wall is not "inside wedge"
		{Vec2{20, 0.5}, false},    // leading edge boundary
		{Vec2{45.0001, 5}, false}, // just past back face
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestFaceNormalsAreUnitAndOutward(t *testing.T) {
	w := paperWedge()
	b := w.Prepare()
	faces := [2]Face{b.Ramp, b.Back}
	for i, f := range faces {
		if math.Abs(f.N.Norm()-1) > 1e-12 {
			t.Errorf("face %d normal not unit: %v", i, f.N)
		}
	}
	// A point just outside the ramp must have negative depth (gas side).
	outside := Vec2{30, (30-20)*math.Tan(30*deg) + 0.1}
	if faces[0].Depth(outside) > 0 {
		t.Errorf("gas-side point has positive penetration depth")
	}
	inside := Vec2{30, (30-20)*math.Tan(30*deg) - 0.1}
	if faces[0].Depth(inside) < 0 {
		t.Errorf("solid-side point has negative depth")
	}
}

func TestMirrorPositionInvolution(t *testing.T) {
	f := Face{P: Vec2{0, 0}, N: Vec2{0, 1}}
	p := Vec2{3, -0.5}
	m := f.MirrorPosition(p)
	if math.Abs(m.Y-0.5) > 1e-12 || m.X != 3 {
		t.Errorf("mirror across y=0: %v", m)
	}
	if got := f.MirrorPosition(m); math.Abs(got.Y-p.Y) > 1e-12 {
		t.Errorf("mirror must be an involution")
	}
}

func TestReflectVelocityOnlyWhenIncoming(t *testing.T) {
	f := Face{P: Vec2{0, 0}, N: Vec2{0, 1}}
	in := Vec2{1, -2}
	out := f.ReflectVelocity(in)
	if out.Y != 2 || out.X != 1 {
		t.Errorf("specular reflection wrong: %v", out)
	}
	leaving := Vec2{1, 2}
	if f.ReflectVelocity(leaving) != leaving {
		t.Errorf("outgoing velocity must not be re-flipped")
	}
}

func TestReflectVelocityPreservesSpeed(t *testing.T) {
	w := paperWedge()
	ramp := w.Prepare().Ramp
	f := func(vx, vy float64) bool {
		v := Vec2{math.Mod(vx, 3), math.Mod(vy, 3)}
		r := ramp.ReflectVelocity(v)
		return math.Abs(r.Norm()-v.Norm()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTunnelWallReflection(t *testing.T) {
	tun := Tunnel{W: 98, H: 64}.Prepare()
	// Below the floor.
	p, v := tun.ReflectSpecular(Vec2{10, -0.3}, Vec2{0.5, -0.2})
	if math.Abs(p.Y-0.3) > 1e-12 || v.Y != 0.2 {
		t.Errorf("floor reflection: p=%v v=%v", p, v)
	}
	// Above the ceiling.
	p, v = tun.ReflectSpecular(Vec2{10, 64.5}, Vec2{0.5, 0.2})
	if math.Abs(p.Y-63.5) > 1e-12 || v.Y != -0.2 {
		t.Errorf("ceiling reflection: p=%v v=%v", p, v)
	}
	// Interior point untouched.
	p0, v0 := Vec2{5, 5}, Vec2{1, 1}
	if p, v = tun.ReflectSpecular(p0, v0); p != p0 || v != v0 {
		t.Errorf("interior point must be unchanged")
	}
}

func TestTunnelWedgeReflection(t *testing.T) {
	w := paperWedge()
	tun := Tunnel{W: 98, H: 64, Wedge: &w}.Prepare()
	// A particle that has just punched slightly through the ramp.
	surfY := func(x float64) float64 { return (x - 20) * math.Tan(30*deg) }
	p0 := Vec2{30, surfY(30) - 0.05}
	v0 := Vec2{0.4, -0.1}
	p, v := tun.ReflectSpecular(p0, v0)
	if body := w.Prepare(); body.Contains(p) {
		t.Errorf("reflected position still inside wedge: %v", p)
	}
	if math.Abs(v.Norm()-v0.Norm()) > 1e-12 {
		t.Errorf("specular reflection must preserve speed")
	}
	// Velocity must now move away from the ramp.
	if w.Prepare().Ramp.N.Dot(v) < 0 {
		t.Errorf("velocity still into the ramp after reflection")
	}
}

func TestTunnelBackFaceReflection(t *testing.T) {
	w := paperWedge()
	tun := Tunnel{W: 98, H: 64, Wedge: &w}.Prepare()
	// Particle in the wake hitting the vertical back face from downstream.
	p0 := Vec2{44.9, 3}
	v0 := Vec2{-0.5, 0}
	p, v := tun.ReflectSpecular(p0, v0)
	if body := w.Prepare(); body.Contains(p) {
		t.Errorf("still inside wedge: %v", p)
	}
	if v.X <= 0 {
		t.Errorf("back-face reflection must reverse u: %v", v)
	}
	if p.X < 45 {
		t.Errorf("mirrored position must be downstream of the back face: %v", p)
	}
}

// TestCornerPocketTerminates drives a particle into the wall/ramp corner,
// where multiple mirrors are needed; the iteration must terminate with a
// legal position.
func TestCornerPocketTerminates(t *testing.T) {
	w := paperWedge()
	tun := Tunnel{W: 98, H: 64, Wedge: &w}.Prepare()
	p, _ := tun.ReflectSpecular(Vec2{20.4, -0.2}, Vec2{0.7, -0.5})
	if !tun.Inside(p) {
		t.Errorf("corner reflection produced illegal position %v", p)
	}
}

func TestReflectionPropertyNeverInsideWedge(t *testing.T) {
	w := paperWedge()
	tun := Tunnel{W: 98, H: 64, Wedge: &w}.Prepare()
	body := w.Prepare()
	r := rng.NewStream(11)
	for i := 0; i < 20000; i++ {
		p0 := Vec2{r.Float64() * 98, r.Float64()*64 - 2}
		v0 := Vec2{r.Float64()*2 - 1, r.Float64()*2 - 1}
		p, v := tun.ReflectSpecular(p0, v0)
		if p.Y < 0 || p.Y > 64 || body.Contains(p) {
			t.Fatalf("illegal corrected position %v from %v", p, p0)
		}
		if math.Abs(v.Norm()-v0.Norm()) > 1e-9 {
			t.Fatalf("speed not preserved: %v -> %v", v0, v)
		}
	}
}

func TestInside(t *testing.T) {
	w := paperWedge()
	tun := Tunnel{W: 98, H: 64, Wedge: &w}.Prepare()
	if !tun.Inside(Vec2{5, 5}) {
		t.Errorf("free point must be inside")
	}
	if tun.Inside(Vec2{30, 1}) {
		t.Errorf("wedge interior is not gas")
	}
	if tun.Inside(Vec2{-1, 5}) || tun.Inside(Vec2{99, 5}) {
		t.Errorf("outside x bounds is not gas")
	}
}

func TestDiffuseIsothermalEmitsOutward(t *testing.T) {
	f := Face{P: Vec2{0, 0}, N: Vec2{0, 1}}
	d := DiffuseState{Model: DiffuseIsothermal, WallCm: 0.2}
	r := rng.NewStream(13)
	var meanN float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := d.Emit(f, Vec2{0.3, -0.4}, &r)
		if v.Y <= 0 {
			t.Fatalf("diffuse emission must leave the wall, got %v", v)
		}
		meanN += v.Y
	}
	// Flux-weighted half-Maxwellian normal component has mean cm·√π/2.
	want := 0.2 * math.SqrtPi / 2
	if math.Abs(meanN/n-want) > 0.01*want+0.002 {
		t.Errorf("mean normal emission speed %v, want %v", meanN/n, want)
	}
}

func TestDiffuseAdiabaticPreservesSpeed(t *testing.T) {
	f := Face{P: Vec2{0, 0}, N: Vec2{0, 1}}
	d := DiffuseState{Model: DiffuseAdiabatic, WallCm: 0.2}
	r := rng.NewStream(17)
	in := Vec2{0.3, -0.4}
	for i := 0; i < 1000; i++ {
		out := d.Emit(f, in, &r)
		if math.Abs(out.Norm()-in.Norm()) > 1e-12 {
			t.Fatalf("adiabatic wall must preserve speed: %v", out)
		}
		if out.Y <= 0 {
			t.Fatalf("adiabatic emission must leave the wall")
		}
	}
}

func TestSpecularModelDelegates(t *testing.T) {
	f := Face{P: Vec2{0, 0}, N: Vec2{0, 1}}
	d := DiffuseState{Model: Specular}
	r := rng.NewStream(19)
	in := Vec2{0.3, -0.4}
	out := d.Emit(f, in, &r)
	if out.X != 0.3 || out.Y != 0.4 {
		t.Errorf("specular model must mirror: %v", out)
	}
}

func TestEmitAuxMoments(t *testing.T) {
	d := DiffuseState{Model: DiffuseIsothermal, WallCm: 0.3}
	r := rng.NewStream(23)
	var sum, sum2 float64
	const n = 100000
	for i := 0; i < n; i++ {
		x := d.EmitAux(&r)
		sum += x
		sum2 += x * x
	}
	if math.Abs(sum/n) > 0.005 {
		t.Errorf("EmitAux mean = %v", sum/n)
	}
	want := 0.3 * 0.3 / 2
	if math.Abs(sum2/n-want) > 0.002 {
		t.Errorf("EmitAux variance = %v, want %v", sum2/n, want)
	}
}

func TestVecOps(t *testing.T) {
	a, b := Vec2{1, 2}, Vec2{3, -1}
	if a.Add(b) != (Vec2{4, 1}) || a.Sub(b) != (Vec2{-2, 3}) {
		t.Errorf("Add/Sub")
	}
	if a.Dot(b) != 1 {
		t.Errorf("Dot = %v", a.Dot(b))
	}
	if a.Scale(2) != (Vec2{2, 4}) {
		t.Errorf("Scale")
	}
	if math.Abs(Vec2{3, 4}.Norm()-5) > 1e-15 {
		t.Errorf("Norm")
	}
}

// FuzzBoundaryReject pins the move pass's fast reject to the boundary
// treatment it guards: Hit says "skip" only where ReflectSpecular returns
// its inputs bit for bit, and says "hit" exactly where the definition
// the prepared form replaced — walls by comparison, bodies by a
// math.Tan per call — finds a violated surface. The second wedge sits
// gap cells behind the first; base2 <= 0 leaves the tunnel single-body.
func FuzzBoundaryReject(f *testing.F) {
	const h, lead, base, angle = 64.0, 20.0, 25.0, 30 * deg
	const gap, base2, angle2 = 5.0, 10.0, 20 * deg
	ramp := func(x float64) float64 { return (x - lead) * math.Tan(angle) }
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Vec2{
		{10, 30}, {30, 1}, // free stream, deep inside
		{lead, 0.5}, {lead + base, 5}, // x == LeadX, x == TrailX
		{30, 0}, {30, math.Copysign(0, -1)}, {30, h}, // y == 0, -0, H
		{30, -0.3}, {30, h + 0.3}, // beyond each wall
		{lead + base, ramp(lead + base)}, {lead, 0}, // apex, leading edge
		{30, ramp(30)}, {30, math.Nextafter(ramp(30), 0)}, {30, math.Nextafter(ramp(30), inf)}, // on and beside the ramp line
		{20.4, -0.2}, {20.0001, 0.00001}, // wall+ramp corner pocket
		{lead + base + gap, 1}, {lead + base + gap + 5, 1}, {lead + base + gap + base2, 1}, // second body: edge, inside, back
		{nan, 5}, {30, nan}, {inf, 5}, {-inf, 5}, {30, inf}, {30, -inf},
	} {
		f.Add(p.X, p.Y, 0.5, -0.2, h, lead, base, angle, gap, 0.0, angle2)
		f.Add(p.X, p.Y, -0.5, 0.2, h, lead, base, angle, gap, base2, angle2)
	}
	// At the apex height, where Hit's Top cut-off sits, and one ulp either
	// side: on the single wedge, and with a second wedge taller than the
	// first, so that Top is the second body's apex.
	const tallBase, tallAngle = 30.0, 40 * deg
	first := &Wedge{LeadX: lead, Base: base, Angle: angle}
	single := Tunnel{W: 98, H: h, Wedge: first}.Prepare()
	tall := Tunnel{W: 98, H: h, Wedge: first, Wedge2: &Wedge{LeadX: lead + base + gap, Base: tallBase, Angle: tallAngle}}.Prepare()
	for _, c := range []struct {
		top, trail, base2, angle2 float64
	}{{single.Top, lead + base, 0, angle2}, {tall.Top, tall.Bodies[1].TrailX, tallBase, tallAngle}} {
		for _, y := range []float64{c.top, math.Nextafter(c.top, inf), math.Nextafter(c.top, -inf)} {
			for _, x := range []float64{math.Nextafter(c.trail, 0), c.trail, c.trail - 1} {
				f.Add(x, y, 0.5, -0.2, h, lead, base, angle, gap, c.base2, c.angle2)
			}
		}
	}
	valid := func(lead, base, angle float64) bool {
		return !math.IsNaN(lead) && !math.IsInf(lead, 0) && base > 0 && angle > 0 && angle < math.Pi/2
	}
	f.Fuzz(func(t *testing.T, x, y, u, v, h, lead, base, angle, gap, base2, angle2 float64) {
		if !(h > 0) || !valid(lead, base, angle) {
			t.Skip()
		}
		tun := Tunnel{W: 98, H: h, Wedge: &Wedge{LeadX: lead, Base: base, Angle: angle}}
		if lead2 := lead + base + gap; gap >= 0 && valid(lead2, base2, angle2) {
			tun.Wedge2 = &Wedge{LeadX: lead2, Base: base2, Angle: angle2}
		}
		inBody := func(w *Wedge) bool {
			return w != nil && x > w.LeadX && x < w.LeadX+w.Base && y > 0 && y < (x-w.LeadX)*math.Tan(w.Angle)
		}
		want := y < 0 || y > h || inBody(tun.Wedge) || inBody(tun.Wedge2)
		pt := tun.Prepare()
		hit := pt.Hit(x, y)
		if hit != want {
			t.Fatalf("Hit(%v, %v) = %v, the unprepared definition says %v (tunnel %+v %+v %+v)",
				x, y, hit, want, tun, tun.Wedge, tun.Wedge2)
		}
		if hit {
			return
		}
		p, w := pt.ReflectSpecular(Vec2{x, y}, Vec2{u, v})
		for k, pair := range [4][2]float64{{p.X, x}, {p.Y, y}, {w.X, u}, {w.Y, v}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("skipped particle (%v, %v) changed: component %d %v -> %v", x, y, k, pair[1], pair[0])
			}
		}
	})
}

// TestReflectSpecularPastMaxBounces drives the mirror iteration past
// maxBounces: a particle 20 heights beyond either wall is still outside
// after eight reflections, so the degenerate-pocket fallback (clampFree)
// places it. The result must lie in [0, H] and outside every body, with
// x, the velocity's x and the size of its y unchanged.
func TestReflectSpecularPastMaxBounces(t *testing.T) {
	const h = 64.0
	for _, tun := range []Tunnel{
		{W: 98, H: h, Wedge: &Wedge{LeadX: 20, Base: 25, Angle: 30 * deg}},
		{W: 98, H: h, Wedge: &Wedge{LeadX: 20, Base: 25, Angle: 30 * deg}, Wedge2: &Wedge{LeadX: 50, Base: 30, Angle: 40 * deg}},
	} {
		pt := tun.Prepare()
		for _, p := range []Vec2{{30, 20 * h}, {30, -20 * h}, {70, 20 * h}, {10, -20 * h}} {
			q, v := pt.ReflectSpecular(p, Vec2{0.3, 0.4})
			if !pt.Inside(q) {
				t.Errorf("ReflectSpecular(%v) = %v: not in the gas region of %+v", p, q, pt)
			}
			if q.X != p.X || v.X != 0.3 || math.Abs(v.Y) != 0.4 {
				t.Errorf("ReflectSpecular(%v) = %v, %v: only y and the sign of v.y may change", p, q, v)
			}
		}
	}
}
