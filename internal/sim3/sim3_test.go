package sim3

import (
	"math"
	"testing"

	"dsmc/internal/molec"
	"dsmc/internal/phys"
)

func tubeConfig() Config {
	return Config{
		NX: 160, NY: 4, NZ: 4,
		Cm:          0.125,
		Lambda:      0,     // collide-all gives the sharpest shock
		PistonSpeed: 0.131, // Ms ≈ 2 for γ = 1.4
		NPerCell:    14,
		Seed:        21,
	}
}

func TestGrid3Index(t *testing.T) {
	g := Grid3{4, 3, 2}
	if g.Cells() != 24 {
		t.Errorf("Cells = %d", g.Cells())
	}
	seen := map[int]bool{}
	for iz := 0; iz < 2; iz++ {
		for iy := 0; iy < 3; iy++ {
			for ix := 0; ix < 4; ix++ {
				idx := g.Index(ix, iy, iz)
				if idx < 0 || idx >= 24 || seen[idx] {
					t.Fatalf("index collision at (%d,%d,%d)", ix, iy, iz)
				}
				seen[idx] = true
			}
		}
	}
	if g.CellOf(0.5, 0.5, 0.5) != 0 {
		t.Errorf("origin cell")
	}
	if g.CellOf(3.9, 2.9, 1.9) != 23 {
		t.Errorf("far cell")
	}
	// Clamping.
	if g.CellOf(-1, 5, 9) != g.Index(0, 2, 1) {
		t.Errorf("clamp")
	}
}

// TestClampCellTruncationIsFloor pins clampCell's truncating index to
// the floor definition it replaced: the two differ only below zero,
// where both clamp to 0, and the conversion's values with no integer
// (±Inf, NaN, ±1e300) land where the floor's did.
func TestClampCellTruncationIsFloor(t *testing.T) {
	const n = 12
	floorCell := func(v float64) int {
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
		0, math.Copysign(0, -1), -0.25, -0.5, -0.999, -1, -1.5, math.Nextafter(0, -1),
		math.SmallestNonzeroFloat64, 0.5, 1, 3.999, 11, math.Nextafter(n, 0), n, math.Nextafter(n, inf),
		1e300, -1e300, 1 << 62, 1 << 63, -(1 << 63), inf, -inf, math.NaN(),
	} {
		if got, want := clampCell(v, n), floorCell(v); got != want {
			t.Errorf("clampCell(%v, %d) = %d, the floor definition gives %d", v, n, got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := tubeConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tubeConfig()
	bad.NZ = 0
	if bad.Validate() == nil {
		t.Errorf("zero dimension")
	}
	bad = tubeConfig()
	bad.PistonSpeed = -1
	if bad.Validate() == nil {
		t.Errorf("retreating piston")
	}
	bad = tubeConfig()
	bad.Cm = 0
	if bad.Validate() == nil {
		t.Errorf("zero thermal speed")
	}
}

func TestTheoryPistonShock(t *testing.T) {
	cfg := tubeConfig()
	ws, ratio := cfg.Theory()
	gamma := molec.Maxwell().Gamma()
	a1 := cfg.Cm * math.Sqrt(gamma/2)
	ms := ws / a1
	// The Ms equation must be satisfied.
	lhs := cfg.PistonSpeed / a1
	rhs := 2 / (gamma + 1) * (ms - 1/ms)
	if math.Abs(lhs-rhs) > 1e-12 {
		t.Errorf("piston-shock relation violated: %v vs %v", lhs, rhs)
	}
	if math.Abs(ratio-phys.RHDensityRatio(ms, gamma)) > 1e-12 {
		t.Errorf("density ratio inconsistent with RH")
	}
	// Zero piston speed degenerates to an acoustic wave: Ms = 1.
	still := cfg
	still.PistonSpeed = 0
	ws0, r0 := still.Theory()
	if math.Abs(ws0-a1) > 1e-12 || math.Abs(r0-1) > 1e-12 {
		t.Errorf("zero-speed piston must give Ms=1, ratio=1: %v %v", ws0, r0)
	}
}

func TestQuiescentBoxConserves(t *testing.T) {
	cfg := tubeConfig()
	cfg.PistonSpeed = 0
	cfg.NX = 24
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	e0, _, _ := s.TotalEnergyAndMomentum()
	s.Run(40)
	e1, py, pz := s.TotalEnergyAndMomentum()
	if math.Abs(e1-e0)/e0 > 1e-9 {
		t.Errorf("closed box with static piston must conserve energy: %v -> %v", e0, e1)
	}
	nf := float64(s.N())
	if math.Abs(py)/nf > 0.01 || math.Abs(pz)/nf > 0.01 {
		t.Errorf("transverse momentum drift: %v %v", py/nf, pz/nf)
	}
	if s.Collisions() == 0 {
		t.Errorf("no collisions in a dense box")
	}
}

func TestQuiescentDensityUniform(t *testing.T) {
	cfg := tubeConfig()
	cfg.PistonSpeed = 0
	cfg.NX = 40
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	prof := s.DensityProfile()
	for ix := 1; ix < len(prof)-1; ix++ {
		if math.Abs(prof[ix]-1) > 0.25 {
			t.Fatalf("density at slab %d = %v, want ~1", ix, prof[ix])
		}
	}
}

// TestPistonShockRankineHugoniot is the 3D validation experiment: the
// piston-driven normal shock must propagate at the theoretical speed and
// compress the gas by the Rankine–Hugoniot ratio.
func TestPistonShockRankineHugoniot(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: 3D shock tube")
	}
	cfg := tubeConfig()
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSpeed, wantRatio := cfg.Theory()

	// Let the shock form, then track its position over a window.
	s.Run(250)
	x0 := s.ShockPosition()
	const window = 350
	s.Run(window)
	x1 := s.ShockPosition()
	if math.IsNaN(x0) || math.IsNaN(x1) {
		t.Fatal("shock front not found")
	}
	speed := (x1 - x0) / window
	if math.Abs(speed-wantSpeed)/wantSpeed > 0.12 {
		t.Errorf("shock speed %.4f cells/step, theory %.4f", speed, wantSpeed)
	}
	if ratio := s.PostShockDensity(); math.Abs(ratio-wantRatio)/wantRatio > 0.12 {
		t.Errorf("post-shock density %.2f, theory %.2f", ratio, wantRatio)
	}
	// The gas ahead of the shock is still quiescent at density 1.
	prof := s.DensityProfile()
	probe := int(x1) + 15
	if probe < len(prof)-2 {
		if math.Abs(prof[probe]-1) > 0.15 {
			t.Errorf("pre-shock density %v, want 1", prof[probe])
		}
	}
	// Piston never outruns the shock.
	if s.PistonX() >= x1 {
		t.Errorf("piston at %v passed the shock at %v", s.PistonX(), x1)
	}
}

func TestStepAdvancesAndCounts(t *testing.T) {
	cfg := tubeConfig()
	cfg.NX = 24
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	if s.StepCount() != 5 {
		t.Errorf("StepCount = %d", s.StepCount())
	}
	if s.PistonX() <= 0 {
		t.Errorf("piston did not advance")
	}
	// All particles legal and ahead of the piston.
	st := s.Store()
	for i := 0; i < st.Len(); i++ {
		if st.X[i] < s.PistonX()-1e-9 || st.X[i] > float64(cfg.NX) {
			t.Fatalf("particle %d at x=%v outside [piston, wall]", i, st.X[i])
		}
		if st.Y[i] < 0 || st.Y[i] > float64(cfg.NY) || st.Z[i] < 0 || st.Z[i] > float64(cfg.NZ) {
			t.Fatalf("particle %d outside the box", i)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := tubeConfig()
	cfg.NPerCell = 0
	if _, err := NewOf[float64](cfg); err == nil {
		t.Errorf("expected error")
	}
}
