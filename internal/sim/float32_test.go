package sim

import (
	"math"
	"testing"

	"dsmc/internal/phys"
	"dsmc/internal/sample"
)

// TestFloat32ParallelDeterminism: the float32 instantiation draws from
// the same float64-keyed counter-based streams, so it too must be
// bit-identical for any worker count.
func TestFloat32ParallelDeterminism(t *testing.T) {
	run := func(workers int) *SimOf[float32] {
		cfg := smallConfig()
		cfg.Workers = workers
		s, err := NewOf[float32](cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(15)
		return s
	}
	s1, s8 := run(1), run(8)
	if s1.NFlow() != s8.NFlow() || s1.Collisions() != s8.Collisions() {
		t.Fatalf("flow %d vs %d, collisions %d vs %d",
			s1.NFlow(), s8.NFlow(), s1.Collisions(), s8.Collisions())
	}
	a, b := s1.Store(), s8.Store()
	for i := 0; i < s1.NFlow(); i++ {
		if math.Float32bits(a.X[i]) != math.Float32bits(b.X[i]) ||
			math.Float32bits(a.U[i]) != math.Float32bits(b.U[i]) {
			t.Fatalf("state diverged at particle %d", i)
		}
	}
}

// TestFloat32TracksFloat64 is a cheap seam check: over a short transient
// the float32 flow must stay statistically on top of the float64 flow
// (identical draws, only storage rounding differs), so the aggregate
// counters match closely long before the trajectories decorrelate.
func TestFloat32TracksFloat64(t *testing.T) {
	cfg := smallConfig()
	s64, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := NewOf[float32](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s64.Run(10)
	s32.Run(10)
	if s64.NFlow() == 0 || s32.NFlow() == 0 {
		t.Fatal("empty flow")
	}
	if f := float64(s32.NFlow()) / float64(s64.NFlow()); f < 0.99 || f > 1.01 {
		t.Errorf("flow populations diverged: %d vs %d", s32.NFlow(), s64.NFlow())
	}
	c64, c32 := float64(s64.Collisions()), float64(s32.Collisions())
	if math.Abs(c32-c64)/c64 > 0.02 {
		t.Errorf("collision counts diverged: %v vs %v", c32, c64)
	}
	e64 := s64.TotalEnergy() / float64(s64.NFlow())
	e32 := s32.TotalEnergy() / float64(s32.NFlow())
	if math.Abs(e32-e64)/e64 > 0.01 {
		t.Errorf("per-particle energy diverged: %v vs %v", e32, e64)
	}
}

// TestWedgeShockValidationFloat32 is the paper's validation experiment on
// the float32 backend: Mach 4 over the 30° wedge must still produce the
// ~45° oblique shock and the ~3.7 Rankine–Hugoniot density rise, within
// tolerances loosened one notch over the float64 test (the rounding noise
// sits far below the statistical scatter at this particle count).
func TestWedgeShockValidationFloat32(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: full wedge flow")
	}
	cfg := DefaultConfig(1)
	cfg.NPerCell = 8
	cfg.Seed = 42
	s, err := NewOf[float32](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(600) // reach steady state
	acc := sample.NewAccumulator(s.Grid(), s.Volumes(), cfg.NPerCell)
	for k := 0; k < 300; k++ {
		s.Step()
		s.SampleInto(acc)
	}
	rho := acc.Density()

	beta, err := phys.ObliqueShockBeta(4, 30*math.Pi/180, phys.GammaDiatomic)
	if err != nil {
		t.Fatal(err)
	}
	wantRatio := phys.RHDensityRatio(phys.NormalMach(4, beta), phys.GammaDiatomic)

	angle := sample.ShockAngle(rho, s.Grid(), 26, 43, wantRatio)
	if math.IsNaN(angle) {
		t.Fatal("no shock front found")
	}
	angleDeg := angle * 180 / math.Pi
	if math.Abs(angleDeg-45) > 6 {
		t.Errorf("float32 shock angle %.1f°, theory 45°", angleDeg)
	}
	post := sample.RegionMean(rho, s.Grid(), s.Volumes(), 36, 12, 44, 18)
	if math.Abs(post-wantRatio)/wantRatio > 0.25 {
		t.Errorf("float32 post-shock density ratio %.2f, theory %.2f", post, wantRatio)
	}
	upstream := sample.RegionMean(rho, s.Grid(), s.Volumes(), 2, 2, 16, 40)
	if math.Abs(upstream-1) > 0.1 {
		t.Errorf("float32 freestream density %.3f, want 1", upstream)
	}
}
