package cmsim

import (
	"math"
	"testing"

	"dsmc/internal/fixed"
	"dsmc/internal/geom"
	"dsmc/internal/phys"
	"dsmc/internal/sample"
	"dsmc/internal/sim"
)

func smallConfig() Config {
	c := sim.DefaultConfig(1)
	c.NX, c.NY = 48, 24
	c.Wedge = &geom.Wedge{LeadX: 10, Base: 12, Angle: 30 * math.Pi / 180}
	c.NPerCell = 6
	c.Seed = 11
	return Config{Sim: c, PhysProcs: 64}
}

func TestNewSizesMachine(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine().VPs() < s.NFlow() {
		t.Errorf("machine smaller than flow population")
	}
	if s.NFlow()+s.NReservoir() != s.Machine().VPs() {
		t.Errorf("flow+reservoir must cover all virtual processors")
	}
	if s.NReservoir() == 0 {
		t.Errorf("reservoir must start populated (paper banks ~10%%)")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Sim.NPerCell = 0
	if _, err := New(cfg); err == nil {
		t.Errorf("expected validation error")
	}
}

func TestStepInvariants(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n0 := s.NFlow()
	body := s.cfg.Sim.Wedge.Prepare()
	for step := 0; step < 40; step++ {
		s.Step()
	}
	// All flow particles inside the gas region.
	for i := 0; i < s.Machine().VPs(); i++ {
		if s.region[i] != regionFlow {
			continue
		}
		x := fixed.Fix(s.x[i]).Float()
		y := fixed.Fix(s.y[i]).Float()
		if y < -1e-6 || y > 24+1e-6 {
			t.Fatalf("flow particle outside walls: y=%v", y)
		}
		if body.Contains(geom.Vec2{X: x, Y: y}) {
			t.Fatalf("flow particle inside wedge at (%v,%v)", x, y)
		}
	}
	if f := float64(s.NFlow()) / float64(n0); f < 0.8 || f > 1.2 {
		t.Errorf("flow population drifted to %.2f of initial", f)
	}
	if s.Collisions() == 0 {
		t.Errorf("no collisions")
	}
	if s.StepCount() != 40 {
		t.Errorf("StepCount = %d", s.StepCount())
	}
}

func TestCellCountsConsistent(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	counts := s.CellCounts()
	var total int32
	for _, c := range counts {
		total += c
	}
	if int(total) != s.NFlow() {
		t.Errorf("cell counts sum %d, flow %d", total, s.NFlow())
	}
}

// TestEnergyStability: with stochastic rounding the fixed-point pipeline
// must hold the per-particle energy of a freestream-equilibrium tunnel
// steady (the consistent-truncation bias the paper describes would show
// as a monotonic drain).
func TestEnergyStability(t *testing.T) {
	cfg := smallConfig()
	cfg.Sim.Wedge = nil
	cfg.Sim.NPerCell = 10
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perParticle := func() float64 {
		return s.TotalEnergy() / float64(s.Machine().VPs())
	}
	e0 := perParticle()
	s.Run(150)
	e1 := perParticle()
	if math.Abs(e1-e0)/e0 > 0.05 {
		t.Errorf("per-particle energy drifted %.1f%% over 150 steps", 100*(e1-e0)/e0)
	}
}

func TestPhaseCostsRecorded(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	book := s.Machine().Cost()
	for _, phase := range []string{"move", "sort", "select", "collide"} {
		if book.Phase(phase).Cycles <= 0 {
			t.Errorf("phase %q has no modelled cycles", phase)
		}
	}
	// The paper's ordering at full scale: collide is the most expensive
	// phase (39%), and the sort is substantial (27%).
	col := book.Phase("collide").Cycles
	mov := book.Phase("move").Cycles
	if col <= 0 || mov <= 0 {
		t.Fatalf("missing phase cycles")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		s, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Run(20)
		return s.Collisions(), s.TotalEnergy()
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 || e1 != e2 {
		t.Errorf("same seed must reproduce: %d/%v vs %d/%v", c1, e1, c2, e2)
	}
}

// TestPerParticleCostFallsWithVPRatio is the mechanism of Figure 7 at the
// full pipeline level: fixed machine size, growing particle count.
func TestPerParticleCostFallsWithVPRatio(t *testing.T) {
	perParticle := func(nPerCell float64) float64 {
		cfg := smallConfig()
		cfg.PhysProcs = 256
		cfg.Sim.NPerCell = nPerCell
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 10
		s.Run(steps)
		return float64(s.Machine().Cost().TotalCycles()) / float64(s.NFlow()*steps)
	}
	small := perParticle(1)
	large := perParticle(16)
	if large >= small {
		t.Errorf("per-particle cycles must fall with VP ratio: VPR~4 %v, VPR~64 %v", small, large)
	}
}

// TestWedgeShockCM validates the physics of the fixed-point data-parallel
// backend against theory, as the paper does (figures 1 and 4).
func TestWedgeShockCM(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: full wedge flow on the CM backend")
	}
	c := sim.DefaultConfig(1)
	c.NPerCell = 8
	c.Seed = 99
	s, err := New(Config{Sim: c, PhysProcs: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(600)
	acc := sample.NewAccumulator(s.Grid(), s.Volumes(), c.NPerCell)
	for k := 0; k < 300; k++ {
		s.Step()
		acc.AddCounts(s.CellCounts())
	}
	rho := acc.Density()
	beta, err := phys.ObliqueShockBeta(4, 30*math.Pi/180, phys.GammaDiatomic)
	if err != nil {
		t.Fatal(err)
	}
	wantRatio := phys.RHDensityRatio(phys.NormalMach(4, beta), phys.GammaDiatomic)
	angle := sample.ShockAngle(rho, s.Grid(), 26, 43, wantRatio) * 180 / math.Pi
	if math.IsNaN(angle) || math.Abs(angle-45) > 5 {
		t.Errorf("CM backend shock angle %.1f°, theory 45°", angle)
	}
	post := sample.RegionMean(rho, s.Grid(), s.Volumes(), 36, 12, 44, 18)
	if math.Abs(post-wantRatio)/wantRatio > 0.2 {
		t.Errorf("CM backend post-shock density %.2f, theory %.2f", post, wantRatio)
	}
	upstream := sample.RegionMean(rho, s.Grid(), s.Volumes(), 2, 2, 16, 20)
	if math.Abs(upstream-1) > 0.08 {
		t.Errorf("CM backend freestream density %.3f, want 1", upstream)
	}
}
