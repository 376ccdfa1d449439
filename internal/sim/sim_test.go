package sim

import (
	"math"
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/phys"
	"dsmc/internal/sample"
)

// smallConfig is a cheap but physically sane configuration for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig(1)
	cfg.NX, cfg.NY = 48, 24
	cfg.Wedge = &geom.Wedge{LeadX: 10, Base: 12, Angle: 30 * math.Pi / 180}
	cfg.NPerCell = 6
	cfg.Seed = 7
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	type vcase struct {
		name   string
		mutate func(*Config)
	}
	cases := []vcase{
		{"zero grid", func(c *Config) { c.NX = 0 }},
		{"zero density", func(c *Config) { c.NPerCell = 0 }},
		{"zero thermal speed", func(c *Config) { c.Free.Cm = 0 }},
		{"subsonic", func(c *Config) { c.Free.Mach = 0.5 }},
		{"wedge too tall", func(c *Config) {
			c.Wedge = &geom.Wedge{LeadX: 1, Base: 40, Angle: 40 * math.Pi / 180}
		}},
		{"time step too large", func(c *Config) { c.Free.Cm = 0.9 }},
	}
	// A wedge whose slope the prepared geometry cannot represent, in
	// either slot. Several of these fit the tunnel by the height test
	// alone: tan is negative past π/2, and NaN fails every comparison.
	for _, bad := range []struct {
		name        string
		base, angle float64
	}{
		{"zero base", 0, 0.5},
		{"negative base", -3, 0.5},
		{"NaN base", math.NaN(), 0.5},
		{"zero angle", 4, 0},
		{"negative angle", 4, -0.5},
		{"right angle", 4, math.Pi / 2},
		{"obtuse angle", 4, 2},
		{"NaN angle", 4, math.NaN()},
		{"infinite angle", 4, math.Inf(1)},
	} {
		cases = append(cases,
			vcase{"wedge " + bad.name, func(c *Config) {
				c.Wedge = &geom.Wedge{LeadX: 10, Base: bad.base, Angle: bad.angle}
			}},
			vcase{"second wedge " + bad.name, func(c *Config) {
				c.Wedge2 = &geom.Wedge{LeadX: 30, Base: bad.base, Angle: bad.angle}
			}})
	}
	for _, tc := range cases {
		cfg := smallConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(1)
	if cfg.NX != 98 || cfg.NY != 64 {
		t.Errorf("grid %dx%d, paper uses 98x64", cfg.NX, cfg.NY)
	}
	if cfg.Wedge.LeadX != 20 || cfg.Wedge.Base != 25 {
		t.Errorf("wedge placement: paper places it 20 cells in, 25 wide")
	}
	if math.Abs(cfg.Wedge.Angle-30*math.Pi/180) > 1e-12 {
		t.Errorf("wedge angle must be 30°")
	}
	if cfg.Free.Mach != 4 {
		t.Errorf("paper simulates Mach 4")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestNewPlacesFreestream(t *testing.T) {
	cfg := smallConfig()
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Store()
	if st.Len() == 0 {
		t.Fatal("no particles placed")
	}
	var sumU float64
	tun := geom.Tunnel{W: float64(cfg.NX), H: float64(cfg.NY), Wedge: cfg.Wedge}.Prepare()
	for i := 0; i < st.Len(); i++ {
		p := geom.Vec2{X: st.X[i], Y: st.Y[i]}
		if !tun.Inside(p) {
			t.Fatalf("initial particle outside gas region: %v", p)
		}
		sumU += st.U[i]
	}
	meanU := sumU / float64(st.Len())
	if math.Abs(meanU-cfg.Free.Velocity()) > 0.02*cfg.Free.Velocity() {
		t.Errorf("mean streamwise velocity %v, want %v", meanU, cfg.Free.Velocity())
	}
	if s.NReservoir() == 0 {
		t.Errorf("reservoir must start stocked")
	}
}

func TestStepMaintainsInvariants(t *testing.T) {
	cfg := smallConfig()
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	n0 := s.NFlow()
	tun := geom.Tunnel{W: float64(cfg.NX), H: float64(cfg.NY), Wedge: cfg.Wedge}
	body := cfg.Wedge.Prepare()
	for step := 0; step < 60; step++ {
		s.Step()
		st := s.Store()
		for i := 0; i < st.Len(); i++ {
			if math.IsNaN(st.X[i]) || math.IsNaN(st.U[i]) {
				t.Fatalf("NaN state at step %d", step)
			}
			if st.Y[i] < 0 || st.Y[i] > tun.H {
				t.Fatalf("particle outside walls at step %d: y=%v", step, st.Y[i])
			}
			if body.Contains(geom.Vec2{X: st.X[i], Y: st.Y[i]}) {
				t.Fatalf("particle inside wedge at step %d", step)
			}
		}
	}
	if s.StepCount() != 60 {
		t.Errorf("StepCount = %d", s.StepCount())
	}
	// The plunger refills keep the flow population near its target.
	if f := float64(s.NFlow()) / float64(n0); f < 0.85 || f > 1.15 {
		t.Errorf("flow population drifted to %.2f of initial", f)
	}
	if s.Collisions() == 0 {
		t.Errorf("no collisions occurred")
	}
}

func TestPlungerCycleRefillsVoid(t *testing.T) {
	cfg := smallConfig()
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run long enough for several plunger cycles
	// (trigger / u∞ ≈ 10 steps per cycle).
	s.Run(40)
	st := s.Store()
	// The upstream band must be populated (void refilled), with roughly
	// freestream density.
	inBand := 0
	for i := 0; i < st.Len(); i++ {
		if st.X[i] < 4 {
			inBand++
		}
	}
	want := cfg.NPerCell * 4 * float64(cfg.NY)
	if f := float64(inBand) / want; f < 0.6 || f > 1.4 {
		t.Errorf("upstream band population %.2f of freestream target", f)
	}
}

func TestReservoirExchanges(t *testing.T) {
	cfg := smallConfig()
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	res0 := s.NReservoir()
	s.Run(50)
	// Particles exit downstream into the reservoir and are withdrawn by
	// the plunger refills; the reservoir level must have moved at least
	// once (statistically certain at these rates).
	if s.NReservoir() == res0 && s.Collisions() == 0 {
		t.Errorf("reservoir never exchanged particles")
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	cfg := smallConfig()
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	pt := s.PhaseTimes()
	for _, name := range []string{"move+boundary", "sort", "select", "collide"} {
		if _, ok := pt[name]; !ok {
			t.Errorf("missing phase %q", name)
		}
	}
	if pt["sort"] <= 0 {
		t.Errorf("sort time not recorded")
	}
}

func TestDiffuseWallsRun(t *testing.T) {
	cfg := smallConfig()
	cfg.Wall = geom.DiffuseState{Model: geom.DiffuseIsothermal, WallCm: cfg.Free.Cm}
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	st := s.Store()
	body := cfg.Wedge.Prepare()
	for i := 0; i < st.Len(); i++ {
		if st.Y[i] < 0 || st.Y[i] > float64(cfg.NY) {
			t.Fatalf("diffuse wall leaked a particle")
		}
		if body.Contains(geom.Vec2{X: st.X[i], Y: st.Y[i]}) {
			t.Fatalf("diffuse wall left a particle in the wedge")
		}
	}
}

// TestEmptyTunnelStaysFreestream: with no body, the wind tunnel must hold
// uniform freestream density — the plunger and sink in equilibrium. This
// is the cleanest end-to-end check of the boundary machinery.
func TestEmptyTunnelStaysFreestream(t *testing.T) {
	cfg := smallConfig()
	cfg.Wedge = nil
	cfg.NPerCell = 12
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(60) // several flow-through times of the 48-cell tunnel
	acc := sample.NewAccumulator(s.Grid(), s.Volumes(), cfg.NPerCell)
	for k := 0; k < 40; k++ {
		s.Step()
		sample.AddFlow(acc, s.Store())
	}
	rho := acc.Density()
	mean := sample.RegionMean(rho, s.Grid(), s.Volumes(), 2, 2, cfg.NX-2, cfg.NY-2)
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("empty-tunnel density %.3f, want 1.0", mean)
	}
	// No systematic streamwise gradient.
	up := sample.RegionMean(rho, s.Grid(), s.Volumes(), 2, 2, cfg.NX/2, cfg.NY-2)
	down := sample.RegionMean(rho, s.Grid(), s.Volumes(), cfg.NX/2, 2, cfg.NX-2, cfg.NY-2)
	if math.Abs(up-down) > 0.08 {
		t.Errorf("streamwise density gradient: upstream %.3f downstream %.3f", up, down)
	}
}

// TestWedgeShockValidation is the paper's validation experiment at reduced
// scale: Mach 4 over the 30° wedge must produce a ~45° shock with a ~3.7
// density rise. Run with the rarefied setting (λ∞ = 0.5).
func TestWedgeShockValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: full wedge flow")
	}
	cfg := DefaultConfig(1)
	cfg.NPerCell = 8
	cfg.Seed = 42
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(600) // reach steady state
	acc := sample.NewAccumulator(s.Grid(), s.Volumes(), cfg.NPerCell)
	for k := 0; k < 300; k++ {
		s.Step()
		sample.AddFlow(acc, s.Store())
	}
	rho := acc.Density()

	beta, err := phys.ObliqueShockBeta(4, 30*math.Pi/180, phys.GammaDiatomic)
	if err != nil {
		t.Fatal(err)
	}
	wantRatio := phys.RHDensityRatio(phys.NormalMach(4, beta), phys.GammaDiatomic)

	// Shock angle from the density front above the ramp.
	angle := sample.ShockAngle(rho, s.Grid(), 26, 43, wantRatio)
	if math.IsNaN(angle) {
		t.Fatal("no shock front found")
	}
	angleDeg := angle * 180 / math.Pi
	if math.Abs(angleDeg-45) > 5 {
		t.Errorf("shock angle %.1f°, theory 45°", angleDeg)
	}

	// Post-shock density in the region between ramp and shock.
	post := sample.RegionMean(rho, s.Grid(), s.Volumes(), 36, 12, 44, 18)
	if math.Abs(post-wantRatio)/wantRatio > 0.2 {
		t.Errorf("post-shock density ratio %.2f, theory %.2f", post, wantRatio)
	}

	// Upstream of the shock the gas is undisturbed.
	upstream := sample.RegionMean(rho, s.Grid(), s.Volumes(), 2, 2, 16, 40)
	if math.Abs(upstream-1) > 0.08 {
		t.Errorf("freestream density %.3f, want 1", upstream)
	}
}

// TestVibrationalModeRuns exercises the future-work vibrational
// relaxation: with ZVib enabled the flow carries vibrational energy whose
// per-particle level stays near the freestream equilibrium (2·sigma² for
// two continuous degrees of freedom), and the combined
// translational+rotational+vibrational energy per particle is stationary.
func TestVibrationalModeRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Wedge = nil // empty tunnel: the whole flow stays at freestream T
	cfg.ZVib = 5
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	sigma := cfg.Free.ComponentSigma()
	wantVib := 2 * sigma * sigma
	vib0 := s.TotalVibEnergy() / float64(s.NFlow())
	if math.Abs(vib0-wantVib)/wantVib > 0.1 {
		t.Fatalf("initial vib energy %v, equilibrium %v", vib0, wantVib)
	}
	e0 := (s.TotalEnergy() + s.TotalVibEnergy()) / float64(s.NFlow())
	s.Run(80)
	vib1 := s.TotalVibEnergy() / float64(s.NFlow())
	if math.Abs(vib1-wantVib)/wantVib > 0.25 {
		t.Errorf("vibrational energy drifted from equilibrium: %v vs %v", vib1, wantVib)
	}
	e1 := (s.TotalEnergy() + s.TotalVibEnergy()) / float64(s.NFlow())
	// The wind tunnel is open (plunger work, in/outflow), so only demand
	// the per-particle energy stays in a physical band.
	if math.Abs(e1-e0)/e0 > 0.2 {
		t.Errorf("total per-particle energy drifted: %v -> %v", e0, e1)
	}
	if s.Collisions() == 0 {
		t.Errorf("no collisions")
	}
}
