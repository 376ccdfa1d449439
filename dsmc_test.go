package dsmc

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// testConfig is a small, fast configuration exercising the full pipeline.
func testConfig() WedgeTunnel2D {
	cfg := PaperWedgeTunnel()
	cfg.GridNX, cfg.GridNY = 48, 24
	cfg.Wedge = WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30}
	cfg.ParticlesPerCell = 6
	cfg.Seed = 3
	return cfg
}

func TestPaperWedgeTunnelDefaults(t *testing.T) {
	cfg := PaperWedgeTunnel()
	if cfg.GridNX != 98 || cfg.GridNY != 64 {
		t.Errorf("paper grid is 98x64")
	}
	if cfg.Wedge.AngleDeg != 30 || cfg.Wedge.Base != 25 || cfg.Wedge.LeadX != 20 {
		t.Errorf("paper wedge: 30°, base 25, placed 20 cells in")
	}
	if cfg.Mach != 4 || cfg.MeanFreePath != 0.5 {
		t.Errorf("paper rarefied case: Mach 4, λ∞ = 0.5")
	}
	if _, err := NewSimulation(testConfig()); err != nil {
		t.Errorf("test config must build: %v", err)
	}
}

func TestConfigErrors(t *testing.T) {
	bad := testConfig()
	bad.GridNX = 0
	if _, err := NewSimulation(bad); err == nil {
		t.Errorf("zero grid must fail")
	}
	bad = testConfig()
	bad.Model = "quantum"
	if _, err := NewSimulation(bad); err == nil {
		t.Errorf("unknown model must fail")
	}
	bad = testConfig()
	bad.Mach = 0.5
	if _, err := NewSimulation(bad); err == nil {
		t.Errorf("subsonic must fail")
	}
}

func TestBothBackendsRun(t *testing.T) {
	build := map[Backend]func() (*Simulation, error){
		Reference:         func() (*Simulation, error) { return NewSimulation(testConfig()) },
		ConnectionMachine: func() (*Simulation, error) { return NewConnectionMachine(testConfig(), 64) },
	}
	for backend, newSim := range build {
		s, err := newSim()
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		s.Run(20)
		if s.StepCount() != 20 {
			t.Errorf("%v: StepCount = %d", backend, s.StepCount())
		}
		if s.Collisions() == 0 {
			t.Errorf("%v: no collisions", backend)
		}
		if s.NFlow() == 0 || s.NReservoir() == 0 {
			t.Errorf("%v: populations empty", backend)
		}
		if s.Backend() != backend {
			t.Errorf("Backend() = %v", s.Backend())
		}
		if got := s.MicrosecondsPerParticleStep(); got <= 0 {
			t.Errorf("%v: per-particle time %v", backend, got)
		}
		ph := s.PhaseSeconds()
		if len(ph) < 3 {
			t.Errorf("%v: phase breakdown missing: %v", backend, ph)
		}
	}
}

func TestModelPhaseCyclesOnlyOnCM(t *testing.T) {
	cfg := testConfig()
	s, _ := NewSimulation(cfg)
	if s.ModelPhaseCycles() != nil {
		t.Errorf("reference backend has no cycle model")
	}
	s, _ = NewConnectionMachine(cfg, 64)
	s.Run(3)
	cycles := s.ModelPhaseCycles()
	if cycles["collide"] <= 0 || cycles["sort"] <= 0 {
		t.Errorf("cycle model empty: %v", cycles)
	}
}

func TestTheoryPaperNumbers(t *testing.T) {
	cfg := PaperWedgeTunnel()
	s, err := NewSimulation(WedgeTunnel2D{
		GridNX: cfg.GridNX, GridNY: cfg.GridNY, Wedge: cfg.Wedge,
		Mach: 4, ThermalSpeed: 0.125, MeanFreePath: 0.5,
		ParticlesPerCell: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := s.Theory()
	if math.Abs(th.ShockAngleDeg-45) > 0.3 {
		t.Errorf("theory shock angle %.2f, paper quotes 45", th.ShockAngleDeg)
	}
	if math.Abs(th.DensityRatio-3.7) > 0.05 {
		t.Errorf("theory density ratio %.3f, paper quotes 3.7", th.DensityRatio)
	}
	if math.Abs(th.Knudsen-0.02) > 1e-12 {
		t.Errorf("Knudsen %.4f, paper quotes 0.02", th.Knudsen)
	}
	if th.Detached {
		t.Errorf("paper's shock is attached")
	}
}

func TestTheoryDetached(t *testing.T) {
	cfg := testConfig()
	cfg.Mach = 1.5
	cfg.Wedge.AngleDeg = 40
	cfg.MeanFreePath = 0.5
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Theory().Detached {
		t.Errorf("40° at Mach 1.5 must detach")
	}
}

func TestDensityFieldMethods(t *testing.T) {
	cfg := testConfig()
	cfg.ParticlesPerCell = 10
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(40)
	f := s.Sample(30).MustField(Density)
	if f.NX != cfg.GridNX || f.NY != cfg.GridNY {
		t.Fatalf("field shape %dx%d", f.NX, f.NY)
	}
	if fm := f.FreestreamMean(); math.Abs(fm-1) > 0.15 {
		t.Errorf("freestream density %.3f", fm)
	}
	if f.Max() <= 1 {
		t.Errorf("compression must exceed freestream, max %v", f.Max())
	}
	// Renderers produce plausible output.
	ascii := f.ASCII()
	if strings.Count(ascii, "\n") != cfg.GridNY {
		t.Errorf("ASCII map row count")
	}
	if len(f.Surface(8)) == 0 {
		t.Errorf("Surface empty")
	}
	var csv, pgm bytes.Buffer
	if err := f.WriteCSV(&csv); err != nil || csv.Len() == 0 {
		t.Errorf("CSV: %v", err)
	}
	if err := f.WritePGM(&pgm); err != nil || !bytes.HasPrefix(pgm.Bytes(), []byte("P5")) {
		t.Errorf("PGM: %v", err)
	}
	if segs := f.Contours(1.5); len(segs) == 0 {
		t.Errorf("no contours at level 1.5")
	}
	// Window extraction.
	win := f.Window(8, 0, 24, 12)
	if win.NX != 16 || win.NY != 12 {
		t.Errorf("window shape %dx%d", win.NX, win.NY)
	}
	if win.At(0, 0) != f.At(8, 0) {
		t.Errorf("window content mismatch")
	}
}

// TestPublicAPIShockValidation drives the whole paper validation through
// the public API on the reference backend at reduced scale.
func TestPublicAPIShockValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := PaperWedgeTunnel()
	cfg.ParticlesPerCell = 8
	cfg.Seed = 5
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(600)
	f := s.Sample(300).MustField(Density)
	th := s.Theory()
	if got := f.ShockAngleDeg(); math.Abs(got-th.ShockAngleDeg) > 5 {
		t.Errorf("measured shock angle %.1f°, theory %.1f°", got, th.ShockAngleDeg)
	}
	if got := f.PostShockMean(); math.Abs(got-th.DensityRatio)/th.DensityRatio > 0.25 {
		t.Errorf("post-shock density %.2f, theory %.2f", got, th.DensityRatio)
	}
	if thick := f.ShockThickness(); math.IsNaN(thick) || thick < 1 || thick > 12 {
		t.Errorf("rarefied shock thickness %.1f cells, paper reads ≈5", thick)
	}
	if wc := f.WakeContrast(); math.IsNaN(wc) {
		t.Errorf("wake contrast unavailable")
	}
}

// TestPublicWorkersDeterminism: through the public API, the same seed at
// Workers=1 and Workers=8 must produce identical trajectories and a
// bit-identical sampled density field on the Reference backend.
func TestPublicWorkersDeterminism(t *testing.T) {
	run := func(workers int) (*Simulation, *Field) {
		cfg := testConfig()
		cfg.Workers = workers
		s, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(15)
		return s, s.Sample(5).MustField(Density)
	}
	s1, f1 := run(1)
	s8, f8 := run(8)
	if s1.Collisions() != s8.Collisions() {
		t.Fatalf("collisions: %d vs %d", s1.Collisions(), s8.Collisions())
	}
	if s1.NFlow() != s8.NFlow() || s1.NReservoir() != s8.NReservoir() {
		t.Fatalf("population: flow %d/%d, reservoir %d/%d",
			s1.NFlow(), s8.NFlow(), s1.NReservoir(), s8.NReservoir())
	}
	for i := range f1.Data {
		if math.Float64bits(f1.Data[i]) != math.Float64bits(f8.Data[i]) {
			t.Fatalf("density field diverged at cell %d: %v vs %v", i, f1.Data[i], f8.Data[i])
		}
	}
}

// TestPrecisionFloat32Backend: the public Precision knob must select the
// float32 reference backend, which runs the same physics (same streams,
// narrowed columns) — populations and sampled density stay on top of the
// float64 run over a short transient, and the timing/phase surface works.
func TestPrecisionFloat32Backend(t *testing.T) {
	cfg := testConfig()
	cfg.Precision = Float32
	s32, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg64 := testConfig()
	s64, err := NewSimulation(cfg64)
	if err != nil {
		t.Fatal(err)
	}
	s32.Run(10)
	s64.Run(10)
	if s32.NFlow() == 0 || s32.Collisions() == 0 {
		t.Fatal("float32 backend did not simulate")
	}
	if f := float64(s32.NFlow()) / float64(s64.NFlow()); f < 0.99 || f > 1.01 {
		t.Errorf("float32 flow population %d far from float64 %d", s32.NFlow(), s64.NFlow())
	}
	f := s32.Sample(5).MustField(Density)
	mean := 0.0
	for _, v := range f.Data {
		mean += v
	}
	mean /= float64(len(f.Data))
	if mean <= 0 {
		t.Errorf("float32 density field empty")
	}
	if len(s32.PhaseSeconds()) == 0 {
		t.Errorf("phase timing missing on float32 backend")
	}

	bad := testConfig()
	bad.Precision = "float16"
	if _, err := NewSimulation(bad); err == nil {
		t.Errorf("unknown precision must fail")
	}
}
