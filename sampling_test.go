package dsmc_test

import (
	"math"
	"testing"

	"dsmc"
)

// fieldsBitEqual compares two fields bit for bit.
func fieldsBitEqual(t *testing.T, label string, a, b *dsmc.Field) {
	t.Helper()
	if len(a.Data) != len(b.Data) {
		t.Fatalf("%s: lengths differ: %d vs %d", label, len(a.Data), len(b.Data))
	}
	for c := range a.Data {
		if math.Float64bits(a.Data[c]) != math.Float64bits(b.Data[c]) {
			t.Fatalf("%s diverged at cell %d: %v vs %v", label, c, a.Data[c], b.Data[c])
		}
	}
}

// TestMultiQuantityWorkerDeterminism2D: one sampling pass derives
// Velocity/Temperature/Mach fields that are bit-identical between
// Workers=1 and Workers=8 on the 2D wedge tunnel.
func TestMultiQuantityWorkerDeterminism2D(t *testing.T) {
	run := func(workers int) *dsmc.Sampling {
		cfg := goldenWedgeConfig()
		cfg.Workers = workers
		s, err := dsmc.NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(15)
		return s.Sample(5)
	}
	s1, s8 := run(1), run(8)
	for _, q := range []dsmc.Quantity{dsmc.Density, dsmc.VelocityX, dsmc.VelocityY, dsmc.Temperature, dsmc.MachNumber} {
		f1, err := s1.Field(q)
		if err != nil {
			t.Fatal(err)
		}
		f8, err := s8.Field(q)
		if err != nil {
			t.Fatal(err)
		}
		fieldsBitEqual(t, string(q), f1, f8)
	}
}

// TestMultiQuantityWorkerDeterminism3D: likewise for the 3D shock tube,
// including the out-of-plane VelocityZ.
func TestMultiQuantityWorkerDeterminism3D(t *testing.T) {
	run := func(workers int) *dsmc.Sampling {
		s, err := dsmc.NewSimulation(dsmc.ShockTube3D{
			GridNX: 40, GridNY: 4, GridNZ: 4,
			ThermalSpeed: 0.125, MeanFreePath: 0.5, PistonSpeed: 0.131,
			ParticlesPerCell: 6, Seed: 13, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(15)
		return s.Sample(5)
	}
	s1, s8 := run(1), run(8)
	for _, q := range []dsmc.Quantity{dsmc.Density, dsmc.VelocityX, dsmc.VelocityY, dsmc.VelocityZ, dsmc.Temperature} {
		f1, err := s1.Field(q)
		if err != nil {
			t.Fatal(err)
		}
		f8, err := s8.Field(q)
		if err != nil {
			t.Fatal(err)
		}
		fieldsBitEqual(t, string(q), f1, f8)
	}
}

// TestSamplingOnePassConsistency: all quantities come from the same
// accumulation — deriving a field twice returns identical bits, and the
// 3D views (Slice, ProjectXY, ProfileX) are consistent with At3.
func TestSamplingOnePassConsistency(t *testing.T) {
	s, err := dsmc.NewSimulation(dsmc.ShockTube3D{
		GridNX: 32, GridNY: 4, GridNZ: 3,
		ThermalSpeed: 0.125, PistonSpeed: 0.131,
		ParticlesPerCell: 6, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	smp := s.Sample(10)
	f1, _ := smp.Field(dsmc.Density)
	f2, _ := smp.Field(dsmc.Density)
	fieldsBitEqual(t, "re-derived density", f1, f2)
	if smp.Steps() != 10 {
		t.Errorf("Steps() = %d", smp.Steps())
	}

	f := f1
	if f.Dims() != 3 || f.NZ != 3 {
		t.Fatalf("expected a 3D field, got dims %d NZ %d", f.Dims(), f.NZ)
	}
	// Slice matches At3.
	sl := f.Slice(2)
	if sl.NZ != 1 || sl.NX != f.NX || sl.NY != f.NY {
		t.Fatalf("slice shape %dx%dx%d", sl.NX, sl.NY, sl.NZ)
	}
	if sl.At(5, 2) != f.At3(5, 2, 2) {
		t.Errorf("Slice(2).At != At3")
	}
	// ProjectXY is the z-mean.
	proj := f.ProjectXY()
	want := (f.At3(5, 2, 0) + f.At3(5, 2, 1) + f.At3(5, 2, 2)) / 3
	if math.Abs(proj.At(5, 2)-want) > 1e-15 {
		t.Errorf("ProjectXY mean %v, want %v", proj.At(5, 2), want)
	}
	// ProfileX averages the cross-section.
	prof := f.ProfileX()
	if len(prof) != f.NX {
		t.Fatalf("profile length %d", len(prof))
	}
	var sum float64
	for iy := 0; iy < f.NY; iy++ {
		for iz := 0; iz < f.NZ; iz++ {
			sum += f.At3(5, iy, iz)
		}
	}
	if want := sum / float64(f.NY*f.NZ); math.Abs(prof[5]-want) > 1e-12 {
		t.Errorf("ProfileX[5] = %v, want %v", prof[5], want)
	}
	// The gas ahead of the piston is compressed: the profile's peak
	// exceeds the quiescent density at the far end of the tube.
	peak := 0.0
	for _, v := range prof {
		if v > peak {
			peak = v
		}
	}
	if quiescent := prof[len(prof)-3]; peak < 1.2*quiescent {
		t.Errorf("no compression ahead of the piston: peak %v vs quiescent %v", peak, quiescent)
	}
}

// TestCMBackendQuantityRestriction: the fixed-point ConnectionMachine
// backend samples per-cell counts only — Density works, anything else
// reports a descriptive error.
func TestCMBackendQuantityRestriction(t *testing.T) {
	s, err := dsmc.NewConnectionMachine(goldenWedgeConfig(), 64)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	smp := s.Sample(3)
	if _, err := smp.Field(dsmc.Density); err != nil {
		t.Errorf("CM density sampling failed: %v", err)
	}
	if _, err := smp.Field(dsmc.Temperature); err == nil {
		t.Error("CM backend served a temperature field it never sampled")
	}
}

// TestRankineHugoniotTemperatureRise: on the paper's wedge, the
// post-shock temperature rise in the stagnation region matches the
// Rankine–Hugoniot prediction (T2/T1 ≈ 2.49 at M=4 through the 45°
// oblique shock) — the multi-moment twin of the density-rise check.
func TestRankineHugoniotTemperatureRise(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := dsmc.PaperWedgeTunnel()
	cfg.ParticlesPerCell = 8
	cfg.Seed = 5
	s, err := dsmc.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(600)
	smp := s.Sample(300)
	temp, err := smp.Field(dsmc.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	th := s.Theory()
	if th.TemperatureRatio < 2 || th.TemperatureRatio > 3 {
		t.Fatalf("implausible theory temperature ratio %v", th.TemperatureRatio)
	}
	got := temp.PostShockMean()
	if math.IsNaN(got) || math.Abs(got-th.TemperatureRatio)/th.TemperatureRatio > 0.15 {
		t.Errorf("post-shock temperature %.3f, Rankine–Hugoniot predicts %.3f (±15%%)",
			got, th.TemperatureRatio)
	}
	// The freestream must stay at its reference temperature.
	if fm := temp.FreestreamMean(); math.Abs(fm-1) > 0.1 {
		t.Errorf("freestream temperature %.3f, want 1.0", fm)
	}
}
