package dsmc_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"dsmc"
	"dsmc/internal/ckpt"
)

func smallPublicConfig() dsmc.WedgeTunnel2D {
	cfg := dsmc.PaperWedgeTunnel()
	cfg.GridNX, cfg.GridNY = 48, 24
	cfg.Wedge = dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30}
	cfg.ParticlesPerCell = 4
	cfg.Seed = 7
	return cfg
}

// smallEmptyTunnel is smallPublicConfig's tunnel with no body.
func smallEmptyTunnel() dsmc.EmptyTunnel2D {
	w := smallPublicConfig()
	return dsmc.EmptyTunnel2D{
		GridNX: w.GridNX, GridNY: w.GridNY,
		Mach: w.Mach, ThermalSpeed: w.ThermalSpeed, MeanFreePath: w.MeanFreePath,
		ParticlesPerCell: w.ParticlesPerCell, Seed: w.Seed,
	}
}

// smallShockTube is a slender 3D tube, rarefied, a few thousand particles.
func smallShockTube() dsmc.ShockTube3D {
	return dsmc.ShockTube3D{
		GridNX: 40, GridNY: 4, GridNZ: 4,
		ThermalSpeed: 0.125, MeanFreePath: 0.5, PistonSpeed: 0.131,
		ParticlesPerCell: 6, Seed: 11,
	}
}

// specOf serialises a scenario as a sweep base.
func specOf(sc dsmc.Scenario) *dsmc.ScenarioSpec {
	ss, err := dsmc.NewScenarioSpec(sc)
	if err != nil {
		panic(err)
	}
	return ss
}

// TestConfigValidate: unknown enum values and out-of-range knobs are
// rejected with errors instead of silently defaulting — by the scenario's
// Validate and by both constructors.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*dsmc.WedgeTunnel2D)
		errPart string
	}{
		{"unknown-precision", func(c *dsmc.WedgeTunnel2D) { c.Precision = "float16" }, "precision"},
		{"unknown-model", func(c *dsmc.WedgeTunnel2D) { c.Model = "lennard-jones" }, "model"},
		{"negative-lambda", func(c *dsmc.WedgeTunnel2D) { c.MeanFreePath = -1 }, "MeanFreePath"},
		{"zero-percell", func(c *dsmc.WedgeTunnel2D) { c.ParticlesPerCell = 0 }, "ParticlesPerCell"},
		{"negative-workers", func(c *dsmc.WedgeTunnel2D) { c.Workers = -2 }, "Workers"},
		{"zero-grid", func(c *dsmc.WedgeTunnel2D) { c.GridNX = 0 }, "grid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallPublicConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted the broken configuration")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q does not mention %q", err, tc.errPart)
			}
			if _, err := dsmc.NewSimulation(cfg); err == nil {
				t.Error("NewSimulation accepted the broken configuration")
			}
			if _, err := dsmc.NewConnectionMachine(cfg, 64); err == nil {
				t.Error("NewConnectionMachine accepted the broken configuration")
			}
		})
	}
	cfg := smallPublicConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid configuration rejected: %v", err)
	}

	// What the ConnectionMachine backend cannot run is rejected by its
	// constructor: the scenario itself is valid.
	f32 := smallPublicConfig()
	f32.Precision = dsmc.Float32
	cmCases := []struct {
		name    string
		sc      dsmc.Scenario
		procs   int
		errPart string
	}{
		{"cm-float32", f32, 64, "fixed-point"},
		{"negative-procs", smallPublicConfig(), -1, "physProcs"},
		{"cm-double-wedge", dsmc.DoubleWedge2D{GridNX: 96, GridNY: 32,
			Wedge:  dsmc.WedgeSpec{LeadX: 8, Base: 12, AngleDeg: 20},
			Wedge2: dsmc.WedgeSpec{LeadX: 48, Base: 12, AngleDeg: 25},
			Mach:   4, ThermalSpeed: 0.125, MeanFreePath: 0.5, ParticlesPerCell: 2, Seed: 1},
			64, dsmc.KindDoubleWedge2D},
		{"cm-shock-tube", dsmc.ShockTube3D{GridNX: 24, GridNY: 4, GridNZ: 4,
			ThermalSpeed: 0.125, PistonSpeed: 0.131, ParticlesPerCell: 4, Seed: 3},
			64, dsmc.KindShockTube3D},
	}
	for _, tc := range cmCases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.sc.Validate(); err != nil {
				t.Fatalf("the scenario itself is invalid: %v", err)
			}
			_, err := dsmc.NewConnectionMachine(tc.sc, tc.procs)
			if err == nil {
				t.Fatal("NewConnectionMachine accepted it")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
	if _, err := dsmc.NewConnectionMachine(dsmc.EmptyTunnel2D{GridNX: 32, GridNY: 16,
		Mach: 4, ThermalSpeed: 0.125, MeanFreePath: 0.5, ParticlesPerCell: 2, Seed: 1}, 0); err != nil {
		t.Errorf("empty tunnel on the default machine rejected: %v", err)
	}
}

// TestPublicCheckpointRoundTrip: run(60) equals run(30)+Checkpoint+
// RestoreSimulation+run(30) through the public API, including the
// sampled field, for both precisions.
func TestPublicCheckpointRoundTrip(t *testing.T) {
	for _, prec := range []dsmc.Precision{dsmc.Float64, dsmc.Float32} {
		t.Run(string(prec), func(t *testing.T) {
			cfg := smallPublicConfig()
			cfg.Precision = prec

			straight, err := dsmc.NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			straight.Run(40)
			wantField := straight.Sample(20).MustField(dsmc.Density)

			half, err := dsmc.NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			half.Run(30)
			var buf bytes.Buffer
			if err := half.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}

			cfg2 := cfg
			cfg2.Workers = 3
			restored, err := dsmc.RestoreSimulation(cfg2, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			restored.Run(10)
			gotField := restored.Sample(20).MustField(dsmc.Density)

			if got, want := restored.StepCount(), straight.StepCount(); got != want {
				t.Fatalf("step count %d != %d", got, want)
			}
			if got, want := restored.Collisions(), straight.Collisions(); got != want {
				t.Fatalf("collisions %d != %d", got, want)
			}
			if got, want := restored.NFlow(), straight.NFlow(); got != want {
				t.Fatalf("flow count %d != %d", got, want)
			}
			for c := range wantField.Data {
				if math.Float64bits(gotField.Data[c]) != math.Float64bits(wantField.Data[c]) {
					t.Fatalf("sampled density cell %d differs: %v vs %v",
						c, gotField.Data[c], wantField.Data[c])
				}
			}
		})
	}
}

// TestPerParticleTimeAfterRestore: after a restore the per-particle
// time divides the phase times, which cover only the steps this process
// ran, by those steps, not by the restored step count.
func TestPerParticleTimeAfterRestore(t *testing.T) {
	cfg := smallPublicConfig()
	first, err := dsmc.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Run(40)
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := dsmc.RestoreSimulation(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 4
	s.Run(steps)
	var total float64
	for _, sec := range s.PhaseSeconds() {
		total += sec
	}
	got := s.MicrosecondsPerParticleStep() * steps * float64(s.NFlow())
	if want := total * 1e6; want <= 0 || math.Abs(got-want) > 1e-9*want {
		t.Fatalf("µs/particle/step × %d steps × %d particles = %v µs, the phases took %v µs", steps, s.NFlow(), got, want)
	}
}

// TestFailedRestoreLeavesSimulationUntouched: a checkpoint with one
// payload byte flipped is rejected before any of it is applied — the
// simulation's next Checkpoint writes exactly the bytes it would have
// written had the restore never been attempted.
func TestFailedRestoreLeavesSimulationUntouched(t *testing.T) {
	f32 := smallPublicConfig()
	f32.Precision = dsmc.Float32
	cases := []struct {
		name string
		sc   dsmc.Scenario
	}{
		{"2d-float64", smallPublicConfig()},
		{"2d-float32", f32},
		{"3d", smallShockTube()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := dsmc.NewSimulation(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			checkpoint := func() []byte {
				var buf bytes.Buffer
				if err := s.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			s.Run(10)
			damaged := checkpoint()
			damaged[len(damaged)/2] ^= 0x40
			s.Run(5)
			before := checkpoint()

			if err := s.Restore(bytes.NewReader(damaged)); err == nil {
				t.Fatal("restore of a damaged checkpoint succeeded")
			}
			if !bytes.Equal(checkpoint(), before) {
				t.Error("failed restore changed the simulation's state")
			}
		})
	}
}

// TestPreUpgradeCheckpointIsVersionError: a checkpoint written by a build
// of format version 2 — the same payload, the version word 2 and an FNV-1a
// trailer — fails RestoreSimulation as ckpt.ErrVersion naming both
// versions, not as corruption.
func TestPreUpgradeCheckpointIsVersionError(t *testing.T) {
	s, err := dsmc.NewSimulation(smallPublicConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	binary.LittleEndian.PutUint64(v2[8:16], 2)
	h := fnv.New64a()
	h.Write(v2[:len(v2)-8])
	binary.LittleEndian.PutUint64(v2[len(v2)-8:], h.Sum64())

	_, err = dsmc.RestoreSimulation(smallPublicConfig(), bytes.NewReader(v2))
	if !errors.Is(err, ckpt.ErrVersion) || errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("restoring a version-2 checkpoint: %v, want ErrVersion", err)
	}
	for _, want := range []string{"version 2", "version 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestCheckpointCMRejected: the fixed-point backend reports checkpointing
// as unsupported rather than silently writing nothing.
func TestCheckpointCMRejected(t *testing.T) {
	s, err := dsmc.NewConnectionMachine(smallPublicConfig(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err == nil {
		t.Error("ConnectionMachine checkpoint succeeded")
	}
}

// TestRunSweepPublic: a two-point sweep aggregates deterministically
// across pool sizes through the public API, and the result surfaces a
// usable mean Field.
func TestRunSweepPublic(t *testing.T) {
	spec := dsmc.SweepSpec{
		Name:     "lambda-sweep",
		Scenario: specOf(smallPublicConfig()),
		Points: []dsmc.SweepPoint{
			{Name: "near-continuum", MeanFreePath: f64(0)},
			{Name: "rarefied", MeanFreePath: f64(0.5)},
		},
		Replicas:    2,
		WarmSteps:   8,
		SampleSteps: 8,
	}
	var results [2]*dsmc.SweepResult
	for i, pool := range []int{1, 8} {
		spec.Pool = pool
		res, err := dsmc.RunSweep(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	for p := range results[0].Points {
		a, b := results[0].Points[p], results[1].Points[p]
		if a.Name != b.Name || a.Replicas != b.Replicas {
			t.Fatalf("point metadata differs: %+v vs %+v", a, b)
		}
		for c := range a.Density.Mean {
			if math.Float64bits(a.Density.Mean[c]) != math.Float64bits(b.Density.Mean[c]) ||
				math.Float64bits(a.Density.Variance[c]) != math.Float64bits(b.Density.Variance[c]) {
				t.Fatalf("point %q density stats differ between pool sizes at cell %d", a.Name, c)
			}
		}
		if math.Float64bits(a.ShockAngleDeg.Mean) != math.Float64bits(b.ShockAngleDeg.Mean) {
			t.Fatalf("point %q shock angle differs between pool sizes", a.Name)
		}
	}
	f, err := results[0].Points[1].FieldFor(dsmc.Density)
	if err != nil {
		t.Fatal(err)
	}
	if base := smallPublicConfig(); f.NX != base.GridNX || f.NY != base.GridNY {
		t.Errorf("mean field shape %dx%d, want %dx%d", f.NX, f.NY, base.GridNX, base.GridNY)
	}
	if fs := f.FreestreamMean(); math.IsNaN(fs) || fs <= 0 {
		t.Errorf("mean field freestream density %v, want positive", fs)
	}
}

// TestRunEnsemblePublic: the single-point convenience reports the
// replica scatter.
func TestRunEnsemblePublic(t *testing.T) {
	res, err := dsmc.RunEnsemble(context.Background(), smallPublicConfig(), 3, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas != 3 || res.NFlow.N != 3 {
		t.Errorf("replicas recorded %d/%d, want 3/3", res.Replicas, res.NFlow.N)
	}
	if res.NFlow.Mean <= 0 {
		t.Errorf("mean flow count %v, want positive", res.NFlow.Mean)
	}
}

// TestSweepRejectsBadPoints: point overrides are validated per point.
func TestSweepRejectsBadPoints(t *testing.T) {
	_, err := dsmc.RunSweep(context.Background(), dsmc.SweepSpec{
		Scenario:    specOf(smallEmptyTunnel()),
		Points:      []dsmc.SweepPoint{{Name: "angled", WedgeAngleDeg: f64(25)}},
		Replicas:    1,
		WarmSteps:   1,
		SampleSteps: 1,
	}, nil)
	if err == nil {
		t.Error("wedge-angle override without a wedge was accepted")
	}
	_, err = dsmc.RunSweep(context.Background(), dsmc.SweepSpec{
		Scenario:    specOf(smallPublicConfig()),
		Points:      []dsmc.SweepPoint{{Name: "subsonic", Mach: f64(0.5)}},
		Replicas:    1,
		WarmSteps:   1,
		SampleSteps: 1,
	}, nil)
	if err == nil {
		t.Error("subsonic sweep point was accepted")
	}
}

func f64(v float64) *float64 { return &v }
func iptr(v int) *int        { return &v }

// TestSweepGridShapeOverride: sweep points may override the grid shape;
// each point's aggregate carries its own field shape for every sampled
// quantity, and the whole sweep stays bit-identical across pool sizes.
func TestSweepGridShapeOverride(t *testing.T) {
	spec := dsmc.SweepSpec{
		Name:       "grid-sweep",
		Scenario:   specOf(smallPublicConfig()),
		Quantities: []dsmc.Quantity{dsmc.Density, dsmc.Temperature},
		Points: []dsmc.SweepPoint{
			{Name: "base-grid"},
			{Name: "coarse", GridNX: iptr(40), GridNY: iptr(20)},
		},
		Replicas:    2,
		WarmSteps:   6,
		SampleSteps: 6,
	}
	var results [2]*dsmc.SweepResult
	for i, pool := range []int{1, 4} {
		spec.Pool = pool
		res, err := dsmc.RunSweep(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	res := results[0]
	wantShapes := [][2]int{{48, 24}, {40, 20}}
	for p, want := range wantShapes {
		for _, q := range []dsmc.Quantity{dsmc.Density, dsmc.Temperature} {
			fs, ok := res.Points[p].Fields[q]
			if !ok {
				t.Fatalf("point %d missing quantity %q", p, q)
			}
			if fs.NX != want[0] || fs.NY != want[1] || len(fs.Mean) != want[0]*want[1] {
				t.Errorf("point %d %s shape %dx%d (%d cells), want %dx%d",
					p, q, fs.NX, fs.NY, len(fs.Mean), want[0], want[1])
			}
		}
		f, err := res.Points[p].FieldFor(dsmc.Temperature)
		if err != nil {
			t.Fatal(err)
		}
		if f.NX != want[0] || f.NY != want[1] {
			t.Errorf("point %d mean field shape %dx%d", p, f.NX, f.NY)
		}
	}
	for p := range res.Points {
		for q, fa := range res.Points[p].Fields {
			fb := results[1].Points[p].Fields[q]
			for c := range fa.Mean {
				if math.Float64bits(fa.Mean[c]) != math.Float64bits(fb.Mean[c]) {
					t.Fatalf("point %d %s differs between pool sizes at cell %d", p, q, c)
				}
			}
		}
	}
}

// TestSweep3DBase: a sweep whose base is the 3D shock tube scenario runs
// end to end, with per-point grid and piston overrides and 3D field
// shapes in the aggregate.
func TestSweep3DBase(t *testing.T) {
	ss, err := dsmc.NewScenarioSpec(dsmc.ShockTube3D{
		GridNX: 32, GridNY: 4, GridNZ: 4,
		ThermalSpeed: 0.125, MeanFreePath: 0.5, PistonSpeed: 0.131,
		ParticlesPerCell: 4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dsmc.RunSweep(context.Background(), dsmc.SweepSpec{
		Name:       "tube-sweep",
		Scenario:   ss,
		Quantities: []dsmc.Quantity{dsmc.Density, dsmc.VelocityX, dsmc.Temperature},
		Points: []dsmc.SweepPoint{
			{Name: "short"},
			{Name: "long", GridNX: iptr(48)},
			{Name: "fast", PistonSpeed: f64(0.2)},
		},
		Replicas:    2,
		WarmSteps:   6,
		SampleSteps: 6,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points", len(res.Points))
	}
	wantNX := []int{32, 48, 32}
	for p := range res.Points {
		if res.Points[p].Kind != dsmc.KindShockTube3D {
			t.Errorf("point %d kind %q", p, res.Points[p].Kind)
		}
		fs := res.Points[p].Fields[dsmc.VelocityX]
		if fs.NX != wantNX[p] || fs.NY != 4 || fs.NZ != 4 || len(fs.Mean) != wantNX[p]*16 {
			t.Errorf("point %d velocity-x shape %dx%dx%d (%d cells)",
				p, fs.NX, fs.NY, fs.NZ, len(fs.Mean))
		}
		// No wedge, no shock-angle fit: every replica must be dropped.
		if res.Points[p].ShockAngleDeg.N != 0 || res.Points[p].ShockAngleDeg.Dropped != 2 {
			t.Errorf("point %d shock-angle stats %+v, want all dropped", p, res.Points[p].ShockAngleDeg)
		}
	}
	// A wedge-angle override on a tube is a validation error.
	_, err = dsmc.RunSweep(context.Background(), dsmc.SweepSpec{
		Scenario:    ss,
		Points:      []dsmc.SweepPoint{{Name: "bad", WedgeAngleDeg: f64(25)}},
		Replicas:    1,
		WarmSteps:   1,
		SampleSteps: 1,
	}, nil)
	if err == nil {
		t.Error("wedge-angle override on a shock tube was accepted")
	}
}

// TestRunEnsembleScenario: RunEnsemble accepts first-class scenarios,
// including 3D.
func TestRunEnsembleScenario(t *testing.T) {
	res, err := dsmc.RunEnsemble(context.Background(), dsmc.ShockTube3D{
		GridNX: 24, GridNY: 4, GridNZ: 4,
		ThermalSpeed: 0.125, PistonSpeed: 0.131,
		ParticlesPerCell: 4, Seed: 3,
	}, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas != 2 || res.NFlow.Mean <= 0 {
		t.Errorf("ensemble result %+v", res)
	}
	if fs := res.Fields[dsmc.Density]; fs.NZ != 4 || len(fs.Mean) != 24*16 {
		t.Errorf("density aggregate shape %dx%dx%d", fs.NX, fs.NY, fs.NZ)
	}
}
