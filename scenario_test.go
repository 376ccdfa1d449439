package dsmc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"dsmc"
)

// goldenWedgeConfig is the golden 2D wedge configuration (the public
// twin of internal/golden's goldenConfig2D): 48×24 grid, wedge 10/12/30°,
// 6 particles per cell, seed 7.
func goldenWedgeConfig() dsmc.WedgeTunnel2D {
	return dsmc.WedgeTunnel2D{
		GridNX: 48, GridNY: 24,
		Wedge:            dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30},
		Mach:             4,
		ThermalSpeed:     0.125,
		MeanFreePath:     0.5,
		ParticlesPerCell: 6,
		Seed:             7,
	}
}

// fnvField hashes a field's values bit for bit (the internal/golden
// FNV-1a convention).
func fnvField(data []float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range data {
		w := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// sampleDensityGolden is the FNV-1a hash of the density field sampled
// over 8 steps after Run(12) on the golden wedge config, recorded from
// the pre-redesign code (the flat, density-only API) immediately before
// the scenario/sampling redesign. The multi-moment path must still
// produce these exact bits.
const sampleDensityGolden uint64 = 0xaf9acc634207fb14

// TestDensitySamplePinned: Sample(...).Field(Density) reproduces the
// pre-redesign density field bit for bit on the golden 2D wedge config.
func TestDensitySamplePinned(t *testing.T) {
	s, err := dsmc.NewSimulation(goldenWedgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(12)
	field, err := s.Sample(8).Field(dsmc.Density)
	if err != nil {
		t.Fatal(err)
	}
	if got := fnvField(field.Data); got != sampleDensityGolden {
		t.Errorf("Sample(...).Field(Density) drifted from the pre-redesign path: hash %#016x, golden %#016x",
			got, sampleDensityGolden)
	}
	if field.NX != 48 || field.NY != 24 || field.NZ != 1 {
		t.Errorf("field shape header %dx%dx%d, want 48x24x1", field.NX, field.NY, field.NZ)
	}
}

// TestScenarioKinds: every scenario kind builds through NewSimulation
// and reports its kind and shape.
func TestScenarioKinds(t *testing.T) {
	cases := []struct {
		sc         dsmc.Scenario
		kind       string
		nx, ny, nz int
	}{
		{dsmc.WedgeTunnel2D{GridNX: 48, GridNY: 24, Wedge: dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30},
			Mach: 4, ThermalSpeed: 0.125, MeanFreePath: 0.5, ParticlesPerCell: 2, Seed: 1},
			dsmc.KindWedgeTunnel2D, 48, 24, 1},
		{dsmc.EmptyTunnel2D{GridNX: 32, GridNY: 16,
			Mach: 4, ThermalSpeed: 0.125, MeanFreePath: 0.5, ParticlesPerCell: 2, Seed: 1},
			dsmc.KindEmptyTunnel2D, 32, 16, 1},
		{dsmc.DoubleWedge2D{GridNX: 96, GridNY: 32,
			Wedge:  dsmc.WedgeSpec{LeadX: 8, Base: 12, AngleDeg: 20},
			Wedge2: dsmc.WedgeSpec{LeadX: 48, Base: 12, AngleDeg: 25},
			Mach:   4, ThermalSpeed: 0.125, MeanFreePath: 0.5, ParticlesPerCell: 2, Seed: 1},
			dsmc.KindDoubleWedge2D, 96, 32, 1},
		{dsmc.ShockTube3D{GridNX: 40, GridNY: 4, GridNZ: 4,
			ThermalSpeed: 0.125, PistonSpeed: 0.131, ParticlesPerCell: 4, Seed: 1},
			dsmc.KindShockTube3D, 40, 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			if got := tc.sc.Kind(); got != tc.kind {
				t.Fatalf("Kind() = %q, want %q", got, tc.kind)
			}
			s, err := dsmc.NewSimulation(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Kind(); got != tc.kind {
				t.Errorf("Simulation.Kind() = %q", got)
			}
			nx, ny, nz := s.Shape()
			if nx != tc.nx || ny != tc.ny || nz != tc.nz {
				t.Errorf("Shape() = %dx%dx%d, want %dx%dx%d", nx, ny, nz, tc.nx, tc.ny, tc.nz)
			}
			s.Run(4)
			if s.StepCount() != 4 {
				t.Errorf("StepCount = %d", s.StepCount())
			}
			f, err := s.Sample(2).Field(dsmc.Density)
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Data) != tc.nx*tc.ny*tc.nz {
				t.Errorf("field length %d, want %d", len(f.Data), tc.nx*tc.ny*tc.nz)
			}
		})
	}
}

// TestNilScenarioRejected: every entry point that takes a Scenario
// reports a nil one as an error instead of dereferencing it.
func TestNilScenarioRejected(t *testing.T) {
	entries := map[string]func() error{
		"NewSimulation":        func() error { _, err := dsmc.NewSimulation(nil); return err },
		"NewConnectionMachine": func() error { _, err := dsmc.NewConnectionMachine(nil, 0); return err },
		"NewScenarioSpec":      func() error { _, err := dsmc.NewScenarioSpec(nil); return err },
		"RunEnsemble": func() error {
			_, err := dsmc.RunEnsemble(context.Background(), nil, 2, 1, 1)
			return err
		},
		"RestoreSimulation": func() error {
			_, err := dsmc.RestoreSimulation(nil, strings.NewReader(""))
			return err
		},
	}
	for name, call := range entries {
		t.Run(name, func(t *testing.T) {
			if err := call(); err == nil || err.Error() != "dsmc: nil scenario" {
				t.Errorf("got %v, want dsmc: nil scenario", err)
			}
		})
	}
}

// TestWedgeFitValidation: a wedge that does not fit the grid is rejected
// at the public layer with a descriptive error naming the offending
// dimension.
func TestWedgeFitValidation(t *testing.T) {
	cases := []struct {
		name    string
		wedge   dsmc.WedgeSpec
		errPart string
	}{
		{"trailing-edge-beyond-grid", dsmc.WedgeSpec{LeadX: 40, Base: 20, AngleDeg: 30}, "trailing edge"},
		{"apex-reaches-upper-wall", dsmc.WedgeSpec{LeadX: 2, Base: 40, AngleDeg: 45}, "apex height"},
		{"negative-leadx", dsmc.WedgeSpec{LeadX: -3, Base: 12, AngleDeg: 30}, "upstream of the inlet"},
		{"zero-base", dsmc.WedgeSpec{LeadX: 10, Base: 0, AngleDeg: 30}, "base must be positive"},
		{"flat-angle", dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 0}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := goldenWedgeConfig()
			sc.Wedge = tc.wedge
			err := sc.Validate()
			if err == nil {
				t.Fatal("WedgeTunnel2D.Validate accepted an ill-fitting wedge")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("scenario error %q does not mention %q", err, tc.errPart)
			}
			if _, err := dsmc.NewSimulation(sc); err == nil {
				t.Error("NewSimulation accepted an ill-fitting wedge")
			}
		})
	}
}

// TestDoubleWedgeOverlapRejected: overlapping bodies fail validation.
func TestDoubleWedgeOverlapRejected(t *testing.T) {
	sc := dsmc.DoubleWedge2D{
		GridNX: 96, GridNY: 32,
		Wedge:  dsmc.WedgeSpec{LeadX: 8, Base: 20, AngleDeg: 20},
		Wedge2: dsmc.WedgeSpec{LeadX: 20, Base: 20, AngleDeg: 20},
		Mach:   4, ThermalSpeed: 0.125, MeanFreePath: 0.5, ParticlesPerCell: 2,
	}
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping wedges accepted (err = %v)", err)
	}
}

// TestScenarioSpecRoundTrip: every scenario kind survives the
// ScenarioSpec JSON envelope unchanged.
func TestScenarioSpecRoundTrip(t *testing.T) {
	scenarios := []dsmc.Scenario{
		dsmc.WedgeTunnel2D{GridNX: 48, GridNY: 24, Wedge: dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30},
			Mach: 4, ThermalSpeed: 0.125, MeanFreePath: 0.5, ParticlesPerCell: 2, Seed: 9},
		dsmc.EmptyTunnel2D{GridNX: 32, GridNY: 16, Mach: 4, ThermalSpeed: 0.125, ParticlesPerCell: 2},
		dsmc.DoubleWedge2D{GridNX: 96, GridNY: 32,
			Wedge:  dsmc.WedgeSpec{LeadX: 8, Base: 12, AngleDeg: 20},
			Wedge2: dsmc.WedgeSpec{LeadX: 48, Base: 12, AngleDeg: 25},
			Mach:   4, ThermalSpeed: 0.125, ParticlesPerCell: 2},
		dsmc.ShockTube3D{GridNX: 40, GridNY: 4, GridNZ: 4,
			ThermalSpeed: 0.125, PistonSpeed: 0.131, ParticlesPerCell: 4, Precision: dsmc.Float32},
	}
	for _, sc := range scenarios {
		t.Run(sc.Kind(), func(t *testing.T) {
			spec, err := dsmc.NewScenarioSpec(sc)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var back dsmc.ScenarioSpec
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			got, err := back.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sc) {
				t.Errorf("round trip changed the scenario:\n got %+v\nwant %+v", got, sc)
			}
		})
	}

	// Unknown kinds are rejected.
	if _, err := (dsmc.ScenarioSpec{Kind: "warp-drive"}).Scenario(); err == nil {
		t.Error("unknown scenario kind accepted")
	}
}

// TestShockTube3DCheckpointRoundTrip: run(40) equals run(20) +
// Checkpoint + RestoreSimulation + run(20) for the 3D scenario through
// the public API (at a different worker count), and a 3D checkpoint
// refuses to restore into a 2D simulation — the kind header dispatch.
func TestShockTube3DCheckpointRoundTrip(t *testing.T) {
	sc := dsmc.ShockTube3D{
		GridNX: 40, GridNY: 4, GridNZ: 4,
		ThermalSpeed: 0.125, MeanFreePath: 0.5, PistonSpeed: 0.131,
		ParticlesPerCell: 6, Seed: 11,
	}
	straight, err := dsmc.NewSimulation(sc)
	if err != nil {
		t.Fatal(err)
	}
	straight.Run(40)
	wantField, err := straight.Sample(10).Field(dsmc.Temperature)
	if err != nil {
		t.Fatal(err)
	}

	half, err := dsmc.NewSimulation(sc)
	if err != nil {
		t.Fatal(err)
	}
	half.Run(20)
	var buf bytes.Buffer
	if err := half.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	sc2 := sc
	sc2.Workers = 3
	restored, err := dsmc.RestoreSimulation(sc2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored.Run(20)
	gotField, err := restored.Sample(10).Field(dsmc.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Collisions() != straight.Collisions() {
		t.Fatalf("collisions %d != %d", restored.Collisions(), straight.Collisions())
	}
	for c := range wantField.Data {
		if math.Float64bits(gotField.Data[c]) != math.Float64bits(wantField.Data[c]) {
			t.Fatalf("restored temperature field differs at cell %d: %v vs %v",
				c, gotField.Data[c], wantField.Data[c])
		}
	}

	// Kind dispatch: the same stream must not restore into a 2D tunnel.
	if _, err := dsmc.RestoreSimulation(goldenWedgeConfig(), bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("3D checkpoint restored into a 2D simulation")
	}
}
