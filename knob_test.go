package dsmc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// handKnobs returns a fresh base scenario of the kind, by pointer, and
// pointers to the fields a sweep point may set on it, keyed by the
// override's JSON name. The list is written out by hand: it is the
// oracle the knob tags are checked against.
func handKnobs(t *testing.T, kind string) (any, map[string]any) {
	t.Helper()
	switch kind {
	case KindWedgeTunnel2D:
		s := PaperWedgeTunnel()
		return &s, map[string]any{
			"mach": &s.Mach, "mean_free_path": &s.MeanFreePath,
			"particles_per_cell": &s.ParticlesPerCell, "thermal_speed": &s.ThermalSpeed,
			"wedge_angle_deg": &s.Wedge.AngleDeg, "grid_nx": &s.GridNX, "grid_ny": &s.GridNY,
		}
	case KindEmptyTunnel2D:
		s := EmptyTunnel2D{GridNX: 48, GridNY: 24, Mach: 4, ThermalSpeed: 0.125,
			MeanFreePath: 0.5, ParticlesPerCell: 8, Seed: 3}
		return &s, map[string]any{
			"mach": &s.Mach, "mean_free_path": &s.MeanFreePath,
			"particles_per_cell": &s.ParticlesPerCell, "thermal_speed": &s.ThermalSpeed,
			"grid_nx": &s.GridNX, "grid_ny": &s.GridNY,
		}
	case KindDoubleWedge2D:
		s := DoubleWedge2D{GridNX: 98, GridNY: 64,
			Wedge:  WedgeSpec{LeadX: 10, Base: 20, AngleDeg: 15},
			Wedge2: WedgeSpec{LeadX: 50, Base: 20, AngleDeg: 25},
			Mach:   4, ThermalSpeed: 0.125, MeanFreePath: 0.5, ParticlesPerCell: 8, Seed: 4}
		return &s, map[string]any{
			"mach": &s.Mach, "mean_free_path": &s.MeanFreePath,
			"particles_per_cell": &s.ParticlesPerCell, "thermal_speed": &s.ThermalSpeed,
			"wedge_angle_deg": &s.Wedge.AngleDeg, "grid_nx": &s.GridNX, "grid_ny": &s.GridNY,
		}
	case KindShockTube3D:
		s := ShockTube3D{GridNX: 40, GridNY: 4, GridNZ: 4, ThermalSpeed: 0.125,
			MeanFreePath: 0.5, PistonSpeed: 0.1, ParticlesPerCell: 8, Seed: 5}
		return &s, map[string]any{
			"mean_free_path": &s.MeanFreePath, "particles_per_cell": &s.ParticlesPerCell,
			"thermal_speed": &s.ThermalSpeed, "piston_speed": &s.PistonSpeed,
			"grid_nx": &s.GridNX, "grid_ny": &s.GridNY, "grid_nz": &s.GridNZ,
		}
	}
	t.Fatalf("kind %q has no hand-written knob list", kind)
	return nil, nil
}

// setKnob stores the test's override value through a *float64 or *int.
func setKnob(dst any) {
	switch d := dst.(type) {
	case *float64:
		*d = 0.625
	case *int:
		*d = 7
	}
}

// TestSweepPointOverrides crosses every kind in the kind table with every
// tagged SweepPoint field: an override is accepted exactly when the kind
// has the field, changes that field and nothing else, and a refusal
// names the point, the override and the kind.
func TestSweepPointOverrides(t *testing.T) {
	pt := reflect.TypeFor[SweepPoint]()
	for kind := range scenarioKinds {
		for i := range pt.NumField() {
			f := pt.Field(i)
			if f.Tag.Get("knob") == "" {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			t.Run(kind+"/"+name, func(t *testing.T) {
				sc, knobs := handKnobs(t, kind)
				base := reflect.ValueOf(sc).Elem().Interface().(Scenario)
				p := SweepPoint{Name: "pt-" + name}
				ov := reflect.ValueOf(&p).Elem().Field(i)
				ov.Set(reflect.New(f.Type.Elem()))
				setKnob(ov.Interface())

				got, err := applyPoint(base, p)
				dst, has := knobs[name]
				if !has {
					if err == nil {
						t.Fatalf("override accepted on a kind without it: %+v", got)
					}
					for _, want := range []string{fmt.Sprintf("%q", p.Name), name, kind} {
						if !strings.Contains(err.Error(), want) {
							t.Errorf("refusal %q does not name %s", err, want)
						}
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				setKnob(dst)
				want := reflect.ValueOf(sc).Elem().Interface()
				if reflect.DeepEqual(want, base) {
					t.Fatal("the override value equals the base value; the check would be vacuous")
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("applyPoint = %+v, want %+v", got, want)
				}
			})
		}
	}
}

// TestSweepPointKnobTags guards the tags themselves: every override
// field is tagged, and every tag resolves, at the field's type, on at
// least one kind — a mistyped tag would otherwise refuse every point
// that uses it. Each kind's type reports its own slug.
func TestSweepPointKnobTags(t *testing.T) {
	for kind, st := range scenarioKinds {
		if got := reflect.New(st).Elem().Interface().(Scenario).Kind(); got != kind {
			t.Errorf("kind table maps %q to %s, whose Kind is %q", kind, st, got)
		}
	}
	pt := reflect.TypeFor[SweepPoint]()
	for i := range pt.NumField() {
		f := pt.Field(i)
		if f.Name == "Name" {
			continue
		}
		path := f.Tag.Get("knob")
		if path == "" {
			t.Errorf("SweepPoint.%s has no knob tag, so no point can set it", f.Name)
			continue
		}
		resolves := false
		for _, st := range scenarioKinds {
			_, ok := knobField(reflect.New(st).Elem(), path, f.Type.Elem())
			resolves = resolves || ok
		}
		if !resolves {
			t.Errorf("SweepPoint.%s: knob %q resolves on no scenario kind", f.Name, path)
		}
	}
}
