package run

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/molec"
	"dsmc/internal/sim3"
	"dsmc/internal/store"
)

// leaf is one value the fingerprint walk reaches: a leaf field, or a
// pointer (perturbed by setting it nil, or a nil one to a zero value).
// exec marks the leaves inside execOnly.
type leaf struct {
	path string
	v    reflect.Value
	exec bool
}

// leaves lists every leaf under v, which must be settable, in walk order.
func leaves(v reflect.Value, path string, exec bool) []leaf {
	switch v.Kind() {
	case reflect.Pointer:
		out := []leaf{{path + " (presence)", v, exec}}
		if !v.IsNil() {
			out = append(out, leaves(v.Elem(), path, exec)...)
		}
		return out
	case reflect.Struct:
		var out []leaf
		skip := execOnly[v.Type()]
		for i := range v.NumField() {
			name := v.Type().Field(i).Name
			out = append(out, leaves(v.Field(i), path+"."+name, exec || slices.Contains(skip, name))...)
		}
		return out
	}
	return []leaf{{path, v, exec}}
}

// perturb changes a leaf's value and returns the function that puts it
// back.
func perturb(t *testing.T, l leaf) (restore func()) {
	old := reflect.New(l.v.Type()).Elem()
	old.Set(l.v)
	switch l.v.Kind() {
	case reflect.Pointer:
		if l.v.IsNil() {
			l.v.Set(reflect.New(l.v.Type().Elem()))
		} else {
			l.v.SetZero()
		}
	case reflect.Bool:
		l.v.SetBool(!l.v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		l.v.SetInt(l.v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		l.v.SetUint(l.v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		l.v.SetFloat(2*l.v.Float() + 1)
	case reflect.String:
		l.v.SetString(l.v.String() + "'")
	default:
		t.Fatalf("%s: no perturbation for a %s", l.path, l.v.Type())
	}
	return func() { l.v.Set(old) }
}

// TestFingerprintCoversConfig: every leaf of a lowered scenario, through
// sim.Config and sim3.Config and all they nest, is trajectory or
// execution-only. Perturbing a trajectory leaf alone moves the trajectory
// fingerprint and the output key, each perturbation to a key of its own;
// perturbing an execOnly leaf moves neither, and a short job's output
// stays bit-identical. The 2D scenario has both wedges, so the walk
// reaches through every pointer.
func TestFingerprintCoversConfig(t *testing.T) {
	double := testScenario("double-wedge", 0.5, false)
	double.Sim.Wedge2 = &geom.Wedge{LeadX: 30, Base: 8, Angle: 20 * math.Pi / 180}
	tube := Scenario{Name: "tube", Sim3: &sim3.Config{
		NX: 16, NY: 3, NZ: 3, Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131,
		NPerCell: 4, Model: molec.Maxwell(), Seed: 3, Workers: 1,
	}}
	for _, sc := range []Scenario{double, tube} {
		t.Run(sc.Name, func(t *testing.T) {
			sp := &Spec{Scenarios: []Scenario{sc}, Replicas: 1, WarmSteps: 3, SampleSteps: 3, BaseSeed: 1988}
			key := func() (uint64, string) {
				return specFingerprint(sp.Scenarios[0], sp.WarmSteps, sp.SampleSteps), sp.OutputKey(0, 0).ID()
			}
			output := func() []byte {
				t.Helper()
				out, err := RunJob(context.Background(), *sp, 0, 0, JobIO{})
				if err != nil {
					t.Fatal(err)
				}
				return store.EncodeOutput(out)
			}
			baseFp, baseKey := key()
			baseOut := output()
			seen := map[string]string{baseKey: "the base scenario"}
			var trajectory, exec int
			for _, l := range leaves(reflect.ValueOf(&sp.Scenarios[0]).Elem(), "Scenario", false) {
				restore := perturb(t, l)
				fp, k := key()
				switch {
				case l.exec:
					exec++
					if fp != baseFp || k != baseKey {
						t.Errorf("%s is execution-only, yet perturbing it moved the key to %s", l.path, k)
					}
					if !bytes.Equal(output(), baseOut) {
						t.Errorf("%s is execution-only, yet perturbing it moved the job's output", l.path)
					}
				case fp == baseFp || k == baseKey:
					t.Errorf("%s steers the trajectory, yet perturbing it left the key at %s", l.path, k)
				case seen[k] != "":
					t.Errorf("perturbing %s gave the key %s of %s", l.path, k, seen[k])
				default:
					trajectory++
					seen[k] = l.path
				}
				restore()
			}
			if fp, k := key(); fp != baseFp || k != baseKey {
				t.Fatal("the perturbations did not restore the base scenario")
			}
			t.Logf("%d trajectory leaves, %d execution-only", trajectory, exec)
		})
	}

	// Models that share a name: the key must tell them apart.
	for _, c := range []struct {
		name string
		a, b molec.Model
	}{
		{"vhs-exponent", molec.VHS(0.75), molec.VHS(0.8)},
		{"rotational-dof", molec.Model{Name: "maxwell"}, molec.Maxwell()},
	} {
		for _, sc := range []Scenario{double, tube} {
			keyOf := func(m molec.Model) string {
				sc := sc
				if sc.Sim != nil {
					cfg := *sc.Sim
					cfg.Model, sc.Sim = m, &cfg
				} else {
					cfg := *sc.Sim3
					cfg.Model, sc.Sim3 = m, &cfg
				}
				sp := &Spec{Scenarios: []Scenario{sc}, Replicas: 1, WarmSteps: 3, SampleSteps: 3, BaseSeed: 1988}
				return sp.OutputKey(0, 0).ID()
			}
			if a, b := keyOf(c.a), keyOf(c.b); a == b {
				t.Errorf("%s, %s: models %+v and %+v share the key %s", c.name, sc.Name, c.a, c.b, a)
			}
		}
	}

	// A kind the walk cannot hash is a field nobody classified.
	defer func() {
		if recover() == nil {
			t.Error("walking a slice field did not panic")
		}
	}()
	var h fnv1a
	h.walk(reflect.ValueOf(struct{ Cells []int }{}))
}
