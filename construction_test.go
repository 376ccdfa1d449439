package dsmc_test

import (
	"context"
	"math"
	"testing"

	"dsmc"
	"dsmc/internal/rng"
)

// TestConstructionRoutesAgree pins the two ways a scenario becomes a
// running engine — NewSimulation at an explicit seed, and a sweep's
// replica job at its derived seed — to the same bits: every requested
// quantity field, the collision count and the flow count, for each
// dimension and both 2D precisions. Whatever builds the simulation
// underneath, a sweep job is NewSimulation + Run(warm) + Sample(n) at
// seed rng.JobSeed(base, point<<32|replica).
func TestConstructionRoutesAgree(t *testing.T) {
	const (
		base           = 11
		warm, n        = 12, 8
		point, replica = 1, 1
	)
	// Each case builds its scenario at a given seed.
	cases := []struct {
		name string
		at   func(seed uint64) dsmc.Scenario
	}{
		{"wedge-float64", func(seed uint64) dsmc.Scenario {
			sc := smallPublicConfig()
			sc.Seed = seed
			return sc
		}},
		{"wedge-float32", func(seed uint64) dsmc.Scenario {
			sc := smallPublicConfig()
			sc.Precision = dsmc.Float32
			sc.Seed = seed
			return sc
		}},
		{"shock-tube-3d", func(seed uint64) dsmc.Scenario {
			sc := smallShockTube()
			sc.Seed = seed
			return sc
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := dsmc.SweepSpec{
				Scenario:    specOf(tc.at(base)),
				Quantities:  dsmc.Quantities(),
				Points:      []dsmc.SweepPoint{{Name: "a"}, {Name: "b"}},
				Replicas:    2,
				WarmSteps:   warm,
				SampleSteps: n,
			}
			out, err := dsmc.RunSweepJob(context.Background(), spec, point, replica, dsmc.SweepJobIO{})
			if err != nil {
				t.Fatal(err)
			}

			s, err := dsmc.NewSimulation(tc.at(rng.JobSeed(base, point<<32|replica)))
			if err != nil {
				t.Fatal(err)
			}
			s.Run(warm)
			smp := s.Sample(n)

			if got, want := s.Collisions(), out.Collisions; got != want {
				t.Errorf("collisions: NewSimulation %d, sweep job %d", got, want)
			}
			if got, want := s.NFlow(), out.NFlow; got != want {
				t.Errorf("flow count: NewSimulation %d, sweep job %d", got, want)
			}
			for _, q := range dsmc.Quantities() {
				want, ok := out.Fields[string(q)]
				if !ok {
					t.Fatalf("sweep job output has no %q field", q)
				}
				got := smp.MustField(q).Data
				if len(got) != len(want) {
					t.Fatalf("%s: %d cells vs %d", q, len(got), len(want))
				}
				for c := range want {
					if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
						t.Fatalf("%s cell %d: NewSimulation %v, sweep job %v", q, c, got[c], want[c])
					}
				}
			}
		})
	}
}
