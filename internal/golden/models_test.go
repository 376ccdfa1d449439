package golden_test

import (
	"testing"

	"dsmc/internal/golden"
	"dsmc/internal/kernel"
	"dsmc/internal/molec"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

// TestGoldenModels pins the selection rule's per-pair half — the models
// with a relative-speed factor, which the other scenarios of
// golden_test.go (all Maxwell or collide-all) never reach — through both
// selection styles and both precisions.
func TestGoldenModels(t *testing.T) {
	run2D := func(m molec.Model, f32 bool, workers int) uint64 {
		cfg := goldenConfig2D()
		cfg.Model = m
		cfg.Workers = workers
		if f32 {
			return hash2D[float32](t, cfg, 10)
		}
		return hash2D[float64](t, cfg, 10)
	}
	run3D := func(m molec.Model, f32 bool, workers int) uint64 {
		cfg := sim3.Config{
			NX: 40, NY: 4, NZ: 4,
			Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131,
			NPerCell: 8, Seed: 99, Model: m, Workers: workers,
		}
		if f32 {
			return hash3D[float32](t, cfg, 10)
		}
		return hash3D[float64](t, cfg, 10)
	}
	cases := []struct {
		name string
		run  func(m molec.Model, f32 bool, workers int) uint64
		m    molec.Model
		f32  bool
	}{
		{"2D/hard-sphere/float64", run2D, molec.HardSphere(), false},
		{"2D/vhs-0.75/float32", run2D, molec.VHS(0.75), true},
		{"2D/power-law-8/float64", run2D, molec.PowerLaw(8), false},
		{"3D/hard-sphere/float64", run3D, molec.HardSphere(), false},
		{"3D/vhs-0.75/float32", run3D, molec.VHS(0.75), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := recorded(t, t.Name())
			for _, workers := range []int{1, 3} {
				if got := tc.run(tc.m, tc.f32, workers); got != want {
					t.Errorf("workers=%d: state hash %#016x, golden %#016x", workers, got, want)
				}
			}
		})
	}
}

func hash2D[F kernel.Float](t *testing.T, cfg sim.Config, steps int) uint64 {
	t.Helper()
	s, err := sim.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	return golden.HashSim2D(s)
}

func hash3D[F kernel.Float](t *testing.T, cfg sim3.Config, steps int) uint64 {
	t.Helper()
	s, err := sim3.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	return golden.HashSim3D(s)
}
