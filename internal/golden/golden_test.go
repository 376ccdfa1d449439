// Package golden_test pins the float64 reference backends to their
// pre-refactor output: each scenario runs a short simulation and hashes
// every particle column bit-for-bit (the package's FNV-1a machinery)
// together with the integer state (flow count, reservoir level, collision
// count). The expected values were recorded from the hand-duplicated
// sim/sim3 pipelines immediately before they were collapsed onto the
// generic engine; any arithmetic re-ordering, RNG re-keying, or stream
// drift in the unified core shows up here as a one-bit difference. The
// scenarios cover every randomness-consuming path (specular and diffuse
// walls, vibrational relaxation, 3D selection with and without the
// collide-all short-circuit) and run at several worker counts, so the
// goldens also re-prove worker-count independence.
package golden_test

import (
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/golden"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

// goldenConfig2D is the cheap wedge configuration the 2D scenarios
// perturb (the unit tests' smallConfig, pinned here so test-helper edits
// cannot silently move the goldens).
func goldenConfig2D() sim.Config {
	cfg := sim.DefaultConfig(1)
	cfg.NX, cfg.NY = 48, 24
	cfg.Wedge = &geom.Wedge{LeadX: 10, Base: 12, Angle: 30 * 3.14159265358979323846 / 180}
	cfg.NPerCell = 6
	cfg.Seed = 7
	return cfg
}

// TestGolden2D: the unified engine must reproduce the pre-refactor 2D
// wind-tunnel results bit-for-bit, for every randomness-consuming
// configuration and any worker count.
func TestGolden2D(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*sim.Config)
		steps  int
		want   uint64
	}{
		{"specular", func(c *sim.Config) {}, 12, 0x5fc1c3b82b975c74},
		{"diffuse-vibrational", func(c *sim.Config) {
			c.Wall = geom.DiffuseState{Model: geom.DiffuseIsothermal, WallCm: c.Free.Cm}
			c.ZVib = 5
		}, 10, 0xd4634f54c0a3b959},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				cfg := goldenConfig2D()
				tc.mutate(&cfg)
				cfg.Workers = workers
				s, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Run(tc.steps)
				if got := golden.HashSim2D(s); got != tc.want {
					t.Errorf("workers=%d: state hash %#016x, golden %#016x",
						workers, got, tc.want)
				}
			}
		})
	}
}

// TestGolden3D: likewise for the 3D shock tube, with the selection rule
// both active (Lambda > 0, interleaved select/collide draws) and
// short-circuited (collide-all).
func TestGolden3D(t *testing.T) {
	cases := []struct {
		name  string
		cfg   sim3.Config
		steps int
		want  uint64
	}{
		{"rarefied", sim3.Config{
			NX: 40, NY: 4, NZ: 4,
			Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131,
			NPerCell: 8, Seed: 99,
		}, 12, 0x5a415e622c33dc10},
		{"collide-all", sim3.Config{
			NX: 32, NY: 4, NZ: 4,
			Cm: 0.125, Lambda: 0, PistonSpeed: 0.131,
			NPerCell: 8, Seed: 5,
		}, 8, 0x1f27ff05c400ccde},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				cfg := tc.cfg
				cfg.Workers = workers
				s, err := sim3.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Run(tc.steps)
				if got := golden.HashSim3D(s); got != tc.want {
					t.Errorf("workers=%d: state hash %#016x, golden %#016x",
						workers, got, tc.want)
				}
			}
		})
	}
}
