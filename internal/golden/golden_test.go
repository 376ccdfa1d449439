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
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/golden"
	"dsmc/internal/run"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

// goldens is every recorded state hash, named by the test that pins it.
// It is the physics epoch's definition: re-recording a golden here moves
// the digest TestPhysicsEpoch checks, which rotates every store key and
// checkpoint fingerprint derived from run.PhysicsEpoch.
var goldens = []struct {
	test string
	hash uint64
}{
	{"TestGolden2D/specular", 0x5fc1c3b82b975c74},
	{"TestGolden2D/diffuse-vibrational", 0xd4634f54c0a3b959},
	{"TestGolden3D/rarefied", 0x5a415e622c33dc10},
	{"TestGolden3D/collide-all", 0x1f27ff05c400ccde},
	// Recorded at commit dc0ba4b, when the selection rule was still
	// evaluated whole for every candidate pair.
	{"TestGoldenModels/2D/hard-sphere/float64", 0x40fbf8c8538b1285},
	{"TestGoldenModels/2D/vhs-0.75/float32", 0x4c9d7f6d61673fde},
	{"TestGoldenModels/2D/power-law-8/float64", 0xae570824f2340f20},
	{"TestGoldenModels/3D/hard-sphere/float64", 0x34ab048e4f126263},
	{"TestGoldenModels/3D/vhs-0.75/float32", 0xd1ebcfbc2df5e045},
}

// recorded returns the golden hash the named test pins.
func recorded(t *testing.T, test string) uint64 {
	t.Helper()
	for _, g := range goldens {
		if g.test == test {
			return g.hash
		}
	}
	t.Fatalf("no golden is recorded for %s", test)
	return 0
}

// TestPhysicsEpoch ties the memo keys to the goldens: run.PhysicsEpoch
// must be the FNV-1a digest of the recorded hashes, each absorbed as an
// 8-byte little-endian word in table order.
func TestPhysicsEpoch(t *testing.T) {
	h := fnv.New64a()
	for _, g := range goldens {
		h.Write(binary.LittleEndian.AppendUint64(nil, g.hash))
	}
	if got := h.Sum64(); got != run.PhysicsEpoch {
		t.Fatalf("the recorded goldens digest to %#016x, run.PhysicsEpoch is %#016x: "+
			"a golden was re-recorded, so set run.PhysicsEpoch to %#016x", got, run.PhysicsEpoch, got)
	}
}

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
	}{
		{"specular", func(c *sim.Config) {}, 12},
		{"diffuse-vibrational", func(c *sim.Config) {
			c.Wall = geom.DiffuseState{Model: geom.DiffuseIsothermal, WallCm: c.Free.Cm}
			c.ZVib = 5
		}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := recorded(t, t.Name())
			for _, workers := range []int{1, 3} {
				cfg := goldenConfig2D()
				tc.mutate(&cfg)
				cfg.Workers = workers
				s, err := sim.NewOf[float64](cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Run(tc.steps)
				if got := golden.HashSim2D(s); got != want {
					t.Errorf("workers=%d: state hash %#016x, golden %#016x",
						workers, got, want)
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
	}{
		{"rarefied", sim3.Config{
			NX: 40, NY: 4, NZ: 4,
			Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131,
			NPerCell: 8, Seed: 99,
		}, 12},
		{"collide-all", sim3.Config{
			NX: 32, NY: 4, NZ: 4,
			Cm: 0.125, Lambda: 0, PistonSpeed: 0.131,
			NPerCell: 8, Seed: 5,
		}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := recorded(t, t.Name())
			for _, workers := range []int{1, 4} {
				cfg := tc.cfg
				cfg.Workers = workers
				s, err := sim3.NewOf[float64](cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Run(tc.steps)
				if got := golden.HashSim3D(s); got != want {
					t.Errorf("workers=%d: state hash %#016x, golden %#016x",
						workers, got, want)
				}
			}
		})
	}
}
