package sim

import (
	"bytes"
	"math"
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/sample"
)

// runWorkers advances a fresh simulation and returns it together with a
// density/moment accumulation over the last few steps.
func runWorkers(t *testing.T, cfg Config, workers, steps, avg int) (*SimOf[float64], []float64) {
	t.Helper()
	cfg.Workers = workers
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	acc := sample.NewAccumulator(s.Grid(), s.Volumes(), cfg.NPerCell)
	for k := 0; k < avg; k++ {
		s.Step()
		s.SampleInto(acc)
	}
	return s, acc.Density()
}

// sameFloats demands bit-identical float64 slices.
func sameFloats(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: first divergence at %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestParallelDeterminism: the same seed must yield byte-identical
// particle state and sampled fields at Workers=1 and Workers=8, for every
// code path that consumes randomness (specular walls, diffuse walls,
// vibrational relaxation).
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"specular", func(c *Config) {}},
		{"diffuse-isothermal", func(c *Config) {
			c.Wall = geom.DiffuseState{Model: geom.DiffuseIsothermal, WallCm: c.Free.Cm}
		}},
		{"vibrational", func(c *Config) { c.ZVib = 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			tc.mutate(&cfg)
			s1, rho1 := runWorkers(t, cfg, 1, 15, 5)
			s8, rho8 := runWorkers(t, cfg, 8, 15, 5)

			if s1.NFlow() != s8.NFlow() {
				t.Fatalf("flow count: %d vs %d", s1.NFlow(), s8.NFlow())
			}
			if s1.NReservoir() != s8.NReservoir() {
				t.Fatalf("reservoir count: %d vs %d", s1.NReservoir(), s8.NReservoir())
			}
			if s1.Collisions() != s8.Collisions() {
				t.Fatalf("collisions: %d vs %d", s1.Collisions(), s8.Collisions())
			}
			n := s1.NFlow()
			a, b := s1.Store(), s8.Store()
			sameFloats(t, "X", a.X[:n], b.X[:n])
			sameFloats(t, "Y", a.Y[:n], b.Y[:n])
			sameFloats(t, "U", a.U[:n], b.U[:n])
			sameFloats(t, "V", a.V[:n], b.V[:n])
			sameFloats(t, "W", a.W[:n], b.W[:n])
			sameFloats(t, "R1", a.R1[:n], b.R1[:n])
			sameFloats(t, "R2", a.R2[:n], b.R2[:n])
			// Only a vibrating gas carries the column at all.
			if cfg.ZVib > 0 {
				sameFloats(t, "Evib", a.Evib[:n], b.Evib[:n])
			} else if a.Evib != nil || b.Evib != nil {
				t.Fatal("a gas without vibrational relaxation carries an Evib column")
			}
			for i := 0; i < n; i++ {
				if a.Cell[i] != b.Cell[i] {
					t.Fatalf("cell index diverged at %d", i)
				}
			}
			sameFloats(t, "density", rho1, rho8)
		})
	}
}

// TestWorkersIntermediateCounts: determinism must hold for every worker
// count, not just the two endpoints (the block decomposition shifts with
// the count, so this exercises stability of the sharded sort/scatter).
func TestWorkersIntermediateCounts(t *testing.T) {
	cfg := smallConfig()
	ref, rhoRef := runWorkers(t, cfg, 1, 10, 3)
	for _, w := range []int{2, 3, 5} {
		s, rho := runWorkers(t, cfg, w, 10, 3)
		if s.Collisions() != ref.Collisions() || s.NFlow() != ref.NFlow() {
			t.Fatalf("workers=%d: collisions %d vs %d, flow %d vs %d",
				w, s.Collisions(), ref.Collisions(), s.NFlow(), ref.NFlow())
		}
		n := ref.NFlow()
		sameFloats(t, "U", ref.Store().U[:n], s.Store().U[:n])
		sameFloats(t, "density", rhoRef, rho)
	}
}

// TestParallelDeterminismAboveCutoff runs the paper grid (6272 cells,
// ~12k particles at reduced density), which crosses par's serial cutoff
// in both shard dimensions: unlike the small configs above, this
// exercises — and under `go test -race` races — the concurrent dispatch
// path of every sharded phase, not the serial fallback.
func TestParallelDeterminismAboveCutoff(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.NPerCell = 2
	cfg.Seed = 11
	s1, rho1 := runWorkers(t, cfg, 1, 10, 3)
	s8, rho8 := runWorkers(t, cfg, 8, 10, 3)
	if s1.NFlow() != s8.NFlow() || s1.Collisions() != s8.Collisions() {
		t.Fatalf("flow %d vs %d, collisions %d vs %d",
			s1.NFlow(), s8.NFlow(), s1.Collisions(), s8.Collisions())
	}
	n := s1.NFlow()
	sameFloats(t, "X", s1.Store().X[:n], s8.Store().X[:n])
	sameFloats(t, "U", s1.Store().U[:n], s8.Store().U[:n])
	sameFloats(t, "density", rho1, rho8)
}

// TestWorkersDefaultResolved: Workers=0 (one worker per CPU) must run
// correctly.
func TestWorkersDefaultResolved(t *testing.T) {
	cfg := smallConfig()
	s, err := NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	if s.Collisions() == 0 {
		t.Error("no collisions with default workers")
	}
}

// TestCheckpointBytesAcrossWorkers compares the whole state, not a hash
// of part of it: the checkpoint carries the store, the plunger, the
// reservoir's velocities and the serial stream, so a reservoir relaxation
// that raced the step's passes or drew out of order shows here even where
// the flow has not yet felt it. The paper grid at low density crosses
// par's serial cutoff in particles and in cells, so every sharded pass and
// the background relaxation take their concurrent paths, and the run
// spans at least two plunger refills, which withdraw from the relaxed
// reservoir.
func TestCheckpointBytesAcrossWorkers(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"specular", func(c *Config) {}},
		{"diffuse-isothermal", func(c *Config) {
			c.Wall = geom.DiffuseState{Model: geom.DiffuseIsothermal, WallCm: c.Free.Cm}
		}},
		{"vibrational", func(c *Config) { c.ZVib = 5 }},
	}
	const steps = 30
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, workers := range []int{1, 2, 3, 8} {
				cfg := DefaultConfig(1)
				cfg.NPerCell = 2
				cfg.Seed = 23
				cfg.Workers = workers
				tc.mutate(&cfg)
				s, err := NewOf[float64](cfg)
				if err != nil {
					t.Fatal(err)
				}
				refills := 0
				for k := 0; k < steps; k++ {
					if stepRefilled(s) {
						refills++
					}
				}
				if refills < 2 {
					t.Fatalf("workers=%d: %d plunger refills in %d steps, want at least 2", workers, refills, steps)
				}
				var buf bytes.Buffer
				if err := s.WriteCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
					continue
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("workers=%d: checkpoint differs from one worker's (%d vs %d bytes)", workers, buf.Len(), len(want))
				}
			}
		})
	}
}
