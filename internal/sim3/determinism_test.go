package sim3

import (
	"math"
	"testing"
)

// detConfig crosses par's serial cutoff in both shard dimensions (2560
// cells, ~20k particles), so the determinism check exercises the
// concurrent dispatch path — and races it under `go test -race` — rather
// than the serial fallback.
func detConfig() Config {
	return Config{
		NX: 160, NY: 4, NZ: 4,
		Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131,
		NPerCell: 8, Seed: 99,
	}
}

// TestParallelDeterminism3D: same seed, Workers=1 vs Workers=8, must give
// byte-identical particle state and density profile after N steps.
func TestParallelDeterminism3D(t *testing.T) {
	run := func(workers int) *SimOf[float64] {
		cfg := detConfig()
		cfg.Workers = workers
		s, err := NewOf[float64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(25)
		return s
	}
	s1 := run(1)
	s8 := run(8)
	if s1.Collisions() != s8.Collisions() {
		t.Fatalf("collisions: %d vs %d", s1.Collisions(), s8.Collisions())
	}
	if s1.N() != s8.N() {
		t.Fatalf("particle count: %d vs %d", s1.N(), s8.N())
	}
	a, b := s1.Store(), s8.Store()
	for i := 0; i < s1.N(); i++ {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) ||
			math.Float64bits(a.Y[i]) != math.Float64bits(b.Y[i]) ||
			math.Float64bits(a.Z[i]) != math.Float64bits(b.Z[i]) {
			t.Fatalf("position diverged at particle %d", i)
		}
		va, vb := a.Vel(i), b.Vel(i)
		for k := 0; k < 5; k++ {
			if math.Float64bits(va[k]) != math.Float64bits(vb[k]) {
				t.Fatalf("velocity component %d diverged at particle %d", k, i)
			}
		}
	}
	p1, p8 := s1.DensityProfile(), s8.DensityProfile()
	for i := range p1 {
		if math.Float64bits(p1[i]) != math.Float64bits(p8[i]) {
			t.Fatalf("density profile diverged at slab %d: %v vs %v", i, p1[i], p8[i])
		}
	}
}
