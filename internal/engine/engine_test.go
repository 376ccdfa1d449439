package engine

import (
	"math"
	"testing"

	"dsmc/internal/collide"
	"dsmc/internal/kernel"
	"dsmc/internal/par"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// stubDomain is a minimal Domain for unit tests that never step: one
// cell, no boundaries.
type stubDomain[F kernel.Float] struct{}

func (stubDomain[F]) PreMove()                                      {}
func (stubDomain[F]) Boundary(st *particle.Store[F], w, lo, hi int) {}
func (stubDomain[F]) PostMove()                                     {}
func (stubDomain[F]) Relax()                                        {}

// TestVibExchangeConservesPairEnergy verifies the rescaling path: a
// forced exchange pair conserves translational+vibrational energy to
// round-off.
func TestVibExchangeConservesPairEnergy(t *testing.T) {
	pool := par.New(1)
	store := particle.NewStore[float64](4)
	e := New(Config{
		Cells:  1,
		Seed:   3,
		Layout: StreamLayout{NumDomains: 4, Sort: 0, Select: 1, Collide: 2, Wall: 3},
		ZVib:   1, // exchange on every collision
	}, stubDomain[float64]{}, pool, store)
	r := rng.NewStream(9)
	for i := 0; i < 2; i++ {
		store.Append(0.5, 0.5, collide.State5{
			r.Gaussian(0, 1), r.Gaussian(0, 1), r.Gaussian(0, 1),
			r.Gaussian(0, 1), r.Gaussian(0, 1),
		})
		store.Evib[i] = 0.3 * float64(i+1)
	}
	va, vb := store.Vel(0), store.Vel(1)
	pairE := func(a, b collide.State5, ea, eb float64) float64 {
		var sum float64
		for k := 0; k < 5; k++ {
			sum += a[k]*a[k] + b[k]*b[k]
		}
		return sum + ea + eb // Evib is stored in the same Σv² units
	}
	cr := e.PhaseStream(e.cfg.Layout.Collide, 0)
	before := pairE(va, vb, store.Evib[0], store.Evib[1])
	e.vibExchange(store, &va, &vb, 0, 1, &cr)
	after := pairE(va, vb, store.Evib[0], store.Evib[1])
	if math.Abs(after-before) > 1e-9*before {
		t.Errorf("pair energy drift: %v -> %v", before, after)
	}
}

// TestEpochEncoding: the epoch word must advance by NumDomains per step
// and keep the domains disjoint — the invariant that keeps every phase
// on its own stream coordinates.
func TestEpochEncoding(t *testing.T) {
	pool := par.New(1)
	e := New(Config{
		Cells:  1,
		Seed:   1,
		Layout: StreamLayout{NumDomains: 4, Sort: 0, Select: 1, Collide: 2, Wall: 3},
	}, stubDomain[float64]{}, pool, particle.NewStore[float64](1))
	seen := map[uint64]bool{}
	for step := 0; step < 3; step++ {
		e.step = step
		for _, d := range []uint64{0, 1, 2, 3} {
			ep := e.Epoch(d)
			if seen[ep] {
				t.Fatalf("epoch %d reused (step %d domain %d)", ep, step, d)
			}
			seen[ep] = true
		}
	}
}

// TestPhaseNames pins the timing-breakdown keys the public API reports.
func TestPhaseNames(t *testing.T) {
	want := []string{"move+boundary", "sort", "select", "collide"}
	for p := Phase(0); p < numPhases; p++ {
		if p.String() != want[p] {
			t.Errorf("phase %d named %q, want %q", p, p.String(), want[p])
		}
	}
}
