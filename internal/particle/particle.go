// Package particle provides the particle containers of the reference
// simulation: a structure-of-arrays store for the flow particles (the
// layout a vectorized implementation sweeps over), generic over the
// storage precision, and the reservoir that receives particles leaving
// the downstream boundary, re-velocities them with a rectangular
// distribution, lets them relax by colliding amongst themselves, and
// supplies them back to the upstream plunger void.
//
//dsmclint:layer storage
//dsmclint:scope determinism
//dsmclint:scope rng-discipline
package particle

import (
	"dsmc/internal/collide"
	"dsmc/internal/kernel"
	"dsmc/internal/rng"
)

// Store holds particles in structure-of-arrays layout, with every column
// in the storage precision F (float64 is the bit-exact reference;
// float32 halves the memory traffic of the cell-major sweeps). The
// physical state per particle is (x, y, u, v, w, r1, r2): 7 values in
// 2D, exactly the paper's count; 3D simulations add the Z column
// (NewStore3) and vibrating gases the Evib column (AddEvib), so the
// payload every sort moves is X, Y, [Z], U, V, W, R1, R2, [Evib]. Cell is
// derived (computational) state.
//
// All randomness is drawn in float64 and rounded once on store, so the
// RNG streams are shared between precisions and the float64
// instantiation reproduces the pre-generic store exactly.
//
// The simulations keep the store cell-major: every step the sort
// (par.CellSort.Sort) permutes it in place, gathering each payload
// column into one of the sorter's scratch columns and swapping the two
// slice headers, so cell c's particles occupy the contiguous index range
// cellStart[c]:cellStart[c+1] and Cell is non-decreasing. A column slice
// taken from the store is therefore stale after the next sort. The sort
// rewrites Cell from the bucket boundaries, because it has readers before
// the next move rewrites it: the golden hashes, the checkpoint writer and
// sample.AddFlow.
type Store[F kernel.Float] struct {
	X, Y []F
	// Z is the third coordinate of 3D stores; nil in 2D.
	Z       []F
	U, V, W []F
	R1, R2  []F
	// Evib is the continuous vibrational energy per particle (the
	// future-work extension); nil — every energy zero, and no bytes moved
	// for it — unless the simulation enables vibrational relaxation.
	Evib []F
	Cell []int32
	n    int
}

// NewStore returns a 2D store with the given capacity and zero particles.
func NewStore[F kernel.Float](capacity int) *Store[F] {
	return &Store[F]{
		X: make([]F, capacity), Y: make([]F, capacity),
		U: make([]F, capacity), V: make([]F, capacity),
		W:  make([]F, capacity),
		R1: make([]F, capacity), R2: make([]F, capacity),
		Cell: make([]int32, capacity),
	}
}

// NewStore3 returns a 3D store (with the Z column) of the given capacity.
func NewStore3[F kernel.Float](capacity int) *Store[F] {
	s := NewStore[F](capacity)
	s.Z = make([]F, capacity)
	return s
}

// AddEvib gives the store its vibrational-energy column, all zeros — what
// the missing column stood for — unless it already has one.
func (s *Store[F]) AddEvib() {
	if s.Evib == nil {
		s.Evib = make([]F, len(s.X))
	}
}

// Len returns the number of live particles.
func (s *Store[F]) Len() int { return s.n }

// SetLen declares the first n slots live — the receiving buffer of a
// full-store scatter uses this after its payload is written.
func (s *Store[F]) SetLen(n int) { s.n = n }

// Cap returns the store capacity.
func (s *Store[F]) Cap() int { return len(s.X) }

// Append adds a particle and returns its index, or -1 if full.
func (s *Store[F]) Append(x, y float64, v collide.State5) int {
	if s.n >= len(s.X) {
		return -1
	}
	i := s.n
	s.n++
	s.X[i], s.Y[i] = F(x), F(y)
	if s.Evib != nil {
		s.Evib[i] = 0
	}
	s.SetVel(i, v)
	return i
}

// Vel returns the five velocity components of particle i, widened to the
// float64 collision state.
//
//dsmc:hotpath
func (s *Store[F]) Vel(i int) collide.State5 {
	return collide.State5{
		float64(s.U[i]), float64(s.V[i]), float64(s.W[i]),
		float64(s.R1[i]), float64(s.R2[i]),
	}
}

// SetVel stores the five velocity components of particle i, rounding
// once to the storage precision.
//
//dsmc:hotpath
func (s *Store[F]) SetVel(i int, v collide.State5) {
	s.U[i], s.V[i], s.W[i], s.R1[i], s.R2[i] = F(v[0]), F(v[1]), F(v[2]), F(v[3]), F(v[4])
}

// RemoveSwap deletes particle i by moving the last particle into its slot.
//
//dsmc:hotpath
func (s *Store[F]) RemoveSwap(i int) {
	last := s.n - 1
	if i != last {
		s.X[i], s.Y[i] = s.X[last], s.Y[last]
		if s.Z != nil {
			s.Z[i] = s.Z[last]
		}
		s.U[i], s.V[i], s.W[i] = s.U[last], s.V[last], s.W[last]
		s.R1[i], s.R2[i] = s.R1[last], s.R2[last]
		if s.Evib != nil {
			s.Evib[i] = s.Evib[last]
		}
		s.Cell[i] = s.Cell[last]
	}
	s.n = last
}

// Swap exchanges the physical payload of particles i and j (position,
// velocity components, vibrational energy where carried). Cell is NOT
// swapped: a record shuffle only ever swaps records inside one cell span,
// where the indices are equal by the cell-major invariant. No simulation
// calls it — the step shuffles index entries inside the sort — it stays
// only because the frozen benchmark/probes.go passes it to
// par.CellSort.Shuffle; ROADMAP item 2(a) deletes both.
//
//dsmc:hotpath
func (s *Store[F]) Swap(i, j int) {
	s.X[i], s.X[j] = s.X[j], s.X[i]
	s.Y[i], s.Y[j] = s.Y[j], s.Y[i]
	if s.Z != nil {
		s.Z[i], s.Z[j] = s.Z[j], s.Z[i]
	}
	s.U[i], s.U[j] = s.U[j], s.U[i]
	s.V[i], s.V[j] = s.V[j], s.V[i]
	s.W[i], s.W[j] = s.W[j], s.W[i]
	s.R1[i], s.R1[j] = s.R1[j], s.R1[i]
	s.R2[i], s.R2[j] = s.R2[j], s.R2[i]
	if s.Evib != nil {
		s.Evib[i], s.Evib[j] = s.Evib[j], s.Evib[i]
	}
}

// TotalEnergy returns Σ(u²+v²+w²+r1²+r2²) over live particles (per unit
// mass, factor ½ omitted) — the conservation diagnostic. Accumulated in
// float64 for either storage precision.
func (s *Store[F]) TotalEnergy() float64 {
	var e float64
	for i := 0; i < s.n; i++ {
		u, v, w := float64(s.U[i]), float64(s.V[i]), float64(s.W[i])
		r1, r2 := float64(s.R1[i]), float64(s.R2[i])
		e += u*u + v*v + w*w + r1*r1 + r2*r2
	}
	return e
}

// InitFreestream fills the store with count particles uniformly
// distributed over the region accepted by inRegion, with drifting
// Maxwellian velocities: mean (uDrift, 0, 0), each component std sigma.
// Rotational components are sampled at the same temperature
// (equipartition). All draws are float64 (shared across precisions);
// values are rounded once on store. Returns the number actually placed.
func (s *Store[F]) InitFreestream(count int, w, h, uDrift, sigma float64,
	inRegion func(x, y float64) bool, r *rng.Stream) int {
	placed := 0
	for placed < count {
		x := r.Float64() * w
		y := r.Float64() * h
		if !inRegion(x, y) {
			continue
		}
		v := collide.State5{
			uDrift + r.Gaussian(0, sigma),
			r.Gaussian(0, sigma),
			r.Gaussian(0, sigma),
			r.Gaussian(0, sigma),
			r.Gaussian(0, sigma),
		}
		if s.Append(x, y, v) < 0 {
			break
		}
		placed++
	}
	return placed
}
