// Package golden provides the FNV-1a state-hash machinery that pins the
// reference backends bit-for-bit: every particle column is absorbed word
// by word (IEEE-754 bits) together with the integer state (flow count,
// reservoir level, collision count, plunger/piston position). Two
// simulations hash equal if and only if their full mutable state is
// bit-identical, which is what the golden regression tests and the
// checkpoint/restore bit-identity tests assert. The hash functions are
// generic over the storage precision; the float64 instantiation absorbs
// exactly the bytes the pre-refactor test-local helpers did, so the
// recorded golden values are unchanged.
package golden

import (
	"math"

	"dsmc/internal/kernel"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashWord absorbs one 64-bit word into an FNV-1a state, byte by byte
// little-endian.
func HashWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// hashCol absorbs a particle column: each value is widened to float64
// and its IEEE-754 bits hashed, so the float64 instantiation reproduces
// the historical hashes exactly and equal float32 states hash equal.
func hashCol[F kernel.Float](h uint64, xs []F) uint64 {
	for _, x := range xs {
		h = HashWord(h, math.Float64bits(float64(x)))
	}
	return h
}

// hashCells absorbs the int32 cell-index column.
func hashCells(h uint64, cs []int32) uint64 {
	for _, c := range cs {
		h = HashWord(h, uint64(uint32(c)))
	}
	return h
}

// HashSim2D hashes the full mutable state of a 2D wind-tunnel
// simulation: flow and reservoir counts, cumulative collisions, every
// particle column, and the cell indices.
//
//dsmclint:allow exports the state hash every 2D golden test pins
func HashSim2D[F kernel.Float](s *sim.SimOf[F]) uint64 {
	st := s.Store()
	n := st.Len()
	h := uint64(fnvOffset)
	h = HashWord(h, uint64(s.NFlow()))
	h = HashWord(h, uint64(s.NReservoir()))
	h = HashWord(h, uint64(s.Collisions()))
	for _, col := range [][]F{st.X, st.Y, st.U, st.V, st.W, st.R1, st.R2} {
		h = hashCol(h, col[:n])
	}
	if st.Evib != nil {
		h = hashCol(h, st.Evib[:n])
	} else {
		// A store without the column holds n zero energies: absorb them,
		// so the recorded hashes do not depend on how zeros are stored.
		for i := 0; i < n; i++ {
			h = HashWord(h, 0)
		}
	}
	return hashCells(h, st.Cell[:n])
}

// HashSim3D hashes the full mutable state of a 3D shock-tube
// simulation: particle count, cumulative collisions, piston position,
// every particle column, and the cell indices.
//
//dsmclint:allow exports the state hash every 3D golden test pins
func HashSim3D[F kernel.Float](s *sim3.SimOf[F]) uint64 {
	st := s.Store()
	n := st.Len()
	h := uint64(fnvOffset)
	h = HashWord(h, uint64(s.N()))
	h = HashWord(h, uint64(s.Collisions()))
	h = HashWord(h, math.Float64bits(s.PistonX()))
	for _, col := range [][]F{st.X, st.Y, st.Z, st.U, st.V, st.W, st.R1, st.R2} {
		h = hashCol(h, col[:n])
	}
	return hashCells(h, st.Cell[:n])
}
