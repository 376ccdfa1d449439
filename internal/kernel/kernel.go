// Package kernel holds the width-grouped inner loops of the particle
// pipeline — the relative-speed sweep feeding the selection rule and the
// collision exchange — as generic functions
// instantiated for both storage precisions. The loops are blocked eight
// lanes at a time (the width of an AVX2/AVX-512 register over float32)
// with slice-to-array conversions hoisting the bounds checks out of the
// lane loop, so the compiler emits straight-line per-block code and a
// float32 store moves half the bytes of a float64 store through the same
// sweeps.
//
// Precision policy: position and velocity columns are stored and
// streamed in F — including the relative-speed squared sums, the
// streaming half of the selection sweep — while the square root, the
// probability rule, the RNG draws, and the collision exchange compute in
// float64. A float64 instantiation therefore performs bit-for-bit the
// arithmetic of the pre-generic reference code (the golden tests pin
// this); a float32 instantiation deviates by the single-precision
// relative-speed accumulation and one rounding per column write.
//
//dsmclint:layer kernel
//dsmclint:scope determinism
//dsmclint:scope rng-discipline
package kernel

// Float is the storage-precision constraint shared by the particle
// store, the sharded sort, and the engine: float32 halves the memory
// traffic of the cell-major sweeps, float64 is the bit-exact reference.
type Float interface{ ~float32 | ~float64 }

// Width is the lane-group size of the blocked kernels.
const Width = 8
