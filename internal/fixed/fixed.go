// Package fixed implements the 32-bit fixed-point arithmetic used by the
// Connection Machine implementation of the particle simulation.
//
// The paper stores the physical state of a particle in a 32-bit fixed-point
// format with 23 bits of precision (matching the 23-bit mantissa of IEEE
// single precision). This package provides that format — Q8.23 plus sign,
// referred to throughout as Q9.23 — together with the stochastic-rounding
// correction the paper applies after halving, and the "quick but dirty"
// random numbers extracted from the low-order bits of state quantities.
//
//dsmclint:layer leaf
package fixed

import "math"

// FracBits is the number of fractional bits in the fixed-point format.
// The paper uses 23 bits of precision in a 32-bit word.
const FracBits = 23

// Max and Min are the saturation limits of the format.
const (
	Max Fix = math.MaxInt32
	Min Fix = math.MinInt32
)

// Fix is a signed 32-bit fixed-point number with FracBits fractional bits.
// The integer range is [-256, 256) with a resolution of 2^-23.
type Fix int32

// FromFloat converts a float64 to fixed point, rounding to nearest and
// saturating at the format limits.
func FromFloat(f float64) Fix {
	v := math.RoundToEven(f * (1 << FracBits))
	if v >= float64(math.MaxInt32) {
		return Max
	}
	if v <= float64(math.MinInt32) {
		return Min
	}
	return Fix(v)
}

// FromInt converts an integer to fixed point, saturating on overflow.
func FromInt(i int) Fix {
	if i >= 1<<(31-FracBits) {
		return Max
	}
	if i < -(1 << (31 - FracBits)) {
		return Min
	}
	return Fix(i << FracBits)
}

// Float converts a fixed-point value to float64 exactly.
func (x Fix) Float() float64 { return float64(x) / (1 << FracBits) }

// Int returns the integer part of x, truncating toward negative infinity.
// This matches the bit-shift truncation of the bit-serial hardware and is
// what the cell-index computation in the paper uses.
func (x Fix) Int() int { return int(x >> FracBits) }

// Add returns x+y with saturation.
func Add(x, y Fix) Fix {
	s := int64(x) + int64(y)
	return sat64(s)
}

// Sub returns x-y with saturation.
func Sub(x, y Fix) Fix {
	s := int64(x) - int64(y)
	return sat64(s)
}

// Mul returns the fixed-point product x*y, truncated toward zero on the
// low side, with saturation.
func Mul(x, y Fix) Fix {
	p := (int64(x) * int64(y)) >> FracBits
	return sat64(p)
}

// HalfStochastic returns x/2 with the paper's correction: when the shifted-
// out bit is 1 (the result was truncated), one LSB is added with probability
// 1/2 using the supplied random bit, so the expected value of the result is
// exactly x/2. rbit must be 0 or 1.
func HalfStochastic(x Fix, rbit uint32) Fix {
	h := x >> 1
	if x&1 != 0 {
		h += Fix(rbit & 1)
	}
	return h
}

// DirtyBits extracts n low-order bits of x as the paper's "quick but dirty
// random number of limited size and unspecified distribution". n must be in
// [1, 23]; the lowest bit is skipped because after a halving it is the most
// recently generated and strongly correlated with the dither.
func DirtyBits(x Fix, n uint) uint32 {
	return (uint32(x) >> 1) & ((1 << n) - 1)
}

// Neg returns -x with saturation.
func Neg(x Fix) Fix {
	if x == Min {
		return Max
	}
	return -x
}

// Scale multiplies x by the integer k with saturation.
func Scale(x Fix, k int) Fix {
	return sat64(int64(x) * int64(k))
}

func sat64(v int64) Fix {
	if v > int64(math.MaxInt32) {
		return Max
	}
	if v < int64(math.MinInt32) {
		return Min
	}
	return Fix(v)
}
