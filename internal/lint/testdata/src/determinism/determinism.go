// Package determinism seeds one violation of each determinism check:
// wall-clock reads, the global math/rand generator, and map-order
// iteration. The package opts in with //dsmclint:scope in its doc
// comment, as a tree package does; the same directive anywhere else is a
// finding.
//
//dsmclint:scope determinism
package determinism

import (
	"math/rand" // want "determinism: import of math/rand"
	"time"
)

// Clocked reads the wall clock twice and draws from the global
// generator.
func Clocked() (time.Duration, int64) {
	t0 := time.Now() // want "determinism: call to time.Now"
	n := rand.Int63()
	return time.Since(t0), n // want "determinism: call to time.Since"
}

// MapOrder iterates a map: the per-run randomized order leaks into the
// sum of floats (addition is not associative).
func MapOrder(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want "determinism: range over a map"
		s += v
	}
	return s
}

// SliceOrder iterates a slice: deterministic, no finding.
func SliceOrder(xs []float64) float64 {
	//dsmclint:scope determinism // want "dsmclint: //dsmclint:scope states nothing outside the package doc comment"
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}
