// Package rngdiscipline seeds violations of the strict rng-discipline
// tier: ad-hoc stream constructors and raw Stream literals, next to the
// counter-based constructions the rule requires.
//
//dsmclint:scope rng-discipline
package rngdiscipline

import "dsmc/internal/rng"

// AdHoc builds streams every way the strict tier forbids.
func AdHoc(seed uint64) float64 {
	r := rng.NewStream(seed)     // want "rng-discipline: ad-hoc stream constructor rng.NewStream"
	many := rng.Streams(seed, 4) // want "rng-discipline: ad-hoc stream constructor rng.Streams"
	raw := rng.Stream{}          // want "rng-discipline: composite literal of rng.Stream"
	_ = many
	_ = raw
	return r.Float64()
}

// CounterBased is the sanctioned construction: no findings.
func CounterBased(master uint64) float64 {
	seed := rng.JobSeed(master, 3)
	r := rng.KeyAt(seed, 7).At(11)
	return r.Float64()
}
