package collide

import (
	"math"

	"dsmc/internal/rng"
)

// The exchange model below is the generalisation the paper's future-work
// section asks for that the simulation runs: relaxation into a continuous
// vibrational energy reservoir.

// VibExchange relaxes a pair's vibrational energies (continuous model,
// two effective vibrational degrees of freedom per particle) against the
// collision energy with vibrational collision number zVib. It returns the
// updated vibrational energies along with a scale factor to apply to the
// pair's relative translational velocity so total energy stays conserved.
// The caller owns applying the scale (see Simulation's vibrating mode).
func VibExchange(eTr, eVibA, eVibB, zVib float64, r *rng.Stream) (eTrNew, eVibANew, eVibBNew float64) {
	if zVib < 1 {
		zVib = 1
	}
	if r.Float64() >= 1/zVib {
		return eTr, eVibA, eVibB
	}
	ec := eTr + eVibA + eVibB
	// Fraction to translation: Beta(3/2, 2) against 4 vibrational dof.
	f := betaSample(1.5, 2.0, r)
	eTrNew = f * ec
	rest := ec - eTrNew
	fa := r.Float64()
	return eTrNew, rest * fa, rest * (1 - fa)
}

// betaSample draws from Beta(a, b) using Jöhnk's rejection method,
// adequate for the small shape parameters used here.
func betaSample(a, b float64, r *rng.Stream) float64 {
	for i := 0; i < 1000; i++ {
		u := math.Pow(r.Float64(), 1/a)
		v := math.Pow(r.Float64(), 1/b)
		if u+v > 0 && u+v <= 1 {
			return u / (u + v)
		}
	}
	return 0.5
}
