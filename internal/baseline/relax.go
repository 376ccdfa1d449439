package baseline

import (
	"dsmc/internal/collide"
	"dsmc/internal/rng"
)

// Relax drives a homogeneous (single-cell, space-free) relaxation with the
// given scheme: each step the particle order is shuffled (providing the
// random pairing the paper's sort provides in the full simulation) and the
// scheme collides the whole box as one cell of the given volume. Returns
// the total number of collision events.
func Relax(scheme Scheme, parts []collide.State5, vol float64, rule collide.Rule, steps int, r *rng.Stream) int {
	total := 0
	for s := 0; s < steps; s++ {
		for i := len(parts) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			parts[i], parts[j] = parts[j], parts[i]
		}
		total += scheme.CollideCell(parts, vol, rule, r)
	}
	return total
}

// Moments summarises an ensemble: per-component energies, total momentum,
// total energy, and pooled kurtosis of all five components.
type Moments struct {
	CompEnergy [5]float64
	Momentum   [3]float64
	Energy     float64
	Kurtosis   float64
}

// MeasureMoments computes ensemble diagnostics.
func MeasureMoments(parts []collide.State5) Moments {
	var m Moments
	var s2, s4 float64
	n := float64(len(parts) * 5)
	if n == 0 {
		return m
	}
	// Pooled central moments use the per-component means.
	var mean [5]float64
	for i := range parts {
		for k := 0; k < 5; k++ {
			mean[k] += parts[i][k]
		}
	}
	for k := 0; k < 5; k++ {
		mean[k] /= float64(len(parts))
	}
	for i := range parts {
		for k := 0; k < 5; k++ {
			m.CompEnergy[k] += parts[i][k] * parts[i][k]
			d := parts[i][k] - mean[k]
			s2 += d * d
			s4 += d * d * d * d
		}
		for k := 0; k < 3; k++ {
			m.Momentum[k] += parts[i][k]
		}
	}
	for k := 0; k < 5; k++ {
		m.Energy += m.CompEnergy[k]
	}
	v := s2 / n
	if v > 0 {
		m.Kurtosis = (s4 / n) / (v * v)
	}
	return m
}

// EquilibriumEnsemble builds n particles with Gaussian components of the
// given standard deviation (an equilibrated gas at rest).
//
//dsmclint:allow exports initial state of the baseline relaxation references
func EquilibriumEnsemble(n int, sigma float64, r *rng.Stream) []collide.State5 {
	parts := make([]collide.State5, n)
	for i := range parts {
		for k := 0; k < 5; k++ {
			parts[i][k] = r.Gaussian(0, sigma)
		}
	}
	return parts
}

// RectangularEnsemble builds n particles with rectangular (uniform)
// velocity components of the given standard deviation — the reservoir's
// injection state.
func RectangularEnsemble(n int, sigma float64, r *rng.Stream) []collide.State5 {
	parts := make([]collide.State5, n)
	for i := range parts {
		for k := 0; k < 5; k++ {
			parts[i][k] = r.Rect(sigma)
		}
	}
	return parts
}

// AnisotropicEnsemble builds n particles with all thermal energy in the
// x-component — the classic relaxation-to-isotropy initial condition.
//
//dsmclint:allow exports initial state of the relaxation-to-isotropy reference
func AnisotropicEnsemble(n int, sigma float64, r *rng.Stream) []collide.State5 {
	parts := make([]collide.State5, n)
	for i := range parts {
		parts[i][0] = r.Gaussian(0, sigma)
	}
	return parts
}
