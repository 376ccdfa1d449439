// Package molec defines the molecular models of the simulation. The
// paper's model is the ideal diatomic Maxwell molecule — three
// translational and two rotational degrees of freedom, inverse-power-law
// exponent α = 4 — for which the selection rule loses its dependence on
// the relative speed. The generalisations called for in the paper's
// future-work section (power-law interactions with arbitrary α, hard
// spheres, VHS) are provided through the same type.
package molec

import "math"

// Model captures how a molecular interaction enters the selection rule:
// P/P∞ = (n/n∞)·(g/g∞)^GExp, with GExp = 1 − 4/α for an inverse power
// law of exponent α (eq. 6–8 of the paper).
type Model struct {
	Name string
	// GExp is the exponent on the normalised relative speed in the
	// selection rule.
	GExp float64
	// RotDOF is the number of rotational degrees of freedom (2 for the
	// paper's diatomic model, 0 for a monatomic gas).
	RotDOF int
}

// Maxwell returns the paper's model: Maxwell molecules (α = 4), diatomic.
// The selection rule reduces to P/P∞ = n/n∞ — no relative-speed factor —
// which is why the paper calls it the special case.
func Maxwell() Model { return Model{Name: "maxwell", GExp: 0, RotDOF: 2} }

// HardSphere returns the hard-sphere limit α → ∞, GExp = 1.
func HardSphere() Model { return Model{Name: "hard-sphere", GExp: 1, RotDOF: 2} }

// PowerLaw returns an inverse-power-law molecule with exponent alpha ≥ 4.
//
//dsmclint:allow exports a molecular model the goldens pin
func PowerLaw(alpha float64) Model {
	if alpha < 4 {
		panic("molec: power-law exponent must be at least 4 (Maxwell)")
	}
	return Model{Name: "power-law", GExp: 1 - 4/alpha, RotDOF: 2}
}

// VHS returns a variable-hard-sphere model with viscosity exponent omega
// in [0.5, 1]; ω = 0.5 is a hard sphere, ω = 1 a Maxwell molecule. The
// VHS cross-section σ ∝ g^(1−2ω) gives P ∝ n·g^(2−2ω).
//
//dsmclint:allow exports a molecular model the goldens pin
func VHS(omega float64) Model {
	if omega < 0.5 || omega > 1 {
		panic("molec: VHS omega must lie in [0.5, 1]")
	}
	return Model{Name: "vhs", GExp: 2 - 2*omega, RotDOF: 2}
}

// Gamma returns the ratio of specific heats implied by the model's
// degrees of freedom: (dof+2)/dof with dof = 3 + RotDOF.
func (m Model) Gamma() float64 {
	dof := float64(3 + m.RotDOF)
	return (dof + 2) / dof
}

// GFactor returns the relative-speed factor (g/g∞)^GExp of the selection
// rule, with the Maxwell fast path the paper's integer implementation
// exploits.
func (m Model) GFactor(gOverGInf float64) float64 {
	if m.GExp == 0 {
		return 1
	}
	if gOverGInf <= 0 {
		return 0
	}
	return math.Pow(gOverGInf, m.GExp)
}
