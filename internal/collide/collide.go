// Package collide implements the McDonald–Baganoff collision algorithm and
// selection rule that the paper parallelizes: a per-candidate-pair
// collision probability (eq. 5–8) and a post-collision state constructed
// by randomly permuting and sign-flipping the five relative velocity
// components (eq. 18), which conserves linear momentum and energy exactly.
package collide

import (
	"math"

	"dsmc/internal/molec"
	"dsmc/internal/rng"
)

// State5 is the five-component velocity state of a diatomic particle:
// indices 0–2 are the translational components (u, v, w) and 3–4 the
// rotational components (the rotational velocity vector r of eq. 9).
type State5 = [5]float64

// RelMean decomposes a candidate pair into relative and mean components:
// mean[i] = (a[i]+b[i])/2, rel[i] = a[i]-b[i] (eqs. 12–15).
func RelMean(a, b *State5) (rel, mean State5) {
	for i := 0; i < 5; i++ {
		rel[i] = a[i] - b[i]
		mean[i] = (a[i] + b[i]) / 2
	}
	return rel, mean
}

// TransRelSpeed returns the magnitude of the translational relative
// velocity g, the quantity entering the selection rule's cross-section
// factor.
func TransRelSpeed(a, b *State5) float64 {
	du := a[0] - b[0]
	dv := a[1] - b[1]
	dw := a[2] - b[2]
	return math.Sqrt(du*du + dv*dv + dw*dw)
}

// Collide performs one McDonald–Baganoff collision on the pair (a, b):
// the five pre-collision relative components are re-ordered by perm and
// each is given a random, equally probable sign from the low bits of
// signs; the pair is reconstructed about the unchanged mean. Any
// post-collision set satisfying eq. 18 is valid; using the pre-collision
// values themselves makes the construction exact.
//
// The ten components are read once and the five relative components
// formed before anything is written; each output component is then one
// inlined Exchange, unrolled. A loop over perm with copies of both
// arrays cost as much again as the arithmetic.
//
//dsmc:hotpath
func Collide(a, b *State5, perm rng.Perm5, signs uint32) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	b0, b1, b2, b3, b4 := b[0], b[1], b[2], b[3], b[4]
	rel := State5{a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4}
	a[0], b[0] = Exchange(a0, b0, rel[perm[0]], signs)
	a[1], b[1] = Exchange(a1, b1, rel[perm[1]], signs>>1)
	a[2], b[2] = Exchange(a2, b2, rel[perm[2]], signs>>2)
	a[3], b[3] = Exchange(a3, b3, rel[perm[3]], signs>>3)
	a[4], b[4] = Exchange(a4, b4, rel[perm[4]], signs>>4)
}

// Exchange is one component of the exchange: given the pair's values ai
// and bi of component i and the relative component rel it receives, it
// returns a' = mean + h and b' = mean − h, with mean = (ai+bi)/2 and
// h = ±rel/2, negated when the low bit of sign is set. The sign is
// applied by XORing the bit into the IEEE-754 sign position — negation
// is exactly that flip, for ±0, infinities and NaNs too — because a
// branch on a fair coin is mispredicted half the time, and there are
// five per collision. It is the one definition of the formula: Collide
// and kernel.ExchangePair both inline it.
//
//dsmc:inline
func Exchange(ai, bi, rel float64, sign uint32) (a, b float64) {
	mean := (ai + bi) / 2
	h := math.Float64frombits(math.Float64bits(rel)^uint64(sign&1)<<63) / 2
	return mean + h, mean - h
}

// Invariants returns the conserved quantities of a pair: the three
// components of linear momentum (translational only — rotational
// components carry no linear momentum) and the total energy
// (translational + rotational, per unit mass, factor ½ omitted).
//
//dsmclint:allow exports the pair's momentum and energy, the conservation check of every collision test
func Invariants(a, b *State5) (mom [3]float64, energy float64) {
	for i := 0; i < 3; i++ {
		mom[i] = a[i] + b[i]
	}
	for i := 0; i < 5; i++ {
		energy += a[i]*a[i] + b[i]*b[i]
	}
	return mom, energy
}

// Rule is the selection rule, eq. (7)/(8) of the paper, normalised to the
// freestream: P = P∞ · (n/n∞) · (g/g∞)^GExp. The first two factors are
// one number per cell (CellProb, the only place they are computed); the
// third is 1 for the paper's Maxwell molecule, so only the other models
// ever look at a pair's relative speed.
type Rule struct {
	Model molec.Model
	// PInf is the freestream collision probability Δt/t_c∞.
	PInf float64
	// NInf is the freestream number of simulator particles per unit cell
	// volume.
	NInf float64
	// GInf is the freestream mean relative speed √2·c̄∞ used to normalise g.
	GInf float64
	// CollideAll short-circuits the rule to P = 1, the paper's
	// near-continuum mode (freestream mean free path set to zero), where
	// the number of collisions in a cell is half the number of particles.
	CollideAll bool
}

// CellProb evaluates the part of the rule that is one number per cell:
// the density factor p = P∞·(n/n∞) of a cell of the given population and
// (possibly fractional) volume. whole reports that p is already every
// candidate pair's probability, clamped to [0, 1] — the near-continuum
// mode, an empty or zero-volume cell, and any model without a
// relative-speed factor (the paper's Maxwell molecule: "the selection
// rule depends only on density"), so a caller can skip the relative
// speeds of such a cell altogether. Otherwise p is the unclamped prefix
// Prob multiplies by Model.GFactor(g/GInf) pair by pair.
func (r Rule) CellProb(cellCount int, cellVolume float64) (p float64, whole bool) {
	if r.CollideAll {
		return 1, true
	}
	if cellVolume <= 0 || cellCount <= 0 {
		return 0, true
	}
	n := float64(cellCount) / cellVolume
	p = r.PInf * (n / r.NInf)
	if r.Model.GExp != 0 {
		return p, false
	}
	return clamp01(p), true
}

// Prob returns the collision probability for a candidate pair in a cell
// of the given population and (possibly fractional) volume, with
// translational relative speed g. The result is clamped to [0, 1].
func (r Rule) Prob(cellCount int, cellVolume, g float64) float64 {
	p, whole := r.CellProb(cellCount, cellVolume)
	if whole {
		return p
	}
	return clamp01(p * r.Model.GFactor(g/r.GInf))
}

// clamp01 limits a probability to [0, 1]; NaN passes through.
func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
