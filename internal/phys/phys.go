// Package phys collects the compressible-flow and kinetic-theory relations
// used to calibrate the simulation and validate its results: the checks
// the paper applies, the oblique-shock angle from θ–β–M theory and the
// Rankine–Hugoniot density rise, and the piston-driven normal shock of
// the 3D tube.
//
// Units follow the simulation normalisation: lengths in cell widths, times
// in time steps, velocities in cells per step. Temperature enters only
// through the freestream most-probable speed.
//
//dsmclint:layer leaf
package phys

import (
	"errors"
	"math"
)

// GammaDiatomic is the ratio of specific heats for the paper's molecular
// model: three translational and two rotational degrees of freedom give
// γ = (5+2)/5 = 7/5.
const GammaDiatomic = 1.4

// Freestream bundles the normalised freestream state.
type Freestream struct {
	Mach   float64 // Mach number
	Cm     float64 // most probable thermal speed, cells/step
	Lambda float64 // mean free path, cells (0 = near-continuum mode)
	Gamma  float64 // ratio of specific heats
}

// SoundSpeed returns the freestream speed of sound a = cm·sqrt(γ/2),
// since a = sqrt(γRT) and cm = sqrt(2RT).
func (f Freestream) SoundSpeed() float64 { return f.Cm * math.Sqrt(f.Gamma/2) }

// Velocity returns the freestream flow speed u = M·a in cells/step.
func (f Freestream) Velocity() float64 { return f.Mach * f.SoundSpeed() }

// MeanSpeed returns the mean thermal speed c̄ = (2/√π)·cm.
func (f Freestream) MeanSpeed() float64 { return f.Cm * 2 / math.SqrtPi }

// ComponentSigma returns the standard deviation of each velocity
// component at equilibrium: cm/√2 (each quadratic degree of freedom
// carries kT/2).
func (f Freestream) ComponentSigma() float64 { return f.Cm / math.Sqrt2 }

// CollisionTime returns the freestream mean collision time t_c = λ/c̄.
// Near-continuum mode (λ = 0) returns 0.
func (f Freestream) CollisionTime() float64 {
	if f.Lambda <= 0 {
		return 0
	}
	return f.Lambda / f.MeanSpeed()
}

// SelectionPInf returns the freestream selection probability
// P∞ = Δt/t_c∞ (Δt = 1 in normalised units) used by the selection rule,
// eq. (4) of the paper. Near-continuum mode returns 1 (all candidates
// collide). The paper's validity constraint P∞ ≲ 1/3 is the caller's
// responsibility; ValidateTimeStep checks it.
func (f Freestream) SelectionPInf() float64 {
	tc := f.CollisionTime()
	if tc == 0 {
		return 1
	}
	p := 1 / tc
	if p > 1 {
		p = 1
	}
	return p
}

// ErrTimeStepTooLarge indicates the time step violates the selection-rule
// constraint that Δt be 3–4 times smaller than the mean collision time.
var ErrTimeStepTooLarge = errors.New("phys: time step exceeds t_c/3; selection rule invalid (reduce Cm or increase Lambda)")

// ValidateTimeStep enforces the paper's constraint on the selection rule
// (P_c = Δt/t_c valid only if Δt ≤ t_c/3). Near-continuum mode is exempt:
// there every candidate pair collides by construction.
func (f Freestream) ValidateTimeStep() error {
	if f.Lambda <= 0 {
		return nil
	}
	if f.SelectionPInf() > 1.0/3+1e-12 {
		return ErrTimeStepTooLarge
	}
	return nil
}

// MachAngle returns the Mach angle µ = asin(1/M); M must be ≥ 1.
func MachAngle(m float64) float64 { return math.Asin(1 / m) }

// thetaFromBeta evaluates the θ–β–M relation:
// tan θ = 2·cot β·(M²sin²β − 1) / (M²(γ + cos 2β) + 2).
func thetaFromBeta(m, beta, gamma float64) float64 {
	s := math.Sin(beta)
	num := 2 * (m*m*s*s - 1) / math.Tan(beta)
	den := m*m*(gamma+math.Cos(2*beta)) + 2
	return math.Atan(num / den)
}

// ErrDetachedShock indicates the wedge angle exceeds the maximum for an
// attached oblique shock at this Mach number.
var ErrDetachedShock = errors.New("phys: no attached oblique shock (deflection exceeds maximum)")

// ObliqueShockBeta solves the θ–β–M relation for the weak-shock wave angle
// β given the flow deflection θ (radians). For the paper's validation
// case, M=4 and θ=30° give β=45°.
func ObliqueShockBeta(m, theta, gamma float64) (float64, error) {
	if m <= 1 {
		return 0, errors.New("phys: oblique shock requires supersonic flow")
	}
	lo := MachAngle(m)
	// Find the β of maximum deflection by golden-section-free scan, then
	// bisect on the weak branch [µ, βmax].
	hi := math.Pi / 2
	betaMax, thetaMax := lo, 0.0
	for i := 0; i <= 2000; i++ {
		b := lo + (hi-lo)*float64(i)/2000
		if th := thetaFromBeta(m, b, gamma); th > thetaMax {
			thetaMax, betaMax = th, b
		}
	}
	if theta > thetaMax {
		return 0, ErrDetachedShock
	}
	a, b := lo, betaMax
	for i := 0; i < 200; i++ {
		mid := (a + b) / 2
		if thetaFromBeta(m, mid, gamma) < theta {
			a = mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2, nil
}

// NormalMach returns the normal component of the upstream Mach number for
// wave angle β.
func NormalMach(m, beta float64) float64 { return m * math.Sin(beta) }

// RHDensityRatio returns ρ2/ρ1 across a shock with upstream normal Mach
// number m1n (Rankine–Hugoniot). For the paper's case (M=4, β=45°,
// M1n = 2.83) this is 3.7.
func RHDensityRatio(m1n, gamma float64) float64 {
	return (gamma + 1) * m1n * m1n / ((gamma-1)*m1n*m1n + 2)
}

// PistonShockMach returns the Mach number Ms of the normal shock a piston
// moving at speed up drives into gas at rest with sound speed a1: the
// root above 1 of Ms − 1/Ms = up(γ+1)/(2a1). The shock moves at Ms·a1.
func PistonShockMach(up, a1, gamma float64) float64 {
	k := up * (gamma + 1) / (2 * a1)
	return (k + math.Sqrt(k*k+4)) / 2
}

// RHPressureRatio returns p2/p1 across the shock.
func RHPressureRatio(m1n, gamma float64) float64 {
	return 1 + 2*gamma/(gamma+1)*(m1n*m1n-1)
}

// RHTemperatureRatio returns T2/T1 across the shock.
func RHTemperatureRatio(m1n, gamma float64) float64 {
	return RHPressureRatio(m1n, gamma) / RHDensityRatio(m1n, gamma)
}
