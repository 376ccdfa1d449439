package particle

import (
	"fmt"

	"dsmc/internal/collide"
	"dsmc/internal/rng"
)

// Reservoir holds the particles removed through the downstream boundary.
// Incoming particles are given velocities from a rectangular distribution
// with the freestream variance (in the drift-free thermal frame); the
// reservoir then lets them collide amongst themselves so that after a few
// steps they relax to the correct Gaussian distribution — useful work for
// processors that would otherwise idle, as the paper emphasises. Withdrawn
// particles receive the freestream drift at the injection site.
type Reservoir struct {
	vels  []collide.State5
	sigma float64
}

// NewReservoir creates a reservoir for a gas with the given freestream
// velocity-component standard deviation.
func NewReservoir(capacity int, sigma float64) *Reservoir {
	return &Reservoir{
		vels:  make([]collide.State5, 0, capacity),
		sigma: sigma,
	}
}

// Len returns the number of particles banked in the reservoir.
func (rv *Reservoir) Len() int { return len(rv.vels) }

// Deposit banks a particle, replacing its velocity with a rectangular
// (uniform) sample of the freestream variance in the thermal frame.
func (rv *Reservoir) Deposit(r *rng.Stream) {
	rv.vels = append(rv.vels, collide.State5{
		r.Rect(rv.sigma), r.Rect(rv.sigma), r.Rect(rv.sigma),
		r.Rect(rv.sigma), r.Rect(rv.sigma),
	})
}

// DepositN banks n particles.
func (rv *Reservoir) DepositN(n int, r *rng.Stream) {
	for i := 0; i < n; i++ {
		rv.Deposit(r)
	}
}

// Withdraw removes one particle, returning its thermal-frame velocity.
// The caller adds the freestream drift. Returns false when empty.
func (rv *Reservoir) Withdraw() (collide.State5, bool) {
	if len(rv.vels) == 0 {
		return collide.State5{}, false
	}
	v := rv.vels[len(rv.vels)-1]
	rv.vels = rv.vels[:len(rv.vels)-1]
	return v, true
}

// Snapshot returns the banked thermal-frame velocities for a checkpoint.
// The returned slice aliases the reservoir's storage: treat it as
// read-only and do not hold it across Deposit/Withdraw/Relax.
func (rv *Reservoir) Snapshot() []collide.State5 { return rv.vels }

// Restore replaces the reservoir contents with a checkpointed snapshot.
// It fails if the snapshot exceeds the reservoir's capacity (capacity is
// configuration-derived, so a checkpoint taken under the same
// configuration always fits).
func (rv *Reservoir) Restore(vels []collide.State5) error {
	if len(vels) > cap(rv.vels) {
		return fmt.Errorf("particle: reservoir snapshot of %d exceeds capacity %d", len(vels), cap(rv.vels))
	}
	rv.vels = rv.vels[:len(vels)]
	copy(rv.vels, vels)
	return nil
}

// Relax performs one reservoir time step: the banked particles are
// shuffled and collided pairwise with the McDonald–Baganoff algorithm
// (every candidate collides — the reservoir is a dense equilibrium bath).
func (rv *Reservoir) Relax(r *rng.Stream) {
	n := len(rv.vels)
	// Fisher–Yates to randomise the pairing each step.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		rv.vels[i], rv.vels[j] = rv.vels[j], rv.vels[i]
	}
	for i := 0; i+1 < n; i += 2 {
		perm := rng.RandomPerm5(r)
		collide.Collide(&rv.vels[i], &rv.vels[i+1], perm, r.Uint32())
	}
}

// Moments returns the mean and variance of all velocity components pooled,
// plus the pooled kurtosis — the diagnostic for rectangular→Gaussian
// relaxation (kurtosis 1.8 → 3.0).
func (rv *Reservoir) Moments() (mean, variance, kurtosis float64) {
	n := float64(len(rv.vels) * 5)
	if n == 0 {
		return 0, 0, 0
	}
	var s1, s2, s4 float64
	for i := range rv.vels {
		for k := 0; k < 5; k++ {
			x := rv.vels[i][k]
			s1 += x
			s2 += x * x
			s4 += x * x * x * x
		}
	}
	mean = s1 / n
	variance = s2/n - mean*mean
	if variance > 0 {
		kurtosis = (s4 / n) / (variance * variance)
	}
	return mean, variance, kurtosis
}
