package fixed

import (
	"math"
	"testing"

	"dsmc/internal/rng"
)

// truncTowardZero halves with truncation toward zero — the raw bit-serial
// divide-by-two on sign-magnitude values, whose consistent truncation the
// paper identifies as the cause of "a significant loss in total energy in
// stagnation regions of the flow".
func truncTowardZero(x Fix) Fix {
	if x < 0 {
		return -(-x >> 1)
	}
	return x >> 1
}

// halfStochasticZero is the same halving with the paper's correction:
// 0 or 1 LSB added with uniform probability toward the discarded bit.
func halfStochasticZero(x Fix, bit uint32) Fix {
	if x < 0 {
		return -HalfStochastic(-x, bit)
	}
	return HalfStochastic(x, bit)
}

// collideFixed runs the 5-component permutation collision on a pair with
// the supplied halving function, the same construction as the paper's
// collision algorithm: rel and mean per component, halve the relative
// components, rebuild a = mean + h, b = mean − h.
func collideFixed(a, b *[5]Fix, half func(Fix) Fix, r *rng.Stream) {
	var rel, mean [5]Fix
	for k := 0; k < 5; k++ {
		rel[k] = Sub(a[k], b[k])
		mean[k] = half(Add(a[k], b[k]))
	}
	perm := rng.RandomPerm5(r)
	signs := r.Uint32()
	var newRel [5]Fix
	for k, src := range perm {
		v := rel[src]
		if signs>>uint(k)&1 == 1 {
			v = Neg(v)
		}
		newRel[k] = v
	}
	for k := 0; k < 5; k++ {
		h := half(newRel[k])
		a[k] = Add(mean[k], h)
		b[k] = Sub(mean[k], h)
	}
}

func ensembleEnergy(parts [][5]Fix) float64 {
	var e float64
	for i := range parts {
		for k := 0; k < 5; k++ {
			v := parts[i][k].Float()
			e += v * v
		}
	}
	return e
}

// TestAblationTruncationDrainsEnergy reproduces the failure mode and the
// fix described in the paper's implementation section: with consistent
// truncation after the division by 2, repeated collisions steadily drain
// kinetic energy; adding 0 or 1 with uniform probability "in a
// statistical sense achieves the correct rounding" and the drain
// disappears.
func TestAblationTruncationDrainsEnergy(t *testing.T) {
	const n = 2000
	const steps = 400

	run := func(half func(Fix, *rng.Stream) Fix, seed uint64) (lossFrac float64) {
		r := rng.NewStream(seed)
		parts := make([][5]Fix, n)
		for i := range parts {
			for k := 0; k < 5; k++ {
				// Small thermal velocities, as in a stagnation region.
				parts[i][k] = FromFloat(r.Gaussian(0, 0.01))
			}
		}
		e0 := ensembleEnergy(parts)
		h := func(x Fix) Fix { return half(x, &r) }
		for s := 0; s < steps; s++ {
			// Random pairing each step, every pair collides.
			for i := 0; i+1 < n; i += 2 {
				j := i + 1 + r.Intn(n-i-1)
				parts[i+1], parts[j] = parts[j], parts[i+1]
				collideFixed(&parts[i], &parts[i+1], h, &r)
			}
		}
		return (e0 - ensembleEnergy(parts)) / e0
	}

	truncLoss := run(func(x Fix, r *rng.Stream) Fix { return truncTowardZero(x) }, 1)
	stochLoss := run(func(x Fix, r *rng.Stream) Fix { return halfStochasticZero(x, r.Bit()) }, 1)

	if truncLoss < 0.002 {
		t.Errorf("consistent truncation should visibly drain energy, lost only %.4f%%", 100*truncLoss)
	}
	if math.Abs(stochLoss) > truncLoss/5 {
		t.Errorf("stochastic rounding should cure the drain: trunc %.4f%%, stochastic %.4f%%",
			100*truncLoss, 100*stochLoss)
	}
}

// TestAblationDrainScalesWithCollisions: the drain is per-collision, so
// doubling the number of steps roughly doubles the loss — the reason it
// matters most in stagnation regions, where the collision rate peaks.
func TestAblationDrainScalesWithCollisions(t *testing.T) {
	run := func(steps int) float64 {
		const n = 1000
		r := rng.NewStream(3)
		parts := make([][5]Fix, n)
		for i := range parts {
			for k := 0; k < 5; k++ {
				parts[i][k] = FromFloat(r.Gaussian(0, 0.01))
			}
		}
		e0 := ensembleEnergy(parts)
		for s := 0; s < steps; s++ {
			for i := 0; i+1 < n; i += 2 {
				j := i + 1 + r.Intn(n-i-1)
				parts[i+1], parts[j] = parts[j], parts[i+1]
				collideFixed(&parts[i], &parts[i+1], truncTowardZero, &r)
			}
		}
		return (e0 - ensembleEnergy(parts)) / e0
	}
	l1 := run(150)
	l2 := run(300)
	if l2 < 1.5*l1 {
		t.Errorf("drain should accumulate with collisions: %.4f%% at 150 steps, %.4f%% at 300",
			100*l1, 100*l2)
	}
}
