package baseline

import (
	"dsmc/internal/collide"
	"dsmc/internal/rng"
)

// BL is a Borgnakke–Larsen variant of the paper's scheme: candidate
// selection is identical (even/odd pairing, the McDonald–Baganoff
// probability), but accepted pairs exchange translational and rotational
// energy through the Borgnakke–Larsen redistribution with rotational
// collision number ZRot instead of the 5-component permutation. This is
// the molecular-model generalisation pathway the paper's future-work
// section points at.
//
//dsmclint:allow exports the Borgnakke–Larsen scheme the ablation tests relax, with CollideBL beneath it
type BL struct {
	// ZRot is the rotational collision number; 1 exchanges on every
	// collision, larger values relax rotation more slowly.
	ZRot float64
}

// Name implements Scheme.
func (b BL) Name() string { return "borgnakke-larsen" }

// CollideCell implements Scheme.
func (b BL) CollideCell(parts []collide.State5, vol float64, rule collide.Rule, r *rng.Stream) int {
	count := len(parts)
	z := b.ZRot
	if z < 1 {
		z = 1
	}
	collisions := 0
	for i := 0; i+1 < count; i += 2 {
		g := collide.TransRelSpeed(&parts[i], &parts[i+1])
		p := rule.Prob(count, vol, g)
		//dsmclint:allow float-eq exact saturation sentinel: Prob clamps to 1, and == skips the draw without shifting the stream
		if p == 1 || r.Float64() < p {
			collide.CollideBL(&parts[i], &parts[i+1], z, r)
			collisions++
		}
	}
	return collisions
}

// RelaxFixedPairing is the ablation of the paper's re-randomisation: the
// particle order is NOT reshuffled between steps, so the same partners
// collide repeatedly — the correlated-velocity failure mode the paper's
// scaled-and-dithered sort key exists to prevent. Returns the collision
// count; compare the resulting distribution against Relax.
//
//dsmclint:allow exports the ablation of re-randomised pairing the relaxation tests compare against
func RelaxFixedPairing(scheme Scheme, parts []collide.State5, vol float64, rule collide.Rule, steps int, r *rng.Stream) int {
	total := 0
	for s := 0; s < steps; s++ {
		total += scheme.CollideCell(parts, vol, rule, r)
	}
	return total
}
