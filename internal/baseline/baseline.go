// Package baseline implements the collision-partner selection schemes the
// paper discusses and compares against:
//
//   - the McDonald–Baganoff pair-probability scheme (the paper's method,
//     parallelizable at the particle level, conserving energy and momentum
//     in every collision);
//   - Bird's time-counter method (cell-level, per-cell asynchronous time);
//   - Nanbu's scheme (O(N²), unconditional collision probability per
//     particle, conserving energy and momentum only in the mean);
//   - Ploss's O(N) reformulation of Nanbu's scheme.
//
// All schemes operate on one cell's worth of particle velocity states and
// report how many collision events they performed, so relaxation
// behaviour and computational scaling can be compared directly.
//
//dsmclint:layer baseline
//dsmclint:scope rng-discipline
package baseline

import (
	"math"

	"dsmc/internal/collide"
	"dsmc/internal/rng"
)

// Scheme selects and performs collisions within one cell for one step.
type Scheme interface {
	Name() string
	// CollideCell updates parts in place; vol is the (fractional) cell
	// volume and rule the selection rule. Returns the number of collision
	// events performed.
	CollideCell(parts []collide.State5, vol float64, rule collide.Rule, r *rng.Stream) int
}

// BM is the McDonald–Baganoff scheme: the particles (already in random
// order within the cell) are paired even/odd, a collision probability is
// computed per candidate pair from the selection rule, and accepted pairs
// collide via the 5-component permutation algorithm.
type BM struct{}

// NewBM returns the paper's scheme.
func NewBM() *BM { return &BM{} }

// Name implements Scheme.
func (b *BM) Name() string { return "mcdonald-baganoff" }

// CollideCell implements Scheme.
func (b *BM) CollideCell(parts []collide.State5, vol float64, rule collide.Rule, r *rng.Stream) int {
	count := len(parts)
	collisions := 0
	for i := 0; i+1 < count; i += 2 {
		g := collide.TransRelSpeed(&parts[i], &parts[i+1])
		p := rule.Prob(count, vol, g)
		//dsmclint:allow float-eq exact saturation sentinel: Prob clamps to 1, and == skips the draw without shifting the stream
		if p == 1 || r.Float64() < p {
			perm := rng.RandomPerm5(r)
			collide.Collide(&parts[i], &parts[i+1], perm, r.Uint32())
			collisions++
		}
	}
	return collisions
}

// BirdTC is Bird's time-counter method: pairs of molecules within the
// cell are randomly chosen and collided until the asynchronous cell time
// exceeds the global simulation time (one step here). As the paper notes,
// it parallelizes only at the cell level and is strongly influenced by
// statistical fluctuations in the cell population.
type BirdTC struct{}

// NewBirdTC returns Bird's scheme.
func NewBirdTC() *BirdTC { return &BirdTC{} }

// Name implements Scheme.
func (b *BirdTC) Name() string { return "bird-time-counter" }

// CollideCell implements Scheme.
func (b *BirdTC) CollideCell(parts []collide.State5, vol float64, rule collide.Rule, r *rng.Stream) int {
	n := len(parts)
	if n < 2 || vol <= 0 {
		return 0
	}
	collisions := 0
	var cellTime float64
	// Pair collision rate in rule units: a pair with relative speed g
	// collides at rate (P∞/(N∞·V))·(g/g∞)^GExp per step; after each
	// collision the cell time advances by 2/(N·n·σ·c̄) — here expressed
	// through the same normalisation so that the expected number of
	// collisions matches (N/2)·P.
	for cellTime < 1 {
		i := r.Intn(n)
		j := r.Intn(n)
		for j == i {
			j = r.Intn(n)
		}
		g := collide.TransRelSpeed(&parts[i], &parts[j])
		var rate float64
		if rule.CollideAll {
			rate = 1 // near-continuum: advance one collision per pair slot
		} else {
			rate = rule.PInf / (rule.NInf * vol) * rule.Model.GFactor(g/rule.GInf)
		}
		if rate <= 0 {
			// No collisions possible at this state; the counter cannot
			// advance — skip the cell this step.
			break
		}
		// Time per collision: 2/(N² · pair rate), the time-counter rule.
		dt := 2 / (float64(n) * float64(n) * rate)
		if cellTime+dt > 1 && collisions > 0 && r.Float64() > (1-cellTime)/dt {
			break
		}
		perm := rng.RandomPerm5(r)
		collide.Collide(&parts[i], &parts[j], perm, r.Uint32())
		collisions++
		cellTime += dt
	}
	return collisions
}

// Nanbu is Nanbu's scheme as the paper characterises it: a collision
// probability applied unconditionally per particle, with a conditional
// partner selection; only the deciding particle's velocity is updated, so
// energy and momentum are conserved only in the mean. The partner scan
// makes it O(N²) per cell.
type Nanbu struct{}

// Name implements Scheme.
func (Nanbu) Name() string { return "nanbu" }

// CollideCell implements Scheme.
func (Nanbu) CollideCell(parts []collide.State5, vol float64, rule collide.Rule, r *rng.Stream) int {
	n := len(parts)
	if n < 2 || vol <= 0 {
		return 0
	}
	updated := 0
	pij := make([]float64, n)
	for i := 0; i < n; i++ {
		// O(N) scan per particle: cumulative pair probabilities.
		var pi float64
		for j := 0; j < n; j++ {
			if j == i {
				pij[j] = 0
				continue
			}
			g := collide.TransRelSpeed(&parts[i], &parts[j])
			var p float64
			if rule.CollideAll {
				p = 1 / float64(n-1)
			} else {
				p = rule.PInf / (rule.NInf * vol) * rule.Model.GFactor(g/rule.GInf)
			}
			pij[j] = p
			pi += p
		}
		if pi > 1 {
			pi = 1
		}
		if r.Float64() >= pi {
			continue
		}
		// Conditional partner selection with probability p_ij / P_i.
		target := r.Float64() * sum(pij)
		j, acc := 0, 0.0
		for ; j < n-1; j++ {
			acc += pij[j]
			if acc >= target {
				break
			}
		}
		// Nanbu update: only particle i moves to the post-collision state.
		mean := collide.State5{}
		for k := 0; k < 5; k++ {
			mean[k] = (parts[i][k] + parts[j][k]) / 2
		}
		grel := collide.TransRelSpeed(&parts[i], &parts[j])
		dir := unit3(r)
		parts[i][0] = mean[0] + grel*dir[0]/2
		parts[i][1] = mean[1] + grel*dir[1]/2
		parts[i][2] = mean[2] + grel*dir[2]/2
		// Rotational components exchange toward the pair mean likewise.
		gr := math.Hypot(parts[i][3]-parts[j][3], parts[i][4]-parts[j][4])
		phi := 2 * math.Pi * r.Float64()
		parts[i][3] = mean[3] + gr*math.Cos(phi)/2
		parts[i][4] = mean[4] + gr*math.Sin(phi)/2
		updated++
	}
	return updated
}

// Ploss is the O(N) reformulation of Nanbu's scheme (Ploss 1987): the
// expected number of updates is computed once for the cell and that many
// particles are processed against randomly chosen partners, removing the
// per-particle partner scan. Like Nanbu's scheme it conserves the cell's
// energy and momentum only in the mean.
type Ploss struct{}

// Name implements Scheme.
func (Ploss) Name() string { return "ploss" }

// CollideCell implements Scheme.
func (Ploss) CollideCell(parts []collide.State5, vol float64, rule collide.Rule, r *rng.Stream) int {
	n := len(parts)
	if n < 2 || vol <= 0 {
		return 0
	}
	var pMean float64
	if rule.CollideAll {
		pMean = 1
	} else {
		// Use the cell density with the freestream mean relative speed as
		// the majorant estimate for the per-particle update probability.
		pMean = rule.PInf * float64(n) / (rule.NInf * vol)
		if pMean > 1 {
			pMean = 1
		}
	}
	expect := pMean * float64(n)
	k := int(expect)
	if r.Float64() < expect-float64(k) {
		k++
	}
	updated := 0
	for e := 0; e < k; e++ {
		i := r.Intn(n)
		j := r.Intn(n)
		for j == i {
			j = r.Intn(n)
		}
		// Acceptance on the relative-speed factor keeps the g-dependence
		// for non-Maxwell models.
		if !rule.CollideAll && rule.Model.GExp != 0 {
			g := collide.TransRelSpeed(&parts[i], &parts[j])
			if r.Float64() >= rule.Model.GFactor(g/rule.GInf) {
				continue
			}
		}
		mean := collide.State5{}
		for c := 0; c < 5; c++ {
			mean[c] = (parts[i][c] + parts[j][c]) / 2
		}
		grel := collide.TransRelSpeed(&parts[i], &parts[j])
		dir := unit3(r)
		parts[i][0] = mean[0] + grel*dir[0]/2
		parts[i][1] = mean[1] + grel*dir[1]/2
		parts[i][2] = mean[2] + grel*dir[2]/2
		gr := math.Hypot(parts[i][3]-parts[j][3], parts[i][4]-parts[j][4])
		phi := 2 * math.Pi * r.Float64()
		parts[i][3] = mean[3] + gr*math.Cos(phi)/2
		parts[i][4] = mean[4] + gr*math.Sin(phi)/2
		updated++
	}
	return updated
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func unit3(r *rng.Stream) [3]float64 {
	z := 2*r.Float64() - 1
	phi := 2 * math.Pi * r.Float64()
	s := math.Sqrt(1 - z*z)
	return [3]float64{s * math.Cos(phi), s * math.Sin(phi), z}
}
