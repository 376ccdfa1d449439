package kernel

import (
	"dsmc/internal/collide"
	"dsmc/internal/rng"
)

// ExchangePair performs one McDonald–Baganoff collision on the pair
// (ia, ib) of the five velocity columns: permutation + random signs
// about the unchanged pair mean, each component one inlined
// collide.Exchange. The ten values are loaded once, widened to float64,
// and every result is rounded once as it is stored, so the exchange runs
// in float64 registers with no State5 and no call: building two State5
// literals and calling collide.Collide on them spent more time in stores,
// block copies and the call than in the arithmetic. The float64
// instantiation is bit-identical to collide.Collide on the gathered
// states.
//
//dsmc:hotpath
func ExchangePair[F Float](u, v, w, r1, r2 []F, ia, ib int, perm rng.Perm5, signs uint32) {
	a0, a1, a2, a3, a4 := float64(u[ia]), float64(v[ia]), float64(w[ia]), float64(r1[ia]), float64(r2[ia])
	b0, b1, b2, b3, b4 := float64(u[ib]), float64(v[ib]), float64(w[ib]), float64(r1[ib]), float64(r2[ib])
	rel := collide.State5{a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4}
	x, y := collide.Exchange(a0, b0, rel[perm[0]], signs)
	u[ia], u[ib] = F(x), F(y)
	x, y = collide.Exchange(a1, b1, rel[perm[1]], signs>>1)
	v[ia], v[ib] = F(x), F(y)
	x, y = collide.Exchange(a2, b2, rel[perm[2]], signs>>2)
	w[ia], w[ib] = F(x), F(y)
	x, y = collide.Exchange(a3, b3, rel[perm[3]], signs>>3)
	r1[ia], r1[ib] = F(x), F(y)
	x, y = collide.Exchange(a4, b4, rel[perm[4]], signs>>4)
	r2[ia], r2[ib] = F(x), F(y)
}
