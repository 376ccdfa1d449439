package kernel

import (
	"dsmc/internal/collide"
	"dsmc/internal/rng"
)

// Pick is an accepted candidate pair: the adjacent particles A and A+1 of
// the cell-major columns, in cell C.
type Pick struct{ A, C int32 }

// Draw is one collision's draws: the permutation (rng.RandomPerm5) and
// the sign bits, of which the low five are read.
type Draw struct {
	Perm  rng.Perm5
	Signs uint32
}

// ExchangePicks performs one McDonald–Baganoff collision on each pick's
// pair, in order: permutation + random signs about the unchanged pair
// mean, each component one inlined collide.Exchange. It is the one
// definition of the five-component exchange. With draws nil, pick i
// draws its permutation and then its signs from its cell's stream
// key.At(C), begun afresh whenever C changes (the split style's collide
// pass); otherwise its draws are draws[i] and key is not read. The
// columns must have one length.
//
// The loop makes no call: a helper holding the five components cannot
// inline (it costs about 280 in the inliner's units against a budget of
// 80), and a call per collision passes 19 words of arguments and spills
// the caller's loop state. Nor are a batch's draws made ahead of its
// exchanges in the split style: that serializes the stream's dependency
// chain with the exchange's loads instead of overlapping them
// (BENCH_PR56.md §5). The columns are resliced to u's length once, so
// u[A+1] and u[A] are a pick's only column bounds checks; the ten values
// are loaded once, widened to float64, and every result is rounded once
// as it is stored. The float64 instantiation is bit-identical to
// collide.Collide on the gathered states.
//
//dsmc:hotpath
func ExchangePicks[F Float](u, v, w, r1, r2 []F, picks []Pick, key rng.Key, draws []Draw) {
	n := len(u)
	v, w, r1, r2 = v[:n], w[:n], r1[:n], r2[:n] // one length: u's checks cover every column
	var r rng.Stream
	cur := int32(-1)
	for i, pk := range picks {
		var perm rng.Perm5
		var signs uint32
		if draws == nil {
			if pk.C != cur {
				cur = pk.C
				r = key.At(uint64(cur))
			}
			perm = rng.RandomPerm5(&r)
			signs = r.Uint32()
		} else {
			perm, signs = draws[i].Perm, draws[i].Signs
		}
		a := uint(uint32(pk.A))
		b := a + 1
		b0, b1, b2, b3, b4 := float64(u[b]), float64(v[b]), float64(w[b]), float64(r1[b]), float64(r2[b])
		a0, a1, a2, a3, a4 := float64(u[a]), float64(v[a]), float64(w[a]), float64(r1[a]), float64(r2[a])
		rel := collide.State5{a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4}
		x, y := collide.Exchange(a0, b0, rel[perm[0]], signs)
		u[a], u[b] = F(x), F(y)
		x, y = collide.Exchange(a1, b1, rel[perm[1]], signs>>1)
		v[a], v[b] = F(x), F(y)
		x, y = collide.Exchange(a2, b2, rel[perm[2]], signs>>2)
		w[a], w[b] = F(x), F(y)
		x, y = collide.Exchange(a3, b3, rel[perm[3]], signs>>3)
		r1[a], r1[b] = F(x), F(y)
		x, y = collide.Exchange(a4, b4, rel[perm[4]], signs>>4)
		r2[a], r2[b] = F(x), F(y)
	}
}

// ExchangePair collides the one adjacent pair (ia, ib = ia+1) with the
// given permutation and signs: ExchangePicks over one pick and its draw.
// The engine collides through ExchangePicks; this single-pair form is
// what the benchmark's kernel probe and the exchange tests call.
func ExchangePair[F Float](u, v, w, r1, r2 []F, ia, ib int, perm rng.Perm5, signs uint32) {
	if ib != ia+1 {
		panic("kernel: ExchangePair needs adjacent particles (ib = ia+1)")
	}
	ExchangePicks(u, v, w, r1, r2, []Pick{{A: int32(ia)}}, 0, []Draw{{Perm: perm, Signs: signs}})
}
