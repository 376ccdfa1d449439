package kernel

import (
	"math"
	"testing"

	"dsmc/internal/collide"
	"dsmc/internal/rng"
)

// testAdvance checks the blocked move pass against the scalar loop for
// both precisions and for lengths around the block width (0, partial
// block, exact blocks, blocks + tail).
func testAdvance[F Float](t *testing.T) {
	t.Helper()
	for _, n := range []int{0, 1, 7, 8, 9, 16, 37} {
		r := rng.NewStream(uint64(n) + 3)
		mk := func() []F {
			s := make([]F, n)
			for i := range s {
				s[i] = F(r.Gaussian(0, 1))
			}
			return s
		}
		x, y := mk(), mk()
		u, v := mk(), mk()
		wantX, wantY := make([]F, n), make([]F, n)
		for i := 0; i < n; i++ {
			wantX[i] = x[i] + u[i]
			wantY[i] = y[i] + v[i]
		}
		Advance2(x, y, u, v)
		for i := 0; i < n; i++ {
			if x[i] != wantX[i] || y[i] != wantY[i] {
				t.Fatalf("n=%d: Advance2 diverged at %d", n, i)
			}
		}
	}
}

func TestAdvance64(t *testing.T) { testAdvance[float64](t) }
func TestAdvance32(t *testing.T) { testAdvance[float32](t) }

// TestPairRelSpeeds64BitExact: the float64 instantiation must match the
// scalar sqrt(du²+dv²+dw²) of the reference select loop bit for bit.
func TestPairRelSpeeds64BitExact(t *testing.T) {
	r := rng.NewStream(11)
	n := 2 * 13
	u, v, w := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		u[i], v[i], w[i] = r.Gaussian(0, 1), r.Gaussian(0, 1), r.Gaussian(0, 1)
	}
	g := make([]float64, 13)
	PairRelSpeeds(u, v, w, 0, 13, g)
	for k := 0; k < 13; k++ {
		a := 2 * k
		du := u[a] - u[a+1]
		dv := v[a] - v[a+1]
		dw := w[a] - w[a+1]
		want := math.Sqrt(du*du + dv*dv + dw*dw)
		if math.Float64bits(g[k]) != math.Float64bits(want) {
			t.Fatalf("pair %d: %v != %v", k, g[k], want)
		}
	}
	// An offset sub-span must match the same pairs shifted.
	g2 := make([]float64, 5)
	PairRelSpeeds(u, v, w, 4, 5, g2)
	for k := 0; k < 5; k++ {
		if math.Float64bits(g2[k]) != math.Float64bits(g[k+2]) {
			t.Fatalf("offset pair %d diverged", k)
		}
	}
}

// TestPairRelSpeeds32 checks the float32 instantiation against a float64
// recomputation within single-precision tolerance.
func TestPairRelSpeeds32(t *testing.T) {
	r := rng.NewStream(29)
	n := 2 * Width
	u, v, w := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = float32(r.Gaussian(0, 1))
		v[i] = float32(r.Gaussian(0, 1))
		w[i] = float32(r.Gaussian(0, 1))
	}
	g := make([]float64, Width)
	PairRelSpeeds(u, v, w, 0, Width, g)
	for k := 0; k < Width; k++ {
		a := 2 * k
		du := float64(u[a]) - float64(u[a+1])
		dv := float64(v[a]) - float64(v[a+1])
		dw := float64(w[a]) - float64(w[a+1])
		want := math.Sqrt(du*du + dv*dv + dw*dw)
		if math.Abs(g[k]-want) > 1e-5*(1+want) {
			t.Fatalf("pair %d: %v vs %v", k, g[k], want)
		}
	}
}

// testExchangePair: the exchange must conserve the pair's linear momentum
// and total energy in both precisions (exactly in float64, to rounding in
// float32) and must equal the permutation construction.
func testExchangePair[F Float](t *testing.T, tol float64) {
	t.Helper()
	r := rng.NewStream(7)
	n := 10
	u, v, w := make([]F, n), make([]F, n), make([]F, n)
	r1, r2 := make([]F, n), make([]F, n)
	for i := 0; i < n; i++ {
		u[i], v[i], w[i] = F(r.Gaussian(0, 1)), F(r.Gaussian(0, 1)), F(r.Gaussian(0, 1))
		r1[i], r2[i] = F(r.Gaussian(0, 1)), F(r.Gaussian(0, 1))
	}
	for trial := 0; trial < 50; trial++ {
		ia, ib := 2*(trial%5), 2*(trial%5)+1
		mom0 := [3]float64{
			float64(u[ia]) + float64(u[ib]),
			float64(v[ia]) + float64(v[ib]),
			float64(w[ia]) + float64(w[ib]),
		}
		e0 := 0.0
		for _, c := range [][]F{u, v, w, r1, r2} {
			e0 += float64(c[ia])*float64(c[ia]) + float64(c[ib])*float64(c[ib])
		}
		ExchangePair(u, v, w, r1, r2, ia, ib, rng.RandomPerm5(&r), r.Uint32())
		mom1 := [3]float64{
			float64(u[ia]) + float64(u[ib]),
			float64(v[ia]) + float64(v[ib]),
			float64(w[ia]) + float64(w[ib]),
		}
		e1 := 0.0
		for _, c := range [][]F{u, v, w, r1, r2} {
			e1 += float64(c[ia])*float64(c[ia]) + float64(c[ib])*float64(c[ib])
		}
		for k := 0; k < 3; k++ {
			if math.Abs(mom1[k]-mom0[k]) > tol {
				t.Fatalf("trial %d: momentum %d drifted %v", trial, k, mom1[k]-mom0[k])
			}
		}
		if math.Abs(e1-e0) > tol*(1+e0) {
			t.Fatalf("trial %d: energy drifted %v -> %v", trial, e0, e1)
		}
	}
}

func TestExchangePair64(t *testing.T) { testExchangePair[float64](t, 1e-12) }
func TestExchangePair32(t *testing.T) { testExchangePair[float32](t, 1e-5) }

// hardComponent draws a velocity component that is, in turn, a signed
// zero, a subnormal, a magnitude near the top of the range (1e300 in
// float64, 1e37 in float32) or a standard normal, at precision F.
func hardComponent[F Float](r *rng.Stream) F {
	neg := r.Bit() == 1
	var x F
	switch r.Intn(6) {
	case 0:
	case 1:
		if _, wide := any(x).(float64); wide {
			x = F(math.Float64frombits(r.Uint64()&(1<<52-1) | 1))
		} else {
			x = F(math.Float32frombits(r.Uint32()&(1<<23-1) | 1))
		}
	case 2:
		if _, wide := any(x).(float64); wide {
			x = F((1 + r.Float64()) * 1e300)
		} else {
			x = F((1 + r.Float64()) * 1e37)
		}
	default:
		return F(r.Normal())
	}
	if neg {
		x = -x
	}
	return x
}

// testExchangePairBits: over all 120 permutations × 32 sign masks on
// pairs of hardComponent values, ExchangePair equals collide.Collide on
// the pair widened to float64, each result rounded once to F — bit for
// bit, so the float64 instantiation is the reference exchange itself
// (collide's TestCollideMatchesLoopReference fences Collide against the
// loop it replaced).
func testExchangePairBits[F Float](t *testing.T) {
	r := rng.NewStream(34)
	cols := [5][]F{make([]F, 2), make([]F, 2), make([]F, 2), make([]F, 2), make([]F, 2)}
	for _, perm := range rng.Perm5Table() {
		for signs := uint32(0); signs < 32; signs++ {
			for trial := 0; trial < 8; trial++ {
				var a, b collide.State5
				for k := range cols {
					cols[k][0], cols[k][1] = hardComponent[F](&r), hardComponent[F](&r)
					a[k], b[k] = float64(cols[k][0]), float64(cols[k][1])
				}
				mask := signs | r.Uint32()<<5
				collide.Collide(&a, &b, perm, mask)
				ExchangePair(cols[0], cols[1], cols[2], cols[3], cols[4], 0, 1, perm, mask)
				for k := range cols {
					if got, want := float64(cols[k][0]), float64(F(a[k])); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("perm %v signs %#x: column %d of a = %v, reference %v", perm, mask, k, got, want)
					}
					if got, want := float64(cols[k][1]), float64(F(b[k])); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("perm %v signs %#x: column %d of b = %v, reference %v", perm, mask, k, got, want)
					}
				}
			}
		}
	}
}

func TestExchangePair64MatchesCollide(t *testing.T) { testExchangePairBits[float64](t) }
func TestExchangePair32RoundsOnce(t *testing.T)     { testExchangePairBits[float32](t) }

// TestExchangePicksDrawsPerCell: with no draws given, ExchangePicks draws
// each pick's permutation and signs from its cell's stream, afresh where
// the cell changes and in pick order within it, and each collision is
// collide.Collide on the pair, bit for bit (float64).
func TestExchangePicksDrawsPerCell(t *testing.T) {
	r := rng.NewStream(56)
	const n = 64
	var cols [5][]float64
	for k := range cols {
		cols[k] = make([]float64, n)
		for i := range cols[k] {
			cols[k][i] = hardComponent[float64](&r)
		}
	}
	var want [5][]float64
	for k := range want {
		want[k] = append([]float64(nil), cols[k]...)
	}
	// Runs of picks per cell, rising cell numbers with gaps, some pairs
	// not picked.
	var picks []Pick
	c := int32(3)
	for a := int32(0); a+1 < n; a += 2 {
		if r.Intn(3) == 0 {
			c += 1 + int32(r.Intn(4))
		}
		if r.Intn(4) != 0 {
			picks = append(picks, Pick{A: a, C: c})
		}
	}
	key := rng.KeyAt(56, 2)
	var s rng.Stream
	cur := int32(-1)
	for _, pk := range picks {
		if pk.C != cur {
			cur, s = pk.C, key.At(uint64(pk.C))
		}
		var x, y collide.State5
		for k := range want {
			x[k], y[k] = want[k][pk.A], want[k][pk.A+1]
		}
		perm := rng.RandomPerm5(&s)
		collide.Collide(&x, &y, perm, s.Uint32())
		for k := range want {
			want[k][pk.A], want[k][pk.A+1] = x[k], y[k]
		}
	}
	ExchangePicks(cols[0], cols[1], cols[2], cols[3], cols[4], picks, key, nil)
	for k := range cols {
		for i := range cols[k] {
			if math.Float64bits(cols[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("column %d particle %d = %v, reference %v", k, i, cols[k][i], want[k][i])
			}
		}
	}
}
