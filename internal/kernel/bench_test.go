package kernel

import (
	"testing"

	"dsmc/internal/rng"
)

// benchPairs is the particle count of BenchmarkExchangePair's columns:
// five columns of 4,096 particles are 160 KiB at float64 and 80 KiB at
// float32, resident in the core's private caches after the first pass.
const benchPairs = 4096

// BenchmarkExchangePair times the in-cache cost of the collision
// exchange, every pair of the columns colliding once per iteration with
// a pre-drawn permutation and sign mask, so neither the stream nor main
// memory is on the clock. It reports ns/pair: "pair" calls ExchangePair
// once per pair, as the gated harness's kernel.exchangepair_ns probe does
// over 500k-particle columns; "picks" is one ExchangePicks over all the
// pairs, the engine's loop without its draws.
//
//	go test ./internal/kernel -run '^$' -bench ExchangePair
func BenchmarkExchangePair(b *testing.B) {
	b.Run("pair/float64", benchExchangePair[float64](false))
	b.Run("pair/float32", benchExchangePair[float32](false))
	b.Run("picks/float64", benchExchangePair[float64](true))
	b.Run("picks/float32", benchExchangePair[float32](true))
}

func benchExchangePair[F Float](batch bool) func(b *testing.B) {
	return func(b *testing.B) {
		r := rng.NewStream(1988)
		col := func() []F {
			c := make([]F, benchPairs)
			for i := range c {
				c[i] = F(r.Normal())
			}
			return c
		}
		u, v, w, r1, r2 := col(), col(), col(), col(), col()
		picks := make([]Pick, benchPairs/2)
		draws := make([]Draw, benchPairs/2)
		for k := range picks {
			picks[k] = Pick{A: int32(2 * k)}
			draws[k] = Draw{Perm: rng.RandomPerm5(&r), Signs: r.Uint32()}
		}
		b.ResetTimer()
		for range b.N {
			if batch {
				ExchangePicks(u, v, w, r1, r2, picks, 0, draws)
				continue
			}
			for k, d := range draws {
				ExchangePair(u, v, w, r1, r2, 2*k, 2*k+1, d.Perm, d.Signs)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(picks)), "ns/pair")
	}
}
