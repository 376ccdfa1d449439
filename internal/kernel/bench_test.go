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
// memory is on the clock. It reports ns/pair. The gated harness's
// kernel.exchangepair_ns probe runs the same kernel over 500k-particle
// columns, where the column traffic is part of the cost.
//
//	go test ./internal/kernel -run '^$' -bench ExchangePair
func BenchmarkExchangePair(b *testing.B) {
	b.Run("float64", benchExchangePair[float64])
	b.Run("float32", benchExchangePair[float32])
}

func benchExchangePair[F Float](b *testing.B) {
	r := rng.NewStream(1988)
	col := func() []F {
		c := make([]F, benchPairs)
		for i := range c {
			c[i] = F(r.Normal())
		}
		return c
	}
	u, v, w, r1, r2 := col(), col(), col(), col(), col()
	perms := make([]rng.Perm5, benchPairs/2)
	signs := make([]uint32, benchPairs/2)
	for k := range perms {
		perms[k], signs[k] = rng.RandomPerm5(&r), r.Uint32()
	}
	b.ResetTimer()
	for range b.N {
		for k := range perms {
			ExchangePair(u, v, w, r1, r2, 2*k, 2*k+1, perms[k], signs[k])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(perms)), "ns/pair")
}
