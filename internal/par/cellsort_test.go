package par

import (
	"testing"

	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// fillStore populates n particles with distinct deterministic payloads
// (in every column the store carries) and pseudo-random cell assignments
// over [0, cells).
func fillStore(st *particle.Store[float64], n, cells int, seed uint64) {
	st.SetLen(n)
	r := rng.NewStream(seed)
	for i := 0; i < n; i++ {
		st.X[i] = float64(i) + 0.25
		st.Y[i] = float64(i) + 0.5
		if st.Z != nil {
			st.Z[i] = float64(i) + 0.75
		}
		st.U[i] = r.Float64()
		st.V[i] = r.Float64()
		st.W[i] = r.Float64()
		st.R1[i] = r.Float64()
		st.R2[i] = r.Float64()
		if st.Evib != nil {
			st.Evib[i] = float64(i % 17)
		}
		st.Cell[i] = int32(r.Intn(cells))
	}
}

// storesEqual reports whether the first n records of the two stores are
// bit-identical in every column.
func storesEqual(a, b *particle.Store[float64], n int) bool {
	cols := [][2][]float64{
		{a.X, b.X}, {a.Y, b.Y}, {a.U, b.U}, {a.V, b.V}, {a.W, b.W},
		{a.R1, b.R1}, {a.R2, b.R2},
	}
	if (a.Z != nil) != (b.Z != nil) || (a.Evib != nil) != (b.Evib != nil) {
		return false
	}
	if a.Z != nil {
		cols = append(cols, [2][]float64{a.Z, b.Z})
	}
	if a.Evib != nil {
		cols = append(cols, [2][]float64{a.Evib, b.Evib})
	}
	for _, c := range cols {
		for i := 0; i < n; i++ {
			if c[0][i] != c[1][i] {
				return false
			}
		}
	}
	for i := 0; i < n; i++ {
		if a.Cell[i] != b.Cell[i] {
			return false
		}
	}
	return true
}

// stableOracle computes the serial stable counting sort the scatter must
// reproduce: cell-major, ascending pre-sort index within each cell.
func stableOracle(src *particle.Store[float64], n, cells int) *particle.Store[float64] {
	counts := make([]int32, cells+1)
	for i := 0; i < n; i++ {
		counts[src.Cell[i]+1]++
	}
	for c := 0; c < cells; c++ {
		counts[c+1] += counts[c]
	}
	dst := particle.NewStore[float64](src.Cap())
	if src.Z != nil {
		dst = particle.NewStore3[float64](src.Cap())
	}
	if src.Evib != nil {
		dst.AddEvib()
	}
	dst.SetLen(n)
	for i := 0; i < n; i++ {
		c := src.Cell[i]
		d := counts[c]
		counts[c] = d + 1
		dst.X[d], dst.Y[d] = src.X[i], src.Y[i]
		if src.Z != nil {
			dst.Z[d] = src.Z[i]
		}
		dst.U[d], dst.V[d], dst.W[d] = src.U[i], src.V[i], src.W[i]
		dst.R1[d], dst.R2[d] = src.R1[i], src.R2[i]
		if src.Evib != nil {
			dst.Evib[d] = src.Evib[i]
		}
		dst.Cell[d] = c
	}
	return dst
}

// TestScatterMatchesStableOracle: the sharded scatter reproduces the
// serial stable counting sort exactly for every worker count, on both
// the serial and the concurrent dispatch path (n either side of
// serialCutoff), with empty worker blocks (n = 0, n < workers), a single
// cell, a 3D store (the Z column) and, for every shape, stores with and
// without the Evib column; and Plan reads the cell column directly (nil
// cellOf) or fills it from cellOf to the same effect.
func TestScatterMatchesStableOracle(t *testing.T) {
	var pools []*Pool
	for _, workers := range []int{1, 3, 4, 8} {
		pools = append(pools, New(workers))
	}
	shapes := []struct {
		name     string
		n, cells int
		threeD   bool
	}{
		{"empty", 0, 300, false},
		{"fewer than workers", 2, 300, false},
		{"below cutoff", serialCutoff - 1, 300, false},
		{"at cutoff", serialCutoff, 300, false},
		{"above cutoff", 5000, 300, false},
		{"one cell", 5000, 1, false},
		{"3D", 5000, 300, true},
	}
	for k := 0; k < 2*len(shapes); k++ {
		sh, vib := shapes[k/2], k%2 == 1
		newStore := func(capacity int) *particle.Store[float64] {
			st := particle.NewStore[float64](capacity)
			if sh.threeD {
				st = particle.NewStore3[float64](capacity)
			}
			if vib {
				st.AddEvib()
			}
			return st
		}
		src := newStore(sh.n + 100)
		fillStore(src, sh.n, sh.cells, 42)
		want := stableOracle(src, sh.n, sh.cells)
		cells := append([]int32(nil), src.Cell[:sh.n]...)
		for _, pool := range pools {
			cs := NewCellSort[float64](pool, sh.cells, 0, 0)
			for _, cellOf := range []func(i int) int32{nil, func(i int) int32 { return cells[i] }} {
				cs.Plan(sh.n, src.Cell, cellOf)
				dst := newStore(src.Cap())
				cs.ScatterStore(src, dst)
				if dst.Len() != sh.n {
					t.Errorf("%s, vib=%v, workers=%d: scattered store holds %d records, want %d", sh.name, vib, pool.Workers(), dst.Len(), sh.n)
				}
				if !storesEqual(want, dst, sh.n) {
					t.Errorf("%s, vib=%v, workers=%d, cellOf=%v: ScatterStore diverges from the stable oracle", sh.name, vib, pool.Workers(), cellOf != nil)
				}
			}
		}
	}
}
