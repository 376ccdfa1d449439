package par

import (
	"fmt"
	"testing"
	"unsafe"

	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// fillStore populates n particles with distinct deterministic payloads
// (in every column the store carries) and pseudo-random cell assignments
// over [0, cells).
func fillStore[F kernel.Float](st *particle.Store[F], n, cells int, seed uint64) {
	st.SetLen(n)
	r := rng.NewStream(seed)
	for i := 0; i < n; i++ {
		st.X[i] = F(i) + 0.25
		st.Y[i] = F(i) + 0.5
		if st.Z != nil {
			st.Z[i] = F(i) + 0.75
		}
		st.U[i] = F(r.Float64())
		st.V[i] = F(r.Float64())
		st.W[i] = F(r.Float64())
		st.R1[i] = F(r.Float64())
		st.R2[i] = F(r.Float64())
		if st.Evib != nil {
			st.Evib[i] = F(i % 17)
		}
		st.Cell[i] = int32(r.Intn(cells))
	}
}

// storesEqual reports whether the first n records of the two stores are
// bit-identical in every column.
func storesEqual[F kernel.Float](a, b *particle.Store[F], n int) bool {
	cols := [][2][]F{
		{a.X, b.X}, {a.Y, b.Y}, {a.U, b.U}, {a.V, b.V}, {a.W, b.W},
		{a.R1, b.R1}, {a.R2, b.R2},
	}
	if (a.Z != nil) != (b.Z != nil) || (a.Evib != nil) != (b.Evib != nil) {
		return false
	}
	if a.Z != nil {
		cols = append(cols, [2][]F{a.Z, b.Z})
	}
	if a.Evib != nil {
		cols = append(cols, [2][]F{a.Evib, b.Evib})
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
func stableOracle[F kernel.Float](src *particle.Store[F], n, cells int) *particle.Store[F] {
	counts := make([]int32, cells+1)
	for i := 0; i < n; i++ {
		counts[src.Cell[i]+1]++
	}
	for c := 0; c < cells; c++ {
		counts[c+1] += counts[c]
	}
	dst := newStoreLike(src, src.Cap())
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

// newStoreLike returns an empty store of the given capacity with src's
// columns.
func newStoreLike[F kernel.Float](src *particle.Store[F], capacity int) *particle.Store[F] {
	return newShapeStore[F](src.Z != nil, src.Evib != nil, capacity)
}

// shuffledOracle is the cell sort written the way it reads in the paper:
// the stable sort of stableOracle, then a per-cell Fisher–Yates over the
// records themselves, each cell drawing from its own (seed, epoch, cell)
// stream. It shares no code with CellSort.
func shuffledOracle[F kernel.Float](src *particle.Store[F], n, cells int, seed, epoch uint64) *particle.Store[F] {
	dst := stableOracle(src, n, cells)
	swap := func(i, j int) {
		dst.X[i], dst.X[j] = dst.X[j], dst.X[i]
		dst.Y[i], dst.Y[j] = dst.Y[j], dst.Y[i]
		if dst.Z != nil {
			dst.Z[i], dst.Z[j] = dst.Z[j], dst.Z[i]
		}
		dst.U[i], dst.U[j] = dst.U[j], dst.U[i]
		dst.V[i], dst.V[j] = dst.V[j], dst.V[i]
		dst.W[i], dst.W[j] = dst.W[j], dst.W[i]
		dst.R1[i], dst.R1[j] = dst.R1[j], dst.R1[i]
		dst.R2[i], dst.R2[j] = dst.R2[j], dst.R2[i]
		if dst.Evib != nil {
			dst.Evib[i], dst.Evib[j] = dst.Evib[j], dst.Evib[i]
		}
		dst.Cell[i], dst.Cell[j] = dst.Cell[j], dst.Cell[i]
	}
	for lo := 0; lo < n; {
		hi := lo
		for hi < n && dst.Cell[hi] == dst.Cell[lo] {
			hi++
		}
		r := rng.StreamAt(seed, epoch, uint64(dst.Cell[lo]))
		for i := hi - lo - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			swap(lo+i, lo+j)
		}
		lo = hi
	}
	return dst
}

// sortShapes are the store shapes every cell-sort test covers: the serial
// and the concurrent dispatch path (n either side of serialCutoff), empty
// worker blocks (n = 0, n < workers), a single cell and a 3D store (the Z
// column).
var sortShapes = []struct {
	name     string
	n, cells int
	threeD   bool
}{
	{"empty", 0, 300, false},
	{"fewer than workers", 2, 300, false},
	{"below cutoff", serialCutoff - 1, 300, false},
	{"at cutoff", serialCutoff, 300, false},
	{"above cutoff", serialCutoff + 1, 300, false},
	{"large", 5000, 300, false},
	{"one cell", 5000, 1, false},
	{"3D", 5000, 300, true},
}

// testPools returns pools of 1, 3, 4 and 8 workers.
func testPools() []*Pool {
	var pools []*Pool
	for _, workers := range []int{1, 3, 4, 8} {
		pools = append(pools, New(workers))
	}
	return pools
}

// newShapeStore returns an empty store of the given shape and capacity,
// with the Evib column when vib is set.
func newShapeStore[F kernel.Float](threeD, vib bool, capacity int) *particle.Store[F] {
	st := particle.NewStore[F](capacity)
	if threeD {
		st = particle.NewStore3[F](capacity)
	}
	if vib {
		st.AddEvib()
	}
	return st
}

// TestScatterMatchesStableOracle: the sharded scatter reproduces the
// serial stable counting sort exactly for every worker count, on both
// the serial and the concurrent dispatch path (n either side of
// serialCutoff), with empty worker blocks (n = 0, n < workers), a single
// cell, a 3D store (the Z column) and, for every shape, stores with and
// without the Evib column; and Plan reads the cell column directly (nil
// cellOf) or fills it from cellOf to the same effect.
func TestScatterMatchesStableOracle(t *testing.T) {
	pools := testPools()
	for k := 0; k < 2*len(sortShapes); k++ {
		sh, vib := sortShapes[k/2], k%2 == 1
		src := newShapeStore[float64](sh.threeD, vib, sh.n+100)
		fillStore(src, sh.n, sh.cells, 42)
		want := stableOracle(src, sh.n, sh.cells)
		cells := append([]int32(nil), src.Cell[:sh.n]...)
		for _, pool := range pools {
			cs := NewCellSort[float64](pool, sh.cells, 0, src.Cap())
			for _, cellOf := range []func(i int) int32{nil, func(i int) int32 { return cells[i] }} {
				cs.Plan(sh.n, src.Cell, cellOf)
				dst := newStoreLike(src, src.Cap())
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

// cloneStore returns a store of src's shape and capacity holding a copy
// of every column.
func cloneStore[F kernel.Float](src *particle.Store[F]) *particle.Store[F] {
	dst := newStoreLike(src, src.Cap())
	copy(dst.X, src.X)
	copy(dst.Y, src.Y)
	copy(dst.Z, src.Z)
	copy(dst.U, src.U)
	copy(dst.V, src.V)
	copy(dst.W, src.W)
	copy(dst.R1, src.R1)
	copy(dst.R2, src.R2)
	copy(dst.Evib, src.Evib)
	copy(dst.Cell, src.Cell)
	dst.SetLen(src.Len())
	return dst
}

// TestScatterShuffledMatchesOracle: the in-place Sort — rank, per-cell
// permutation shuffle and column-at-a-time gather — reproduces, bit for
// bit, the stable sort followed by a per-cell Fisher–Yates over the
// records from the same streams, for every shape of
// TestScatterMatchesStableOracle, with and without Evib, on pools of 1,
// 3, 4 and 8 workers, at both precisions and two (seed, epoch) pairs.
// The cell column, refilled from the bucket boundaries, ends as exactly
// the sorted cell column. (The name is that of the two-store sort Sort
// replaced.)
func TestScatterShuffledMatchesOracle(t *testing.T) {
	t.Run("float64", scatterShuffledMatchesOracle[float64])
	t.Run("float32", scatterShuffledMatchesOracle[float32])
}

func scatterShuffledMatchesOracle[F kernel.Float](t *testing.T) {
	pools := testPools()
	keys := [][2]uint64{{1988, 7}, {42, 1 << 40}}
	for k := 0; k < 2*len(sortShapes); k++ {
		sh, vib := sortShapes[k/2], k%2 == 1
		src := newShapeStore[F](sh.threeD, vib, sh.n+100)
		fillStore(src, sh.n, sh.cells, 42)
		for _, key := range keys {
			want := shuffledOracle(src, sh.n, sh.cells, key[0], key[1])
			for _, pool := range pools {
				name := fmt.Sprintf("%s, vib=%v, workers=%d, seed=%d, epoch=%d", sh.name, vib, pool.Workers(), key[0], key[1])
				cs := NewCellSort[F](pool, sh.cells, 0, src.Cap())
				st := cloneStore(src)
				cs.Plan(sh.n, st.Cell, nil)
				cs.Sort(st, key[0], key[1])
				if st.Len() != sh.n {
					t.Errorf("%s: sorted store holds %d records, want %d", name, st.Len(), sh.n)
				}
				if !storesEqual(want, st, sh.n) {
					t.Errorf("%s: Sort diverges from the stable sort + record Fisher–Yates oracle", name)
				}
				for c := 0; c < sh.cells; c++ {
					for d := cs.CellStart()[c]; d < cs.CellStart()[c+1]; d++ {
						if st.Cell[d] != int32(c) {
							t.Fatalf("%s: Cell[%d] = %d after the sort, want the cell %d", name, d, st.Cell[d], c)
						}
					}
				}
			}
		}
	}
}

// TestScatterShuffledAllocs: a steady Plan + Sort allocates nothing, on
// the serial and on the concurrent dispatch path, at both precisions.
func TestScatterShuffledAllocs(t *testing.T) {
	scatterShuffledAllocs[float64](t)
	scatterShuffledAllocs[float32](t)
}

func scatterShuffledAllocs[F kernel.Float](t *testing.T) {
	for _, workers := range []int{1, 4} {
		st := newShapeStore[F](false, true, 5000)
		fillStore(st, 5000, 300, 42)
		cs := NewCellSort[F](New(workers), 300, 0, st.Cap())
		epoch := uint64(0)
		sort := func() {
			cs.Plan(st.Len(), st.Cell, nil)
			cs.Sort(st, 1988, epoch)
			epoch++
		}
		sort()
		if avg := testing.AllocsPerRun(20, sort); avg != 0 {
			t.Errorf("workers=%d: steady Sort allocates %.1f times per call, want 0", workers, avg)
		}
	}
}

// TestSortNoAliasing: the header swaps keep every payload column and both
// scratch columns on their own backing arrays, each as long as the store's
// capacity, after each of several sorts of a 2D store with Evib and of a
// 3D store. A swap that hands one array to two columns can still pass a
// single oracle sort, but not this.
func TestSortNoAliasing(t *testing.T) {
	for _, threeD := range []bool{false, true} {
		const n, capacity, cells = 5000, 5100, 300
		st := newShapeStore[float64](threeD, !threeD, capacity)
		fillStore(st, n, cells, 42)
		cs := NewCellSort[float64](New(3), cells, 0, capacity)
		for sort := 0; sort < 5; sort++ {
			cs.Plan(n, st.Cell, nil)
			cs.Sort(st, 1988, uint64(sort))
			cols := [][]float64{cs.scratch[0], cs.scratch[1]}
			payload, m := payload(st)
			for _, col := range payload[:m] {
				cols = append(cols, *col)
			}
			// X, Y, U, V, W, R1, R2 and one of Z or Evib, and two scratch.
			if len(cols) != 10 {
				t.Fatalf("threeD=%v: %d columns with the scratch columns, want 10", threeD, len(cols))
			}
			seen := map[*float64]int{}
			for i, col := range cols {
				if len(col) != capacity || st.Cap() != capacity {
					t.Errorf("threeD=%v, sort %d: column %d has length %d and the store capacity %d, want %d", threeD, sort, i, len(col), st.Cap(), capacity)
				}
				p := unsafe.SliceData(col)
				if j, ok := seen[p]; ok {
					t.Errorf("threeD=%v, sort %d: columns %d and %d share a backing array", threeD, sort, j, i)
				}
				seen[p] = i
			}
		}
	}
}
