package par

import (
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// CellSort is the sharded cell-major sort shared by the reference
// backends. It groups the particles of one store by cell and
// re-randomises the order inside every cell — the work of the paper's one
// sort on a scaled-and-dithered key — in place, moving each payload
// column once through two spare columns:
//
//  1. Plan: per-worker histograms over the pool's equal element blocks
//     and a serial blocked merge that assigns every worker its scatter
//     base inside each cell;
//  2. rank: a stable sharded scatter of int32 source indices, not of
//     records — perm[fill[c]++] = i — into the sorter's permutation;
//  3. shuffle (Sort only): the per-cell Fisher–Yates over each cell's
//     span of the permutation, drawing each cell's permutation from its
//     own counter-based stream (seed, epoch, cell), sharded over cell
//     ranges of about equal particle count (Pool.ForCells);
//  4. gather: two columns per dispatch, in the order X, Y, [Z], U, V, W,
//     R1, R2, [Evib] (an odd last column pairs with itself), sharded by
//     destination range: scratch[d] = col[perm[d]] writes sequentially,
//     and the slice headers of each column and its scratch column are
//     swapped. The last dispatch also refills the cell column from the
//     bucket boundaries: every slot of cell c's span holds c, so nothing
//     is read from the old column.
//
// After the sort, cell c's particles occupy the contiguous range
// CellStart()[c]:CellStart()[c+1]. Swapping permutation entries is the
// same permutation as swapping the records they name, so the result is
// bit-identical to a record scatter followed by an in-place record
// shuffle from the same streams. The sort needs two columns and one int32
// per particle of capacity beyond the store, not a second store: one
// spare column would do, but on the two-worker paper wedge a dispatch per
// column measured 4% slower per step than the two-store gather it
// replaced, and two columns per dispatch 5% faster.
//
// Bucketing a block by destination cell window first, to keep the write
// set cache-resident, measured slower or at parity at every scale this
// repo runs (BENCH_PR15.md), so there is no tiled variant and no knob.
//
// Before the shuffle, the order is the serial counting sort's (ascending
// pre-scatter index within each cell) for any worker count; the shuffle
// draws depend only on (seed, epoch, cell), so the final order is worker
// invariant too — the invariant the deterministic collide phase relies
// on. The permutation, the scratch columns and all dispatch closures are
// built once at construction, so steady-state sorting performs zero heap
// allocations.
type CellSort[F kernel.Float] struct {
	pool      *Pool
	counts    []int32
	cellStart []int32
	wcounts   [][]int32
	wfill     [][]int32

	mergeBase []int32 // blocked-merge scratch: per-cell running scatter base

	// perm is rank's output: slot d of cell c's span names the source
	// index it receives. scratch holds the gather's two spare columns;
	// each trades places with every column it receives.
	perm    []int32
	scratch [2][]F

	// Prebuilt shard bodies (allocation-free dispatch) and the per-call
	// state they read. The fields are only live during the owning call.
	histFn    func(w, lo, hi int)
	rankFn    func(w, lo, hi int)
	shuffleFn func(w, clo, chi int)
	gatherFn  func(w, lo, hi int)
	cell      []int32
	cellOf    func(i int) int32
	in, out   [2][]F  // the columns being gathered and their destinations
	refill    []int32 // the cell column the last gather rewrites, else nil
	swap      func(i, j int)
	seed      uint64
	epoch     uint64
}

// mergeBlock is the cell-block width of Plan's serial merge: the merge
// walks the per-worker histograms worker-major inside each block, so the
// live working set is W short rows of this many int32 counts (cache
// lines streamed in address order) instead of one strided column across
// all W histogram slices per cell.
const mergeBlock = 512

// NewCellSort returns a sorter over the given cell count for stores of
// up to capacity particles, sharded on pool. The third argument is
// unused: the frozen benchmark/probes.go calls this four-argument shape.
func NewCellSort[F kernel.Float](pool *Pool, cells, _, capacity int) *CellSort[F] {
	cs := &CellSort[F]{
		pool:      pool,
		counts:    make([]int32, cells),
		cellStart: make([]int32, cells+1),
		wcounts:   make([][]int32, pool.Workers()),
		wfill:     make([][]int32, pool.Workers()),
		mergeBase: make([]int32, mergeBlock),
		perm:      make([]int32, capacity),
		scratch:   [2][]F{make([]F, capacity), make([]F, capacity)},
	}
	for w := range cs.wcounts {
		cs.wcounts[w] = make([]int32, cells)
		cs.wfill[w] = make([]int32, cells)
	}
	cs.histFn = cs.histShard
	cs.rankFn = cs.rankShard
	cs.shuffleFn = cs.shuffleShard
	cs.gatherFn = cs.gatherShard
	return cs
}

// Counts returns the per-cell element counts of the latest Plan.
func (cs *CellSort[F]) Counts() []int32 { return cs.counts }

// CellStart returns the bucket boundaries of the latest Plan: cell c's
// elements occupy [CellStart()[c], CellStart()[c+1]) after the scatter.
func (cs *CellSort[F]) CellStart() []int32 { return cs.cellStart }

// Plan computes the per-cell counts and bucket boundaries of cell[:n]
// and every worker's scatter base inside each cell. It must precede
// Sort (or ScatterStore). A nil cellOf means the cell column
// is current (the engine's move pass maintains it) and the histogram is a
// sequential sweep of it; otherwise cell[i] = cellOf(i) is computed
// first.
//
//dsmc:hotpath
func (cs *CellSort[F]) Plan(n int, cell []int32, cellOf func(i int) int32) {
	cs.cell, cs.cellOf = cell, cellOf
	cs.pool.ForIdx(n, cs.histFn)
	cs.cellOf = nil
	cs.merge()
}

// merge combines the per-worker histograms into the global counts and
// bucket boundaries and gives every worker its scatter base inside each
// cell: cell c holds worker 0's elements first, then worker 1's, … —
// exactly the stable order of the serial sort. The walk is blocked and
// worker-major: each pass streams a contiguous mergeBlock-cell row of
// one worker's histogram (sequential int32 reads/writes), rather than
// chasing all W histogram pointers per cell, so this serial per-step
// cost stays cache-friendly as the worker count grows.
//
//dsmc:hotpath
func (cs *CellSort[F]) merge() {
	cells := len(cs.counts)
	cs.cellStart[0] = 0
	for c0 := 0; c0 < cells; c0 += mergeBlock {
		c1 := c0 + mergeBlock
		if c1 > cells {
			c1 = cells
		}
		blk := cs.counts[c0:c1]
		for j := range blk {
			blk[j] = 0
		}
		for w := range cs.wcounts {
			cw := cs.wcounts[w][c0:c1]
			for j, v := range cw {
				blk[j] += v
			}
		}
		run := cs.cellStart[c0]
		base := cs.mergeBase[:len(blk)]
		for j, v := range blk {
			base[j] = run
			run += v
			cs.cellStart[c0+j+1] = base[j] + v
		}
		for w := range cs.wcounts {
			cw := cs.wcounts[w][c0:c1]
			fw := cs.wfill[w][c0:c1]
			for j, v := range cw {
				fw[j] = base[j]
				base[j] += v
			}
		}
	}
}

//dsmc:hotpath
func (cs *CellSort[F]) histShard(w, lo, hi int) {
	cw := cs.wcounts[w]
	for c := range cw {
		cw[c] = 0
	}
	cell, cellOf := cs.cell, cs.cellOf
	if cellOf == nil {
		for _, c := range cell[lo:hi] {
			cw[c]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		c := cellOf(i)
		cell[i] = c
		cw[c]++
	}
}

// Sort sorts st in place by the latest Plan and shuffles every cell
// span — rank, per-cell permutation shuffle, gather. The order is exactly
// that of ScatterStore followed by Shuffle(seed, epoch, st.Swap): the
// same draws from the same (seed, epoch, cell) streams, applied to
// permutation entries instead of records. Plan must have read st.Cell,
// and st.Cap() must be the sorter's capacity. Every payload column of st
// is a different array afterwards — a column's old array becomes the
// scratch of the next — so no caller may hold a column across the call.
//
//dsmc:hotpath
func (cs *CellSort[F]) Sort(st *particle.Store[F], seed, epoch uint64) {
	cs.rank(st.Cell, st.Len())
	cs.seed, cs.epoch = seed, epoch
	cs.pool.ForCells(cs.cellStart, cs.shuffleFn)
	cs.gather(st, st)
}

// ScatterStore is the stable sort of the latest Plan without the
// shuffle, cell-major and in ascending source index within each cell,
// from src into dst (a distinct store with the same columns and
// dst.Cap() >= src.Len()). It marks dst's first src.Len() slots live.
//
//dsmc:hotpath
func (cs *CellSort[F]) ScatterStore(src, dst *particle.Store[F]) {
	n := src.Len()
	cs.rank(src.Cell, n)
	cs.gather(src, dst)
	dst.SetLen(n)
}

// rank writes the stable permutation of cell[:n] into perm.
//
//dsmc:hotpath
func (cs *CellSort[F]) rank(cell []int32, n int) {
	cs.cell = cell
	cs.pool.ForIdx(n, cs.rankFn)
	cs.cell = nil
}

// rankShard ranks worker w's element block [lo, hi) through the per-cell
// cursors merge gave it.
//
//dsmc:hotpath
func (cs *CellSort[F]) rankShard(w, lo, hi int) {
	fill := cs.wfill[w]
	cell, perm := cs.cell, cs.perm
	for i := lo; i < hi; i++ {
		c := cell[i]
		d := fill[c]
		fill[c] = d + 1
		perm[d] = int32(i)
	}
}

// payload returns pointers to st's payload columns in gather order, and
// their number: Z and Evib only where st has them.
func payload[F kernel.Float](st *particle.Store[F]) (cols [9]*[]F, m int) {
	for _, col := range [...]*[]F{&st.X, &st.Y, &st.Z, &st.U, &st.V, &st.W, &st.R1, &st.R2, &st.Evib} {
		if *col != nil {
			cols[m] = col
			m++
		}
	}
	return cols, m
}

// gather moves src's first src.Len() records through the permutation into
// dst, two columns per dispatch, and rewrites dst.Cell from the bucket
// boundaries in the last dispatch. In place (dst == src), each pair is
// gathered into the scratch columns and the slice headers are swapped. A
// column must not be overwritten while any shard may still read it, so
// only as many columns share a dispatch as there are scratch columns.
//
//dsmc:hotpath
func (cs *CellSort[F]) gather(src, dst *particle.Store[F]) {
	n := src.Len()
	in, m := payload(src)
	out, _ := payload(dst)
	inPlace := src == dst
	if inPlace && len(cs.scratch[0]) != src.Cap() {
		panic("par: CellSort.Sort of a store whose capacity is not the sorter's")
	}
	for j := 0; j < m; j += 2 {
		a, b := j, min(j+1, m-1) // an odd last column pairs with itself
		cs.in = [2][]F{*in[a], *in[b]}
		cs.out = [2][]F{*out[a], *out[b]}
		if inPlace {
			cs.out = cs.scratch
			if a == b {
				cs.out[1] = cs.out[0]
			}
		}
		if j+2 >= m {
			cs.refill = dst.Cell
		}
		cs.pool.ForIdx(n, cs.gatherFn)
		if inPlace {
			*in[a], cs.scratch[0] = cs.scratch[0], *in[a]
			if a != b {
				*in[b], cs.scratch[1] = cs.scratch[1], *in[b]
			}
		}
	}
	cs.in, cs.out, cs.refill = [2][]F{}, [2][]F{}, nil
}

// gatherShard fills destination slots [lo, hi) of two columns: the one
// loop that moves the payload. The permutation and the destinations are
// resliced to the shard and the second source to the first's length, so
// the first random read is its only bounds check.
//
//dsmc:hotpath
func (cs *CellSort[F]) gatherShard(_, lo, hi int) {
	perm := cs.perm[lo:hi]
	out0 := cs.out[0][lo:hi]
	out0 = out0[:len(perm)]
	out1 := cs.out[1][lo:hi]
	out1 = out1[:len(perm)]
	in0 := cs.in[0]
	in1 := cs.in[1][:len(in0)]
	for d, s := range perm {
		out0[d] = in0[s]
		out1[d] = in1[s]
	}
	if cs.refill != nil {
		cs.refillShard(lo, hi)
	}
}

// refillShard writes the cell index of every slot in [lo, hi) from the
// bucket boundaries.
//
//dsmc:hotpath
func (cs *CellSort[F]) refillShard(lo, hi int) {
	start, cell := cs.cellStart, cs.refill
	for c := lowerBound(start[1:], int32(lo+1), 0); lo < hi; c++ {
		end := min(int(start[c+1]), hi)
		for ; lo < end; lo++ {
			cell[lo] = int32(c)
		}
	}
}

// Shuffle randomizes the record order within each cell span in place
// through swap, with the draws of Sort's shuffle pass. No simulation
// calls it — the step shuffles permutation entries inside Sort — it
// stays only because the frozen benchmark/probes.go times it
// (cs.Shuffle(1, rep, src.Swap)); ROADMAP item 2(a), which moves the
// probes onto Sort, deletes it.
//
//dsmc:hotpath
func (cs *CellSort[F]) Shuffle(seed, epoch uint64, swap func(i, j int)) {
	cs.seed, cs.epoch, cs.swap = seed, epoch, swap
	cs.pool.ForCells(cs.cellStart, cs.shuffleFn)
	cs.swap = nil
}

// shuffleShard runs the per-cell Fisher–Yates over cells [clo, chi):
// collision candidates must change between time steps or the same
// partners collide repeatedly, leading to correlated velocity
// distributions. It swaps the permutation entries, or the records
// through Shuffle's swap when one is bound.
//
//dsmc:hotpath
func (cs *CellSort[F]) shuffleShard(_, clo, chi int) {
	swap := cs.swap
	for c := clo; c < chi; c++ {
		lo := int(cs.cellStart[c])
		cnt := int(cs.cellStart[c+1]) - lo
		if cnt < 2 {
			continue
		}
		r := rng.StreamAt(cs.seed, cs.epoch, uint64(c))
		if swap != nil {
			for i := cnt - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				swap(lo+i, lo+j)
			}
			continue
		}
		span := cs.perm[lo : lo+cnt]
		for i := cnt - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			span[i], span[j] = span[j], span[i]
		}
	}
}
