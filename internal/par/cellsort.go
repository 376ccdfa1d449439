package par

import (
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// CellSort is the sharded cell-major sort shared by the reference
// backends. It groups the particles by cell and re-randomises the order
// inside every cell — the work of the paper's one sort on a
// scaled-and-dithered key — moving the particle payload exactly once:
//
//  1. Plan: per-worker histograms over the pool's equal element blocks
//     and a serial blocked merge that assigns every worker its scatter
//     base inside each cell;
//  2. rank: a stable sharded scatter of int32 source indices, not of
//     records — dst.Cell[fill[c]++] = i — so the destination store's Cell
//     column, dead until the sort writes it, holds the permutation and no
//     capacity-sized array is added;
//  3. shuffle (ScatterShuffled only): the per-cell Fisher–Yates over each
//     cell's index span, drawing each cell's permutation from its own
//     counter-based stream (seed, epoch, cell), sharded over cell ranges
//     of about equal particle count (Pool.ForCells);
//  4. gather: sharded by destination range, every payload column (X, Y,
//     [Z], U, V, W, R1, R2, [Evib]) is copied from src[s] to dst[d] for
//     s = dst.Cell[d], writing sequentially, and then dst.Cell[d] =
//     src.Cell[s] restores the cell column.
//
// After the caller swaps the two stores, cell c's particles occupy the
// contiguous range CellStart()[c]:CellStart()[c+1]. Swapping index
// entries is the same permutation as swapping the records they name, so
// the result is bit-identical to a record scatter followed by an in-place
// record shuffle from the same streams, at one pass over the payload
// instead of two. Bucketing a block by destination cell window first, to
// keep the write set cache-resident, measured slower or at parity at
// every scale this repo runs (BENCH_PR15.md), so there is no tiled
// variant and no knob.
//
// Before the shuffle, the order is the serial counting sort's (ascending
// pre-scatter index within each cell) for any worker count; the shuffle
// draws depend only on (seed, epoch, cell), so the final order is worker
// invariant too — the invariant the deterministic collide phase relies
// on. All dispatch closures are built once at construction, so
// steady-state sorting performs zero heap allocations.
type CellSort[F kernel.Float] struct {
	pool      *Pool
	counts    []int32
	cellStart []int32
	wcounts   [][]int32
	wfill     [][]int32

	mergeBase []int32 // blocked-merge scratch: per-cell running scatter base

	// Prebuilt shard bodies (allocation-free dispatch) and the per-call
	// state they read. The fields are only live during the owning call.
	histFn    func(w, lo, hi int)
	rankFn    func(w, lo, hi int)
	shuffleFn func(w, clo, chi int)
	gatherFn  func(w, lo, hi int)
	cell      []int32
	cellOf    func(i int) int32
	src, dst  *particle.Store[F]
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

// NewCellSort returns a sorter over the given cell count, sharded on
// pool. The two trailing ints are unused: the frozen benchmark/probes.go
// calls this four-argument shape, and the next benchmark PR drops them.
func NewCellSort[F kernel.Float](pool *Pool, cells, _, _ int) *CellSort[F] {
	cs := &CellSort[F]{
		pool:      pool,
		counts:    make([]int32, cells),
		cellStart: make([]int32, cells+1),
		wcounts:   make([][]int32, pool.Workers()),
		wfill:     make([][]int32, pool.Workers()),
		mergeBase: make([]int32, mergeBlock),
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
// ScatterShuffled (or ScatterStore). A nil cellOf means the cell column
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

// ScatterShuffled sorts src into dst by the latest Plan and shuffles
// every cell span — rank, per-cell index shuffle, gather — and marks
// dst's first src.Len() slots live; the caller then swaps the two store
// pointers. The order is exactly that of ScatterStore followed by
// Shuffle(seed, epoch, dst.Swap): the same draws from the same
// (seed, epoch, cell) streams, applied to index entries instead of
// records. src and dst must be distinct, share Plan's cell slice
// (src.Cell) and have equal shape (both 2D or both 3D, both with or both
// without the Evib column, dst.Cap() >= src.Len()). dst's Cell column is
// scratch until the gather rewrites it.
//
//dsmc:hotpath
func (cs *CellSort[F]) ScatterShuffled(src, dst *particle.Store[F], seed, epoch uint64) {
	cs.rank(src, dst)
	cs.seed, cs.epoch = seed, epoch
	cs.pool.ForCells(cs.cellStart, cs.shuffleFn)
	cs.gather()
}

// ScatterStore is ScatterShuffled without the shuffle: the stable sort of
// the latest Plan, cell-major and in ascending source index within each
// cell.
//
//dsmc:hotpath
func (cs *CellSort[F]) ScatterStore(src, dst *particle.Store[F]) {
	cs.rank(src, dst)
	cs.gather()
}

// rank binds the call's stores and writes the stable permutation into
// dst.Cell: slot d of cell c's span names the source index it receives.
//
//dsmc:hotpath
func (cs *CellSort[F]) rank(src, dst *particle.Store[F]) {
	cs.src, cs.dst = src, dst
	cs.pool.ForIdx(src.Len(), cs.rankFn)
}

// gather moves the payload through the permutation in dst.Cell, marks
// dst live and unbinds the stores.
//
//dsmc:hotpath
func (cs *CellSort[F]) gather() {
	n := cs.src.Len()
	cs.pool.ForIdx(n, cs.gatherFn)
	cs.dst.SetLen(n)
	cs.src, cs.dst = nil, nil
}

// rankShard ranks worker w's element block [lo, hi) through the per-cell
// cursors merge gave it.
//
//dsmc:hotpath
func (cs *CellSort[F]) rankShard(w, lo, hi int) {
	fill := cs.wfill[w]
	cell, idx := cs.src.Cell, cs.dst.Cell
	for i := lo; i < hi; i++ {
		c := cell[i]
		d := fill[c]
		fill[c] = d + 1
		idx[d] = int32(i)
	}
}

// gatherShard fills destination slots [lo, hi): the one loop that moves
// the payload.
//
//dsmc:hotpath
func (cs *CellSort[F]) gatherShard(_, lo, hi int) {
	src, dst := cs.src, cs.dst
	idx := dst.Cell
	threeD := src.Z != nil
	vib := src.Evib != nil
	for d := lo; d < hi; d++ {
		s := idx[d]
		dst.X[d] = src.X[s]
		dst.Y[d] = src.Y[s]
		if threeD {
			dst.Z[d] = src.Z[s]
		}
		dst.U[d] = src.U[s]
		dst.V[d] = src.V[s]
		dst.W[d] = src.W[s]
		dst.R1[d] = src.R1[s]
		dst.R2[d] = src.R2[s]
		if vib {
			dst.Evib[d] = src.Evib[s]
		}
		idx[d] = src.Cell[s]
	}
}

// Shuffle randomizes the record order within each cell span in place
// through swap, with the draws of ScatterShuffled's shuffle pass. No
// simulation calls it — the step shuffles index entries inside
// ScatterShuffled — it stays only because the frozen benchmark/probes.go
// times it (cs.Shuffle(1, rep, src.Swap)); ROADMAP item 2(a), which moves
// the probes onto ScatterShuffled, deletes it.
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
// distributions. It swaps the index entries in dst.Cell, or the records
// through Shuffle's swap when one is bound.
//
//dsmc:hotpath
func (cs *CellSort[F]) shuffleShard(_, clo, chi int) {
	swap := cs.swap
	var idx []int32
	if swap == nil {
		idx = cs.dst.Cell
	}
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
		span := idx[lo : lo+cnt]
		for i := cnt - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			span[i], span[j] = span[j], span[i]
		}
	}
}
