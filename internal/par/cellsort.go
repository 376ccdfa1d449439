package par

import (
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// CellSort is the sharded cell-major sort shared by the reference
// backends. It fuses the classic "sort then reorder" into one stable
// counting sort whose scatter pass moves the particle payload itself:
//
//  1. Plan: per-worker histograms over the pool's equal element blocks
//     and a serial blocked merge that assigns every worker its scatter
//     base inside each cell;
//  2. ScatterStore: a stable sharded scatter that writes the payload
//     (X, Y, [Z], U, V, W, R1, R2, [Evib], Cell) of a source
//     particle.Store directly into a shadow store at its cell-major
//     position — no index permutation is ever materialized, and after the
//     caller swaps the two buffers cell c's particles occupy the
//     contiguous range CellStart()[c]:CellStart()[c+1];
//  3. Shuffle: an in-place per-cell-span record shuffle drawing each
//     cell's permutation from its own counter-based stream.
//
// The scatter is one direct pass over each worker's block. Bucketing a
// block by destination cell window first, to keep the write set
// cache-resident, measured slower or at parity at every scale this repo
// runs (BENCH_PR15.md), so there is no tiled variant and no knob.
//
// The resulting order is the serial counting sort's (ascending
// pre-scatter index within each cell) for any worker count — the
// invariant the deterministic collide phase relies on. All dispatch
// closures are built once at construction, so steady-state sorting
// performs zero heap allocations.
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
	scatterFn func(w, lo, hi int)
	shuffleFn func(w, clo, chi int)
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
	cs.scatterFn = cs.scatterShard
	cs.shuffleFn = cs.shuffleShard
	return cs
}

// Counts returns the per-cell element counts of the latest Plan.
func (cs *CellSort[F]) Counts() []int32 { return cs.counts }

// CellStart returns the bucket boundaries of the latest Plan: cell c's
// elements occupy [CellStart()[c], CellStart()[c+1]) after the scatter.
func (cs *CellSort[F]) CellStart() []int32 { return cs.cellStart }

// Plan computes the per-cell counts and bucket boundaries of cell[:n]
// and every worker's scatter base inside each cell. It must precede
// ScatterStore. A nil cellOf means the cell column is current (the
// engine's move pass maintains it) and the histogram is a sequential
// sweep of it; otherwise cell[i] = cellOf(i) is computed first.
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

// ScatterStore performs the stable sharded scatter of the latest Plan,
// writing src's payload into dst at cell-major positions and marking
// dst's first src.Len() slots live. The caller then swaps the two store
// pointers — sort and physical reorder fused into this single pass. src
// and dst must share Plan's cell slice (src.Cell) and have equal shape
// (both 2D or both 3D, both with or both without the Evib column,
// dst.Cap() >= src.Len()).
//
//dsmc:hotpath
func (cs *CellSort[F]) ScatterStore(src, dst *particle.Store[F]) {
	cs.src, cs.dst = src, dst
	cs.pool.ForIdx(src.Len(), cs.scatterFn)
	cs.src, cs.dst = nil, nil
	dst.SetLen(src.Len())
}

// scatterShard scatters worker w's element block [lo, hi) through the
// per-cell cursors merge gave it.
//
//dsmc:hotpath
func (cs *CellSort[F]) scatterShard(w, lo, hi int) {
	src, dst := cs.src, cs.dst
	fill := cs.wfill[w]
	cell := src.Cell
	threeD := src.Z != nil
	vib := src.Evib != nil
	for i := lo; i < hi; i++ {
		c := cell[i]
		d := fill[c]
		fill[c] = d + 1
		dst.X[d] = src.X[i]
		dst.Y[d] = src.Y[i]
		if threeD {
			dst.Z[d] = src.Z[i]
		}
		dst.U[d] = src.U[i]
		dst.V[d] = src.V[i]
		dst.W[d] = src.W[i]
		dst.R1[d] = src.R1[i]
		dst.R2[d] = src.R2[i]
		if vib {
			dst.Evib[d] = src.Evib[i]
		}
		dst.Cell[d] = c
	}
}

// Shuffle randomizes the record order within each cell span in place —
// collision candidates must change between time steps or the same
// partners collide repeatedly, leading to correlated velocity
// distributions — drawing each cell's permutation from its own
// counter-based stream (seed, epoch, cell), sharded over cell ranges.
// swap exchanges two records of the scattered payload (e.g. the bound
// store's Swap); it is only ever called with indices of one cell span.
//
//dsmc:hotpath
func (cs *CellSort[F]) Shuffle(seed, epoch uint64, swap func(i, j int)) {
	cs.seed, cs.epoch, cs.swap = seed, epoch, swap
	cs.pool.ForIdx(len(cs.counts), cs.shuffleFn)
	cs.swap = nil
}

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
		for i := cnt - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			swap(lo+i, lo+j)
		}
	}
}
