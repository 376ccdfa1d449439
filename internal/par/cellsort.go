package par

import (
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// DefaultSortTile is the scatter's cell-block window width (in cells)
// when the configuration does not pin one. Chosen by the cmd/bench
// -tile sweep: the destination window of one block (tile × density ×
// the 9–10 payload columns) should sit comfortably in L2 while the
// per-block pass overhead stays amortized.
const DefaultSortTile = 256

// CellSort is the sharded cell-major sort shared by the reference
// backends. It fuses the classic "sort then reorder" into one stable
// counting sort whose scatter pass moves the particle payload itself:
//
//  1. Plan (or PlanSpans): per-worker histograms over contiguous element
//     spans and a serial blocked merge that assigns every worker its
//     scatter base inside each cell;
//  2. ScatterStore (or ScatterStoreRegions): a stable sharded scatter
//     that writes the payload (X, Y, [Z], U, V, W, R1, R2, Evib, Cell)
//     of a source particle.Store directly into a shadow store at its
//     cell-major position — no index permutation is ever materialized,
//     and after the caller swaps the two buffers cell c's particles
//     occupy the contiguous range CellStart()[c]:CellStart()[c+1];
//  3. Shuffle (or ShuffleSpans): an in-place per-cell-span record
//     shuffle drawing each cell's permutation from its own counter-based
//     stream.
//
// The scatter is tiled by cell block: each worker first buckets its
// element span by destination cell block (a single int32 index write per
// element), then scatters one bounded block window at a time, so the
// active set of per-cell fill cursors and destination column lines stays
// cache-resident instead of streaming 9–10 scattered column writes
// across the whole domain. ScatterStoreRegions is the owner-computes
// variant: the bucket lists double as the migrant exchange, and each
// worker drains the buckets of its own cell region from every source
// span in (source-span, source-index) order.
//
// The resulting order is the serial counting sort's (ascending
// pre-scatter index within each cell) for any worker count and any
// ascending contiguous source decomposition — the invariant the
// deterministic collide phase relies on. The tile width and the source/
// destination decompositions move work between caches, never bits. All
// dispatch closures are built once at construction, so steady-state
// sorting performs zero heap allocations.
type CellSort[F kernel.Float] struct {
	pool      *Pool
	counts    []int32
	cellStart []int32
	wcounts   [][]int32
	wfill     [][]int32

	// Tiled-scatter state: elements are bucketed by destination cell
	// block (block = cell >> tileShift) before the payload moves, so the
	// scatter revisits one bounded window of cells at a time.
	tileShift uint
	nblocks   int
	bidx      []int32   // block-bucketed source indices, capacity = store cap
	bstart    [][]int32 // per-worker per-block bucket bounds (nblocks+1)
	bfill     [][]int32 // per-worker per-block bucket cursors (nblocks)

	mergeBase []int32 // blocked-merge scratch: per-cell running scatter base

	// Prebuilt shard bodies (allocation-free dispatch) and the per-call
	// state they read. The fields are only live during the owning call.
	histFn     func(w, lo, hi int)
	scatterFn  func(w, lo, hi int)
	tiledFn    func(w, lo, hi int)
	bucketFn   func(w, lo, hi int)
	regionFn   func(w, clo, chi int)
	shuffleFn  func(w, clo, chi int)
	cell       []int32
	cellOf     func(i int) int32
	src, dst   *particle.Store[F]
	swap       func(i, j int)
	seed       uint64
	epoch      uint64
	planBounds []int32 // PlanSpans' source decomposition (nil after Plan)
}

// mergeBlock is the cell-block width of Plan's serial merge: the merge
// walks the per-worker histograms worker-major inside each block, so the
// live working set is W short rows of this many int32 counts (cache
// lines streamed in address order) instead of one strided column across
// all W histogram slices per cell.
const mergeBlock = 512

// NewCellSort returns a sorter over the given cell count, sharded on
// pool. tile is the scatter's cell-block window width in cells (rounded
// up to a power of two; <= 0 selects DefaultSortTile; >= cells disables
// tiling — the scatter degenerates to the single direct pass). capacity
// is the maximum element count a Plan/Scatter pair will see (the
// particle store's capacity); the bucket index buffer is pre-sized to it
// so steady-state sorting never allocates.
func NewCellSort[F kernel.Float](pool *Pool, cells, tile, capacity int) *CellSort[F] {
	if tile <= 0 {
		tile = DefaultSortTile
	}
	var shift uint
	for 1<<shift < tile {
		shift++
	}
	nblocks := (cells + (1 << shift) - 1) >> shift
	if nblocks < 1 {
		nblocks = 1
	}
	cs := &CellSort[F]{
		pool:      pool,
		counts:    make([]int32, cells),
		cellStart: make([]int32, cells+1),
		wcounts:   make([][]int32, pool.Workers()),
		wfill:     make([][]int32, pool.Workers()),
		tileShift: shift,
		nblocks:   nblocks,
		bidx:      make([]int32, capacity),
		bstart:    make([][]int32, pool.Workers()),
		bfill:     make([][]int32, pool.Workers()),
		mergeBase: make([]int32, mergeBlock),
	}
	for w := range cs.wcounts {
		cs.wcounts[w] = make([]int32, cells)
		cs.wfill[w] = make([]int32, cells)
		cs.bstart[w] = make([]int32, nblocks+1)
		cs.bfill[w] = make([]int32, nblocks)
	}
	cs.histFn = cs.histShard
	cs.scatterFn = cs.scatterShard
	cs.tiledFn = cs.tiledScatterShard
	cs.bucketFn = cs.bucketShard
	cs.regionFn = cs.regionScatterShard
	cs.shuffleFn = cs.shuffleShard
	return cs
}

// Counts returns the per-cell element counts of the latest Plan.
func (cs *CellSort[F]) Counts() []int32 { return cs.counts }

// CellStart returns the bucket boundaries of the latest Plan: cell c's
// elements occupy [CellStart()[c], CellStart()[c+1]) after the scatter.
func (cs *CellSort[F]) CellStart() []int32 { return cs.cellStart }

// Tile returns the resolved cell-block window width in cells.
func (cs *CellSort[F]) Tile() int { return 1 << cs.tileShift }

// Plan computes the per-cell counts and bucket boundaries of cell[:n]
// and every worker's scatter base inside each cell. It must precede
// ScatterStore. A nil cellOf means the cell column is current (the
// engine's move pass maintains it) and the histogram is a sequential
// sweep of it; otherwise cell[i] = cellOf(i) is computed first.
//
//dsmc:hotpath
func (cs *CellSort[F]) Plan(n int, cell []int32, cellOf func(i int) int32) {
	cs.cell, cs.cellOf, cs.planBounds = cell, cellOf, nil
	cs.pool.ForIdx(n, cs.histFn)
	cs.cellOf = nil
	cs.merge()
}

// PlanSpans is Plan over a caller-supplied ascending source
// decomposition (Pool.ForSpans semantics: bounds[w] ≤ bounds[w+1],
// bounds[0] = 0, bounds[Workers()] = n) — the owner-computes mode hands
// each worker the particle segment its cell region produced, so the
// histogram re-reads the cell column that worker just wrote (cellOf as
// in Plan). Any ascending decomposition yields bit-identical results; the
// spans move cache locality, not bits.
//
//dsmc:hotpath
func (cs *CellSort[F]) PlanSpans(bounds []int32, cell []int32, cellOf func(i int) int32) {
	cs.cell, cs.cellOf, cs.planBounds = cell, cellOf, bounds
	cs.pool.ForSpans(bounds, cs.histFn)
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
// (both 2D or both 3D, dst.Cap() >= src.Len()).
//
// With more than one cell block, each worker processes its element span
// in two sub-passes: bucket the span by destination block (one int32
// write per element), then drain the buckets block by block so the
// destination column lines and fill cursors of one bounded window stay
// resident. A single block (tile >= cells) takes the direct one-pass
// scatter.
//
//dsmc:hotpath
func (cs *CellSort[F]) ScatterStore(src, dst *particle.Store[F]) {
	cs.src, cs.dst = src, dst
	fn := cs.tiledFn
	if cs.nblocks == 1 {
		fn = cs.scatterFn
	} else if len(cs.bidx) < src.Len() {
		//dsmclint:allow hotpath-alloc amortized grow: the bucket index re-makes only if the store outgrows its construction capacity once, then is stable (AllocsPerRun pins the steady state)
		cs.bidx = make([]int32, src.Len()+src.Len()/4)
	}
	if cs.planBounds != nil {
		cs.pool.ForSpans(cs.planBounds, fn)
	} else {
		cs.pool.ForIdx(src.Len(), fn)
	}
	cs.src, cs.dst = nil, nil
	dst.SetLen(src.Len())
}

// ScatterStoreRegions is the owner-computes scatter: pass A buckets
// every source span by destination cell block (sharded over the latest
// PlanSpans decomposition — each worker buckets the span it just
// histogrammed), then pass B is sharded over the cellBounds regions and
// each worker drains, for every block overlapping its region, the
// buckets of all source spans in span order. The buckets are the
// explicit migrant exchange between regions: a particle whose new cell
// lies outside its source region is picked up here by the destination
// owner, and because each destination cell drains source spans in
// ascending order and each bucket preserves ascending source index, the
// merge order is exactly (source-region, source-index) — the same
// stable order ScatterStore produces, so both modes are bit-identical.
//
// cellBounds is the cell-region decomposition (Pool.ForSpans semantics
// over the cell index space). Regions need not align to tile blocks: a
// block straddling a region boundary is drained by both neighbours,
// each filtering to its own cells.
//
//dsmc:hotpath
func (cs *CellSort[F]) ScatterStoreRegions(src, dst *particle.Store[F], cellBounds []int32) {
	cs.src, cs.dst = src, dst
	if len(cs.bidx) < src.Len() {
		//dsmclint:allow hotpath-alloc amortized grow: the bucket index re-makes only if the store outgrows its construction capacity once, then is stable (AllocsPerRun pins the steady state)
		cs.bidx = make([]int32, src.Len()+src.Len()/4)
	}
	if cs.planBounds != nil {
		cs.pool.ForSpans(cs.planBounds, cs.bucketFn)
	} else {
		cs.pool.ForIdx(src.Len(), cs.bucketFn)
	}
	cs.pool.ForSpans(cellBounds, cs.regionFn)
	cs.src, cs.dst = nil, nil
	dst.SetLen(src.Len())
}

// scatterShard is the direct one-pass scatter (single cell block): the
// per-cell cursors and destination lines span the whole domain.
//
//dsmc:hotpath
func (cs *CellSort[F]) scatterShard(w, lo, hi int) {
	src, dst := cs.src, cs.dst
	fill := cs.wfill[w]
	cell := src.Cell
	threeD := src.Z != nil
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
		dst.Evib[d] = src.Evib[i]
		dst.Cell[d] = c
	}
}

// bucketShard groups worker w's element span [lo, hi) by destination
// cell block: bstart[w] receives the block bounds inside bidx[lo:hi]
// (sized from the worker's own histogram) and each element's index is
// appended to its block's bucket in ascending order. The only payload
// traffic is one int32 per element; the bounded set of per-block
// cursors stays resident.
//
//dsmc:hotpath
func (cs *CellSort[F]) bucketShard(w, lo, hi int) {
	bs, bf := cs.bstart[w], cs.bfill[w]
	shift := cs.tileShift
	for b := range bf {
		bf[b] = 0
	}
	for c, v := range cs.wcounts[w] {
		bf[c>>shift] += v
	}
	run := int32(lo)
	for b, v := range bf {
		bs[b] = run
		bf[b] = run
		run += v
	}
	bs[len(bf)] = run
	cell, bidx := cs.cell, cs.bidx
	for i := lo; i < hi; i++ {
		b := cell[i] >> shift
		k := bf[b]
		bf[b] = k + 1
		bidx[k] = int32(i)
	}
}

// tiledScatterShard is one worker's tiled scatter: bucket the span, then
// drain it one cell-block window at a time. While a block drains, the
// live destination set is that block's cells only — fill cursors and the
// 9–10 destination column lines of a bounded cell window — instead of
// scattering across the whole domain.
//
//dsmc:hotpath
func (cs *CellSort[F]) tiledScatterShard(w, lo, hi int) {
	cs.bucketShard(w, lo, hi)
	src, dst := cs.src, cs.dst
	fill := cs.wfill[w]
	bs := cs.bstart[w]
	bidx := cs.bidx
	cell := src.Cell
	threeD := src.Z != nil
	for b := 0; b < cs.nblocks; b++ {
		for k := bs[b]; k < bs[b+1]; k++ {
			i := int(bidx[k])
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
			dst.Evib[d] = src.Evib[i]
			dst.Cell[d] = c
		}
	}
}

// regionScatterShard drains the cell region [clo, chi): for each cell
// block overlapping the region, the buckets of every source span in
// span order. All destination writes land inside the region's own
// cell-major range — the owner computes its cells' layout end-to-end —
// and the bucket reads from foreign spans are exactly the migrants
// crossing into this region. Blocks fully inside the region drain
// unfiltered; a boundary block shared with a neighbour filters to its
// own cells (writes stay disjoint, so the overlap is read-only).
//
//dsmc:hotpath
func (cs *CellSort[F]) regionScatterShard(_, clo, chi int) {
	if clo >= chi {
		return
	}
	src, dst := cs.src, cs.dst
	bidx := cs.bidx
	cell := src.Cell
	threeD := src.Z != nil
	shift := cs.tileShift
	bHi := (chi - 1) >> shift
	for b := clo >> shift; b <= bHi; b++ {
		whole := b<<shift >= clo && (b+1)<<shift <= chi
		for s := range cs.bstart {
			bs := cs.bstart[s]
			fill := cs.wfill[s]
			for k := bs[b]; k < bs[b+1]; k++ {
				i := int(bidx[k])
				c := cell[i]
				if !whole && (int(c) < clo || int(c) >= chi) {
					continue
				}
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
				dst.Evib[d] = src.Evib[i]
				dst.Cell[d] = c
			}
		}
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

// ShuffleSpans is Shuffle sharded over the given cell-region
// decomposition — each owner shuffles its own cells. Per-cell streams
// make any decomposition bit-identical.
//
//dsmc:hotpath
func (cs *CellSort[F]) ShuffleSpans(seed, epoch uint64, swap func(i, j int), cellBounds []int32) {
	cs.seed, cs.epoch, cs.swap = seed, epoch, swap
	cs.pool.ForSpans(cellBounds, cs.shuffleFn)
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
