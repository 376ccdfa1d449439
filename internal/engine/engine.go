// Package engine is the generic cell-major core both reference backends
// run on: one phase pipeline — fused move+boundary, a one-pass sort
// (rank, in-cell index shuffle, gather), per-shard select/collide,
// sampling — parameterized
// over the storage precision (float32 halves the memory traffic of the
// cell-major sweeps; float64 reproduces the pre-unification backends bit
// for bit) and over a small Domain interface carrying the
// dimension-specific parts: boundary conditions with the grid indexing
// folded in, and the serial bookkeeping around them. The paper's point is
// that one data-parallel formulation serves every geometry; this is that
// formulation, with internal/sim (wind tunnel + wedge) and internal/sim3
// (piston-driven shock tube) reduced to geometry and configuration
// adapters over it.
//
// Determinism contract: every cell (and, at diffuse walls, every
// particle) draws from its own counter-based stream keyed by
// (seed, step, domain, lane), so results are bit-identical for any
// worker count. The StreamLayout preserves each backend's historical
// epoch encoding, which is what keeps the unified core's float64 output
// identical to the pre-refactor code (pinned by internal/golden).
package engine

import (
	"math"
	"time"

	"dsmc/internal/collide"
	"dsmc/internal/kernel"
	"dsmc/internal/obs"
	"dsmc/internal/par"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
	"dsmc/internal/sample"
)

// Engine metrics live on the process-wide registry and are shared by
// every engine instance (a sweep runs many replicas in one process):
// counters accumulate across instances; the particle gauge reflects
// whichever engine stepped last. The instruments are resolved here,
// once — the record path in Step holds pointers and performs only
// atomic operations, so the AllocsPerRun zero-allocation pins and the
// bit-identity goldens hold with metrics enabled. No clock is read
// for metrics: the per-phase histograms observe the same durations
// the phaseTime breakdown already books through the now()/since()
// chokepoint.
var (
	mSteps      = obs.Default.NewCounter("dsmc_engine_steps_total", "Completed time steps across all engine instances.")
	mCollisions = obs.Default.NewCounter("dsmc_engine_collisions_total", "Collisions performed across all engine instances.")
	mParticles  = obs.Default.NewGauge("dsmc_engine_particles", "Particles in flow of the most recently stepped engine.")
	mPhase      [numPhases]*obs.Histogram
)

func init() {
	for p := Phase(0); p < numPhases; p++ {
		mPhase[p] = obs.Default.NewHistogram("dsmc_engine_phase_seconds",
			"Per-step wall time of one pipeline phase; cell indexing is booked under move+boundary, not sort.",
			obs.DurationBuckets, obs.L{K: "phase", V: p.String()})
	}
}

// Phase identifies one of the four sub-steps for timing breakdowns.
type Phase int

// The four sub-steps of a time step, as the paper reports them, except
// that the cell index is computed by the move pass, not the sort: against
// the paper's table move+boundary reads about two points of a step
// higher and sort as much lower.
const (
	PhaseMove    Phase = iota // collisionless motion + boundary conditions + cell indexing
	PhaseSort                 // ordering by the cell column: histogram, rank, in-cell shuffle, gather
	PhaseSelect               // candidate pairing and the selection rule
	PhaseCollide              // collision of selected partners
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseMove:
		return "move+boundary"
	case PhaseSort:
		return "sort"
	case PhaseSelect:
		return "select"
	case PhaseCollide:
		return "collide"
	}
	return "unknown"
}

// StreamLayout fixes a backend's rng.KeyAt epoch encoding: the epoch
// of a phase at step s is s*NumDomains + domain. Each backend keeps the
// encoding it has always used (2D: sort/select/collide/wall over four
// domains; 3D: sort/collide over two, selection drawing from the collide
// stream), so unifying the pipelines moved no stream coordinates.
type StreamLayout struct {
	// NumDomains is the number of per-step stream domains.
	NumDomains uint64
	// Sort is the in-cell shuffle domain (lane = cell).
	Sort uint64
	// Select is the candidate-selection domain (lane = cell). Equal to
	// Collide, it selects the fused style (see fused).
	Select uint64
	// Collide is the collision domain (lane = cell). Fused backends draw
	// the selection probabilities from this stream too, interleaved with
	// the collision draws.
	Collide uint64
	// Wall is the diffuse-wall re-emission domain (lane = particle);
	// only consumed by domains with randomized boundaries.
	Wall uint64
}

// fused reports whether selection draws from the collide stream, which
// fixes the select+collide style. Fused (the 3D backend's), selection
// and collision draw interleaved from the Collide stream of each cell in
// one pass. Split (the 2D backend's), selection streams all pairs of a
// shard first (recording picks) and collision revisits them with the
// separate Collide stream, which also yields the select/collide timing
// split.
func (l StreamLayout) fused() bool { return l.Select == l.Collide }

// Domain supplies the dimension-specific parts of the pipeline. PreMove
// and PostMove run serially on the stepping goroutine; Boundary runs
// inside the sharded move pass and must only touch shard-local or
// read-only state (plus its disjoint particle range); Relax runs beside
// the sort, select and collide passes.
//
// The cell column is the domain's to keep: the move pass is the only
// sweep of a step that reads positions, and the sort plans from
// Store.Cell as it finds it. Boundary must leave Cell[i] the grid cell of
// the position as stored for every particle it keeps, PostMove for every
// particle it appends (Store.RemoveSwap carries the column).
type Domain[F kernel.Float] interface {
	// PreMove runs before the sharded move pass (advance the
	// plunger/piston, reset per-worker exit state).
	PreMove()
	// Boundary enforces the boundary conditions on particles [lo, hi) of
	// shard w, after the advance kernel has moved them, and writes their
	// cell index. The engine tiles each shard (advance a cache-resident
	// tile, then bound it), so Boundary is called several times per shard
	// in ascending, disjoint ranges: implementations must append to
	// per-worker state, resetting it in PreMove. Membership changes must
	// be deferred to PostMove (record, don't remove).
	Boundary(st *particle.Store[F], w, lo, hi int)
	// PostMove runs after the move pass (remove exited particles, refill
	// the plunger void).
	PostMove()
	// Relax is the domain's end-of-step work (relax the reservoir). It
	// runs on the worker pool concurrently with the sort, select and
	// collide passes, and the engine waits for it before Step returns; on
	// a one-worker pool it runs on the stepping goroutine after collide.
	// It may touch only domain state those passes do not read, never the
	// stores, and it must not use the pool.
	Relax()
}

// Config assembles an engine. The zero value is not runnable; every
// field except Vols and ZVib is required.
type Config struct {
	// Cells is the grid's cell count.
	Cells int
	// Seed keys all counter-based streams.
	Seed uint64
	// Rule is the collision selection rule.
	Rule collide.Rule
	// Vols are the per-cell gas volumes entering the selection rule;
	// nil means unit volumes everywhere.
	Vols []float64
	// Layout is the backend's stream-domain encoding; it also fixes the
	// select+collide style (StreamLayout.fused).
	Layout StreamLayout
	// ZVib enables vibrational relaxation when positive: each collision
	// exchanges energy with the pair's continuous vibrational
	// reservoirs with probability 1/ZVib.
	ZVib float64
}

// pairPick records an accepted candidate pair: the particles at indices
// a and a+1 of the cell-major store, in cell c (the collide pass
// re-derives cell c's stream when c changes).
type pairPick struct{ a, c int32 }

// Engine is the unified cell-major pipeline over one particle store.
//
// Every step the sort permutes the store in place into cell-major order,
// so the select/collide/sample sweeps walk contiguous
// cellStart[c]:cellStart[c+1] ranges with no index indirection. All
// dispatch closures and per-worker scratch are built once at
// construction; a steady-state Step performs zero heap allocations.
type Engine[F kernel.Float] struct {
	cfg Config
	dom Domain[F]

	store *particle.Store[F] // cell-major after each sort

	pool   *par.Pool
	sorter *par.CellSort[F]

	step       int
	collisions int64
	phaseTime  [numPhases]time.Duration

	// prevColl tracks the collision counter between steps so the
	// metrics see per-step increments.
	prevColl int64

	// Prebuilt shard bodies: building them once keeps the pool dispatch
	// in Step allocation-free (a func literal created per call would
	// escape to the heap).
	fnMoveBound func(w, lo, hi int)
	fnSelCol    func(w, lo, hi int)
	fnRelax     func()

	// per-worker scratch, indexed by the pool's block index
	gW     [][]float64  // relative-speed spans (one cell at a time)
	picksW [][]pairPick // accepted-pair buffers (split style)
	selW   []time.Duration
	colW   []time.Duration
	colls  []int64
}

// New assembles an engine over the given domain, worker pool and store.
// Vibrational relaxation is the one reader and writer of the store's Evib
// column, so New adds it when cfg.ZVib asks for it and not otherwise.
func New[F kernel.Float](cfg Config, dom Domain[F], pool *par.Pool, store *particle.Store[F]) *Engine[F] {
	if cfg.ZVib > 0 {
		store.AddEvib()
	}
	e := &Engine[F]{
		cfg:    cfg,
		dom:    dom,
		store:  store,
		pool:   pool,
		sorter: par.NewCellSort[F](pool, cfg.Cells, 0, store.Cap()),
	}
	w := pool.Workers()
	e.gW = make([][]float64, w)
	e.picksW = make([][]pairPick, w)
	capacity := store.Cap()
	_, cellConstant := cfg.Rule.CellProb(1, 1) // whole for a unit cell means whole for every cell
	for b := 0; b < w; b++ {
		// The pick buffers exist only for the split select/collide style.
		// ForCells gives a block at most its share of the particles plus
		// one cell's, so the balanced-load bound (n/2 pairs split w ways)
		// holds up to the slack; a cell larger than the slack grows a
		// buffer once, after which it too is stable. The relative-speed
		// spans hold one cell's pairs at a time and grow (rarely) past the
		// pre-size the same way; a rule that is one probability per cell
		// never reads a speed.
		if !cfg.Layout.fused() {
			e.picksW[b] = make([]pairPick, 0, capacity/(2*w)+64)
		}
		if !cellConstant {
			e.gW[b] = make([]float64, 1024)
		}
	}
	e.selW = make([]time.Duration, w)
	e.colW = make([]time.Duration, w)
	e.colls = make([]int64, w)
	e.fnMoveBound = e.moveBoundShard
	e.fnRelax = dom.Relax
	if cfg.Layout.fused() {
		e.fnSelCol = e.selColFusedShard
	} else {
		e.fnSelCol = e.selColSplitShard
	}
	return e
}

// Epoch encodes (step, domain) into the single epoch word of
// rng.KeyAt — the one place the encoding lives, so no two phases can
// drift onto the same stream coordinates.
func (e *Engine[F]) Epoch(domain uint64) uint64 {
	return uint64(e.step)*e.cfg.Layout.NumDomains + domain
}

// PhaseKey returns the counter-based stream key of one phase of the
// current step; key.At(lane) is the private stream of one lane (a cell
// or particle index). Because a lane's stream depends only on (seed,
// step, domain, lane), every lane draws the same randomness no matter
// which worker processes it. A pass makes the key once and pays one
// inlined mix per lane.
func (e *Engine[F]) PhaseKey(domain uint64) rng.Key {
	return rng.KeyAt(e.cfg.Seed, e.Epoch(domain))
}

// Store exposes the particle store. The pointer is the same for the
// engine's life, but every sort swaps each payload column for another
// array (one of the sorter's scratch columns), so no caller may hold a
// column slice across a Step: read the columns through the store after
// it.
func (e *Engine[F]) Store() *particle.Store[F] { return e.store }

// StepCount returns the number of completed time steps.
func (e *Engine[F]) StepCount() int { return e.step }

// Collisions returns the cumulative number of collisions performed.
func (e *Engine[F]) Collisions() int64 { return e.collisions }

// RestoreCounters resets the step and collision counters to a
// checkpointed value. The caller must also restore the store contents
// and its domain's serial state; the phase wall-times are diagnostics
// and deliberately not restored. The next Step re-sorts, so the sorter's
// cell structures need no restoration either.
func (e *Engine[F]) RestoreCounters(step int, collisions int64) {
	e.step = step
	e.collisions = collisions
	// Resync the metrics baseline: the restored total is not new work,
	// and a backward jump must not wrap the per-step counter delta.
	e.prevColl = collisions
}

// CellStart returns the cell-major bucket boundaries of the latest sort:
// cell c's particles are store indices [CellStart()[c], CellStart()[c+1]).
//
//dsmclint:allow exports the sort's cell spans, which the cell-major layout tests hold the store to
func (e *Engine[F]) CellStart() []int32 { return e.sorter.CellStart() }

// PhaseTimes returns cumulative wall time per sub-step.
func (e *Engine[F]) PhaseTimes() map[string]time.Duration {
	out := make(map[string]time.Duration, numPhases)
	for p := Phase(0); p < numPhases; p++ {
		out[p.String()] = e.phaseTime[p]
	}
	return out
}

// Step advances the simulation one time step through the four sub-steps.
// The domain's Relax shares the pool with the sort, select and collide
// passes: it draws only from the domain's own state, and those passes only
// from per-cell streams, so the overlap moves no bit.
//
//dsmc:hotpath
func (e *Engine[F]) Step() {
	prev := e.phaseTime
	t0 := now()
	e.moveBoundaries()
	t1 := now()
	e.phaseTime[PhaseMove] += t1.Sub(t0)
	e.pool.Go(e.fnRelax)
	e.sortByCell()
	t2 := now()
	e.phaseTime[PhaseSort] += t2.Sub(t1)
	e.selectAndCollide()
	e.pool.Join()
	e.step++
	e.recordStep(prev)
}

// recordStep publishes the completed step to the metrics registry:
// per-phase deltas against the pre-step snapshot of the cumulative
// phaseTime breakdown (no additional clock reads), the collision
// increment, and the particle count. All record calls are atomic and
// allocation-free (pinned by obs's and this package's AllocsPerRun
// tests).
//
//dsmc:hotpath
func (e *Engine[F]) recordStep(prev [numPhases]time.Duration) {
	for p := range mPhase {
		mPhase[p].Observe(float64(e.phaseTime[p]-prev[p]) / 1e9)
	}
	mSteps.Inc()
	mParticles.Set(float64(e.store.Len()))
	mCollisions.Add(uint64(e.collisions - e.prevColl))
	e.prevColl = e.collisions
}

// Run advances n steps.
func (e *Engine[F]) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

// SampleInto accumulates the current snapshot into acc, sharded over cell
// ranges of about equal particle count on the engine's worker pool. Valid
// after a completed step (the cell-major layout of the latest sort must be
// current). The per-cell accumulation order follows the store order, so
// the sums are bit-identical for any worker count.
//
//dsmc:hotpath
func (e *Engine[F]) SampleInto(acc *sample.Accumulator) {
	sample.AddFlowCellMajor(acc, e.store, e.sorter.CellStart(), e.pool.ForCells)
}

// moveBoundaries performs the collisionless motion (the width-grouped
// advance kernel) fused with the domain's boundary conditions in a
// single sharded pass over the particle arrays, bracketed by the
// domain's serial hooks (plunger/piston advance before, exit removal and
// void refill after). The parallel pass never mutates the store's
// membership — domains record exits per worker and remove them in
// PostMove.
//
//dsmc:hotpath
func (e *Engine[F]) moveBoundaries() {
	e.dom.PreMove()
	e.pool.ForIdx(e.store.Len(), e.fnMoveBound)
	e.dom.PostMove()
}

// moveTile is the particle count the move pass advances before handing
// the same range to the domain's boundary sweep: small enough that the
// just-written position columns are still cache-resident when the
// boundary checks and the cell indexing re-read them (four float64
// columns of 1024 particles are 32 KiB), large enough to amortize the
// per-tile call.
const moveTile = 1024

//dsmc:hotpath
func (e *Engine[F]) moveBoundShard(w, lo, hi int) {
	st := e.store
	for tlo := lo; tlo < hi; tlo += moveTile {
		thi := tlo + moveTile
		if thi > hi {
			thi = hi
		}
		if st.Z != nil {
			kernel.Advance3(st.X[tlo:thi], st.Y[tlo:thi], st.Z[tlo:thi], st.U[tlo:thi], st.V[tlo:thi], st.W[tlo:thi])
		} else {
			kernel.Advance2(st.X[tlo:thi], st.Y[tlo:thi], st.U[tlo:thi], st.V[tlo:thi])
		}
		e.dom.Boundary(st, w, tlo, thi)
	}
}

// sortByCell makes the store cell-major and re-randomises the collision
// candidates — the role of the paper's one sort on a scaled-and-dithered
// key: the cell column the move pass left current is histogrammed
// (Plan), and Sort ranks the particles into the sorter's int32
// permutation, Fisher–Yates-shuffles each cell's span of it from the
// (seed, epoch, cell) stream and gathers the store's payload through it
// in place, two columns at a time through two scratch columns. After
// this, cell c's particles are the contiguous index range
// cellStart[c]:cellStart[c+1] of the arrays.
//
// The sort rewrites the cell column from the bucket boundaries: it has
// readers before the next move rewrites it — golden.HashSim2D/HashSim3D,
// ckpt's WriteStore and sample.AddFlow.
//
//dsmc:hotpath
func (e *Engine[F]) sortByCell() {
	st := e.store
	e.sorter.Plan(st.Len(), st.Cell, nil)
	e.sorter.Sort(st, e.cfg.Seed, e.Epoch(e.cfg.Layout.Sort))
}

// smallCellPairs is the span below which the select sweep computes its
// relative speeds inline: a kernel call per cell only pays for itself
// once a cell holds at least a lane-group of pairs (the same
// dispatch-overhead cutoff pattern par uses for serial loops). The
// arithmetic is identical on both paths, so the cutoff moves no bits.
const smallCellPairs = kernel.Width

// relSpeeds returns worker w's relative-speed span with its first npairs
// elements set to the speeds of the cell span starting at lo: inline for
// small cells, the width-grouped kernel for dense ones.
//
//dsmc:hotpath
func (e *Engine[F]) relSpeeds(w, lo, npairs int) []float64 {
	g := e.gW[w]
	if len(g) < npairs {
		//dsmclint:allow hotpath-alloc amortized grow: the span re-makes only when a cell outgrows it once, then is stable (AllocsPerRun pins the steady state)
		g = make([]float64, npairs+npairs/2)
		e.gW[w] = g
	}
	st := e.store
	if npairs >= smallCellPairs {
		kernel.PairRelSpeeds(st.U, st.V, st.W, lo, npairs, g)
		return g
	}
	for k := 0; k < npairs; k++ {
		a := lo + 2*k
		du := st.U[a] - st.U[a+1]
		dv := st.V[a] - st.V[a+1]
		dw := st.W[a] - st.W[a+1]
		g[k] = math.Sqrt(float64(du*du + dv*dv + dw*dw))
	}
	return g
}

// vol returns the gas volume of cell c (unit when no volume table is
// configured).
func (e *Engine[F]) vol(c int) float64 {
	if e.cfg.Vols == nil {
		return 1
	}
	return e.cfg.Vols[c]
}

// selectAndCollide pairs adjacent candidates within each cell-major span,
// applies the selection rule, and collides accepted pairs. The work is
// sharded over cell ranges of about equal particle count: cells own disjoint
// contiguous index ranges and each draws from its own streams, so any
// worker count produces identical collisions.
//
//dsmc:hotpath
func (e *Engine[F]) selectAndCollide() {
	nc := e.cfg.Cells
	if e.cfg.Layout.fused() {
		// Single-pass style: selection and collision interleave on one
		// stream, so the timing cannot be split — book it all as collide.
		t0 := now()
		e.pool.ForCells(e.sorter.CellStart(), e.fnSelCol)
		for _, c := range e.colls {
			e.collisions += c
		}
		e.phaseTime[PhaseCollide] += since(t0)
		return
	}
	// Split style: each shard runs selection over all its cells first and
	// then collides the accepted pairs, so the paper's select/collide
	// breakdown costs three clock reads per shard instead of two per
	// non-empty cell.
	e.pool.ForCells(e.sorter.CellStart(), e.fnSelCol)
	// A concurrent section's wall time is its slowest shard; if the pool
	// fell back to serial dispatch the shards ran back-to-back and their
	// times add instead. Per-worker times are written before the pool's
	// barrier and read after it, so the breakdown stays race-free.
	e.phaseTime[PhaseSelect] += shardWall(e.pool.Parallel(nc), e.selW)
	e.phaseTime[PhaseCollide] += shardWall(e.pool.Parallel(nc), e.colW)
	for _, c := range e.colls {
		e.collisions += c
	}
}

// selColSplitShard is one worker's cell range of the split select+collide
// style. Selection evaluates the rule once per cell (Rule.CellProb). When
// that is the whole answer — the paper's Maxwell molecule, the
// near-continuum mode — no velocity is read: a saturated cell (p = 1)
// accepts every pair without a draw, a cell with p = 0 (no gas volume)
// draws nothing either — its select stream is private to this cell and
// step and no collision follows, so nothing downstream can tell the
// draws were skipped — and any other cell costs one Float64 compare per
// pair. Only a model with a relative-speed factor streams the cell's
// velocity columns through the width-grouped kernel and completes the
// probability pair by pair; the product is compared unclamped, which
// accepts without a draw exactly where the clamped probability was 1
// and draws-and-rejects exactly where it was 0 or NaN. The collide
// sub-loop then revisits only the accepted records. Selection and
// collision draw from distinct per-cell stream domains so the two
// sub-loops stay deterministic for any worker count.
//
//dsmc:hotpath
func (e *Engine[F]) selColSplitShard(w, clo, chi int) {
	st := e.store
	cellStart := e.sorter.CellStart()
	zvib := e.cfg.ZVib > 0
	t0 := now()
	picks := e.picksW[w][:0]
	rule := &e.cfg.Rule
	selKey := e.PhaseKey(e.cfg.Layout.Select)
	for c := clo; c < chi; c++ {
		lo, hi := int(cellStart[c]), int(cellStart[c+1])
		cnt := hi - lo
		if cnt < 2 {
			continue
		}
		npairs := cnt / 2
		p, whole := rule.CellProb(cnt, e.vol(c))
		if whole {
			// The paper's case gets its own loops: against one loop that
			// re-tests whole and p >= 1 per pair, select reads about a
			// tenth less (BENCH_PR21.md section 6).
			switch {
			case p >= 1:
				for k := 0; k < npairs; k++ {
					picks = append(picks, pairPick{int32(lo + 2*k), int32(c)})
				}
			case p > 0:
				r := selKey.At(uint64(c))
				for k := 0; k < npairs; k++ {
					if r.Float64() < p {
						picks = append(picks, pairPick{int32(lo + 2*k), int32(c)})
					}
				}
			}
			continue
		}
		r := selKey.At(uint64(c))
		g := e.relSpeeds(w, lo, npairs)
		for k := 0; k < npairs; k++ {
			pp := p * rule.Model.GFactor(g[k]/rule.GInf)
			if pp >= 1 || r.Float64() < pp {
				picks = append(picks, pairPick{int32(lo + 2*k), int32(c)})
			}
		}
	}
	t1 := now()
	colKey := e.PhaseKey(e.cfg.Layout.Collide)
	var r rng.Stream
	cur := int32(-1)
	var coll int64
	if zvib {
		for _, pk := range picks {
			if pk.c != cur {
				cur = pk.c
				r = colKey.At(uint64(cur))
			}
			e.collideVibPair(st, int(pk.a), int(pk.a)+1, &r)
		}
	} else {
		for _, pk := range picks {
			if pk.c != cur {
				cur = pk.c
				r = colKey.At(uint64(cur))
			}
			ia := int(pk.a)
			kernel.ExchangePair(st.U, st.V, st.W, st.R1, st.R2, ia, ia+1,
				rng.RandomPerm5(&r), r.Uint32())
		}
	}
	coll = int64(len(picks))
	e.picksW[w] = picks
	e.selW[w], e.colW[w] = t1.Sub(t0), since(t1)
	e.colls[w] = coll
}

// selColFusedShard is one worker's cell range of the fused style:
// selection and collision interleave pair by pair on the cell's single
// collide stream (the 3D backend's historical draw order). The rule is
// evaluated per cell exactly as in selColSplitShard: a cell-constant
// probability reads no velocity before a pair is accepted, and a cell
// with p = 0 is skipped outright (nothing collides there, so its private
// stream has no other reader). For the other models the relative speeds
// still come from the width-grouped kernel a block at a time — the
// blocking consumes no randomness, so the draw sequence is untouched.
//
//dsmc:hotpath
func (e *Engine[F]) selColFusedShard(w, clo, chi int) {
	st := e.store
	cellStart := e.sorter.CellStart()
	zvib := e.cfg.ZVib > 0
	var coll int64
	rule := &e.cfg.Rule
	key := e.PhaseKey(e.cfg.Layout.Collide)
	for c := clo; c < chi; c++ {
		lo, hi := int(cellStart[c]), int(cellStart[c+1])
		cnt := hi - lo
		if cnt < 2 {
			continue
		}
		npairs := cnt / 2
		p, whole := rule.CellProb(cnt, e.vol(c))
		if whole && !(p > 0) {
			continue
		}
		r := key.At(uint64(c))
		var g []float64
		if !whole {
			g = e.relSpeeds(w, lo, npairs)
		}
		for k := 0; k < npairs; k++ {
			pp := p
			if !whole {
				pp = p * rule.Model.GFactor(g[k]/rule.GInf)
			}
			if pp >= 1 || r.Float64() < pp {
				a := lo + 2*k
				if zvib {
					e.collideVibPair(st, a, a+1, &r)
				} else {
					kernel.ExchangePair(st.U, st.V, st.W, st.R1, st.R2, a, a+1,
						rng.RandomPerm5(&r), r.Uint32())
				}
				coll++
			}
		}
	}
	e.colls[w] = coll
}

// collideVibPair draws the permutation and signs from r, performs the
// exchange on pair (ia, ib), and relaxes the pair against its
// vibrational reservoirs.
//
//dsmc:hotpath
func (e *Engine[F]) collideVibPair(st *particle.Store[F], ia, ib int, r *rng.Stream) {
	perm := rng.RandomPerm5(r)
	va, vb := st.Vel(ia), st.Vel(ib)
	collide.Collide(&va, &vb, perm, r.Uint32())
	e.vibExchange(st, &va, &vb, ia, ib, r)
	st.SetVel(ia, va)
	st.SetVel(ib, vb)
}

func shardWall(concurrent bool, ds []time.Duration) time.Duration {
	var m, sum time.Duration
	for _, d := range ds {
		sum += d
		if d > m {
			m = d
		}
	}
	if concurrent {
		return m
	}
	return sum
}

// vibExchange applies the continuous vibrational relaxation to a just-
// collided pair: the pair's relative translational energy and the two
// vibrational reservoirs are redistributed (collide.VibExchange), and the
// relative translational velocity is rescaled so total energy is
// conserved exactly. The pair mean is untouched, so momentum is
// conserved too. The exchange runs in float64 (the reservoirs round once
// on store), so the float64 instantiation is bit-exact.
//
//dsmc:hotpath
func (e *Engine[F]) vibExchange(st *particle.Store[F], va, vb *collide.State5, ia, ib int, r *rng.Stream) {
	du := va[0] - vb[0]
	dv := va[1] - vb[1]
	dw := va[2] - vb[2]
	eTr := (du*du + dv*dv + dw*dw) / 2
	if eTr <= 0 {
		return
	}
	eTrNew, ea, eb := collide.VibExchange(eTr, float64(st.Evib[ia]), float64(st.Evib[ib]), e.cfg.ZVib, r)
	st.Evib[ia], st.Evib[ib] = F(ea), F(eb)
	//dsmclint:allow float-eq exact no-op sentinel: VibExchange returns eTr unchanged (same bits) when no exchange happened
	if eTrNew == eTr {
		return
	}
	scale := math.Sqrt(eTrNew / eTr)
	for k := 0; k < 3; k++ {
		mean := (va[k] + vb[k]) / 2
		half := (va[k] - vb[k]) / 2 * scale
		va[k] = mean + half
		vb[k] = mean - half
	}
}

// TotalVibEnergy returns the summed vibrational energy of the flow (zero
// for a gas without vibrational relaxation, whose store has no column).
//
//dsmclint:allow exports vibrational energy diagnostic
func (e *Engine[F]) TotalVibEnergy() float64 {
	if e.store.Evib == nil {
		return 0
	}
	var s float64
	for i := 0; i < e.store.Len(); i++ {
		s += float64(e.store.Evib[i])
	}
	return s
}

// TotalEnergy returns the flow's total velocity-square sum (diagnostic).
//
//dsmclint:allow exports energy conservation diagnostic
func (e *Engine[F]) TotalEnergy() float64 { return e.store.TotalEnergy() }
