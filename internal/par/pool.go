// Package par provides the persistent worker pool the reference backends
// shard their phases over. It generalises the chunked executor of
// internal/cm/machine.go: work over [0, n) is split into a fixed block
// decomposition — one contiguous block per worker, the last possibly
// short or empty — that depends only on n and the worker count (ForIdx),
// or, for a pass over cells, on the cell layout and the worker count
// (ForCells); never on scheduling. Phases that need deterministic results
// for any worker count rely on this decomposition together with
// counter-based RNG streams (rng.KeyAt(seed, epoch).At(lane)) keyed by
// cell or particle index. One background task at a time (Go, Join) may
// share the workers with those passes.
//
//dsmclint:layer par
//dsmclint:scope determinism
//dsmclint:scope rng-discipline
package par

import (
	"runtime"
	"sync"
)

// serialCutoff is the span below which dispatch overhead exceeds the
// work; smaller loops run on the calling goroutine with the identical
// block decomposition.
const serialCutoff = 2048

// Pool is a persistent set of worker goroutines executing chunked
// parallel-for loops. The zero value is invalid; use New. A pool never
// needs explicit shutdown: its workers exit when the pool is collected.
type Pool struct {
	workers int
	tasks   chan task
	// wg is reused across dispatches so a steady-state ForIdx performs no
	// heap allocation. Safe because calls must not nest or overlap (see
	// ForIdx); a pool serves one phase of one simulation at a time.
	wg sync.WaitGroup
	// bg is the background task between Go and Join. On a pool with more
	// than one worker it is queued as a task running bgRun (prebuilt, so Go
	// allocates nothing), and bgWG waits for it.
	bg    func()
	bgRun func(w, lo, hi int)
	bgWG  sync.WaitGroup
}

type task struct {
	f      func(w, lo, hi int)
	w      int
	lo, hi int
	wg     *sync.WaitGroup
}

// New returns a pool with the given worker count; workers <= 0 selects
// runtime.NumCPU(). A one-worker pool runs everything on the caller.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		// One slot per block of a dispatch plus one for the background
		// task, so neither Go nor ForIdx waits for a worker to take a task.
		p.tasks = make(chan task, workers+1)
		p.bgRun = p.runBg
		for i := 0; i < workers; i++ {
			go work(p.tasks)
		}
		// The workers hold only the channel, so once the pool itself is
		// unreachable the cleanup closes the channel and they exit.
		runtime.AddCleanup(p, func(ch chan task) { close(ch) }, p.tasks)
	}
	return p
}

func work(tasks <-chan task) {
	for t := range tasks {
		t.f(t.w, t.lo, t.hi)
		t.wg.Done()
	}
}

func (p *Pool) runBg(_, _, _ int) { p.bg() }

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// BlockStep returns the span width of the pool's fixed block
// decomposition of [0, n). Callers that run serial carry passes over the
// same blocks (the cm scans) must use this exact width.
func (p *Pool) BlockStep(n int) int {
	step := (n + p.workers - 1) / p.workers
	if step < 1 {
		step = 1
	}
	return step
}

// span returns block b of the fixed decomposition of [0, n).
func (p *Pool) span(b, n int) (lo, hi int) {
	step := p.BlockStep(n)
	lo, hi = b*step, b*step+step
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Parallel reports whether ForIdx/For dispatch [0, n) concurrently or run
// it on the calling goroutine (one-worker pools and small spans are
// serial). Callers aggregating per-block wall times need this: concurrent
// blocks overlap (take the max), serial blocks run back-to-back (sum).
func (p *Pool) Parallel(n int) bool {
	return p.workers > 1 && n >= serialCutoff
}

// ForIdx runs f once per block b of the fixed decomposition with its span
// [lo, hi); empty blocks get lo == hi. Blocks run concurrently for large
// n, serially otherwise, but f is always invoked exactly Workers() times
// with the identical decomposition, so per-worker scratch indexed by b is
// safe on every path.
//
// Calls must not nest: f must never invoke ForIdx/For on the same pool,
// or the inner call's tasks wait for workers the outer call already
// occupies — a deadlock as soon as n crosses the serial cutoff. Run
// nested loops serially inside the block instead.
func (p *Pool) ForIdx(n int, f func(w, lo, hi int)) {
	if !p.Parallel(n) {
		for b := 0; b < p.workers; b++ {
			lo, hi := p.span(b, n)
			f(b, lo, hi)
		}
		return
	}
	p.wg.Add(p.workers)
	for b := 0; b < p.workers; b++ {
		lo, hi := p.span(b, n)
		p.tasks <- task{f: f, w: b, lo: lo, hi: hi, wg: &p.wg}
	}
	p.wg.Wait()
}

// ForCells runs f once per block b of a decomposition of the cells
// [0, len(start)-1) into contiguous ranges [lo, hi) of about equal
// particle count: start holds cell-major bucket boundaries (cell c's
// particles are [start[c], start[c+1])), and block b is the cells whose
// particles start in the b-th of Workers() equal shares of
// [0, start[len(start)-1]). A block then holds at most ⌈n/Workers()⌉
// particles plus one cell's. The decomposition depends only on start and
// the worker count. Below the serial cutoff in cells it is ForIdx's: the
// fixed decomposition of the cell range, run on the calling goroutine.
// As with ForIdx, f is invoked exactly Workers() times, and calls must
// not nest.
//
//dsmc:hotpath
func (p *Pool) ForCells(start []int32, f func(w, lo, hi int)) {
	cells := len(start) - 1
	if !p.Parallel(cells) {
		p.ForIdx(cells, f)
		return
	}
	step := p.BlockStep(int(start[cells]))
	p.wg.Add(p.workers)
	lo := 0
	for b := 0; b < p.workers; b++ {
		hi := cells
		if b+1 < p.workers {
			hi = lowerBound(start[:cells], int32((b+1)*step), lo)
		}
		p.tasks <- task{f: f, w: b, lo: lo, hi: hi, wg: &p.wg}
		lo = hi
	}
	p.wg.Wait()
}

// lowerBound returns the first index i >= from with s[i] >= v, or len(s);
// s is non-decreasing.
func lowerBound(s []int32, v int32, from int) int {
	lo, hi := from, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Go starts f as the pool's one background task; Join waits for it. On a
// pool with more than one worker f is queued to the workers like a block
// of a dispatch: while it runs, the other workers serve ForIdx and
// ForCells blocks, and its own worker serves them once f returns. On a
// one-worker pool Go only records f and Join runs it on the caller, so
// nothing starts and nothing runs concurrently. f must not touch what
// the passes between Go and Join read or write. Go must not be called
// again before Join.
//
//dsmc:hotpath
func (p *Pool) Go(f func()) {
	p.bg = f
	if p.workers == 1 {
		return
	}
	p.bgWG.Add(1)
	p.tasks <- task{f: p.bgRun, wg: &p.bgWG}
}

// Join returns once the task of the last Go has run (on a one-worker
// pool, by running it). Without a pending task it returns at once.
//
//dsmc:hotpath
func (p *Pool) Join() {
	if p.bg == nil {
		return
	}
	if p.workers == 1 {
		p.bg()
	} else {
		p.bgWG.Wait()
	}
	p.bg = nil
}

// For runs f over [0, n) split into the fixed block decomposition,
// skipping empty blocks.
func (p *Pool) For(n int, f func(lo, hi int)) {
	p.ForIdx(n, func(_, lo, hi int) {
		if lo < hi {
			f(lo, hi)
		}
	})
}

// SweepWorkers returns the worker counts of a scaling sweep — 1, 2, 4 and
// the full machine — clipped to runtime.NumCPU() and deduplicated in
// ascending order, so a sweep never measures oversubscribed pools (a
// 3-core host yields [1 2 3], a single core just [1]).
func SweepWorkers() []int {
	n := runtime.NumCPU()
	var ws []int
	for _, w := range []int{1, 2, 4, n} {
		if w > n {
			w = n
		}
		if len(ws) == 0 || w > ws[len(ws)-1] {
			ws = append(ws, w)
		}
	}
	return ws
}
