// Package par provides the persistent worker pool the reference backends
// shard their phases over. It generalises the chunked executor of
// internal/cm/machine.go: work over [0, n) is split into a fixed block
// decomposition — one contiguous block per worker, the last possibly
// short or empty — that depends only on n and the worker count, never on
// scheduling. Phases that need deterministic results for any worker count
// rely on this fixed decomposition together with counter-based RNG
// streams (rng.StreamAt) keyed by cell or particle index.
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
		p.tasks = make(chan task, workers)
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
