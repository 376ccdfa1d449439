package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 7, serialCutoff - 1, serialCutoff, 3*serialCutoff + 5} {
			marks := make([]int32, n)
			p.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&marks[i], 1)
				}
			})
			for i, m := range marks {
				if m != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, m)
				}
			}
		}
	}
}

func TestForIdxFixedDecomposition(t *testing.T) {
	p := New(4)
	for _, n := range []int{0, 1, 10, 4096, 10001} {
		type span struct{ lo, hi int }
		got := make([]span, p.Workers())
		calls := int32(0)
		p.ForIdx(n, func(w, lo, hi int) {
			atomic.AddInt32(&calls, 1)
			got[w] = span{lo, hi}
		})
		if int(calls) != p.Workers() {
			t.Fatalf("n=%d: %d calls, want one per worker (%d)", n, calls, p.Workers())
		}
		// Blocks are contiguous, ascending, and cover [0, n) exactly.
		prev := 0
		for w, sp := range got {
			if sp.lo != prev || sp.hi < sp.lo {
				t.Fatalf("n=%d worker %d: span [%d,%d) does not continue from %d", n, w, sp.lo, sp.hi, prev)
			}
			prev = sp.hi
		}
		if prev != n {
			t.Fatalf("n=%d: decomposition ends at %d", n, prev)
		}
	}
}

func TestNewDefaultsToNumCPU(t *testing.T) {
	if got := New(0).Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := New(-3).Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

// TestParallelPathRuns forces the concurrent path (n above the serial
// cutoff) and checks a reduction computed from per-worker partials.
func TestParallelPathRuns(t *testing.T) {
	p := New(4)
	n := 10 * serialCutoff
	partial := make([]int64, p.Workers())
	p.ForIdx(n, func(w, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		partial[w] = s
	})
	var got int64
	for _, s := range partial {
		got += s
	}
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestSweepWorkersClippedAscending(t *testing.T) {
	ws := SweepWorkers()
	n := runtime.NumCPU()
	if len(ws) == 0 || ws[0] != 1 {
		t.Fatalf("sweep must start at 1 worker: %v", ws)
	}
	for i, w := range ws {
		if w > n {
			t.Errorf("sweep entry %d oversubscribes the host: %d > %d CPUs", i, w, n)
		}
		if i > 0 && w <= ws[i-1] {
			t.Errorf("sweep not strictly ascending: %v", ws)
		}
	}
	if ws[len(ws)-1] != n {
		t.Errorf("sweep must end at the full machine (%d): %v", n, ws)
	}
}

// cellLayout returns the bucket boundaries of the given per-cell counts.
func cellLayout(counts []int) []int32 {
	start := make([]int32, len(counts)+1)
	for c, n := range counts {
		start[c+1] = start[c] + int32(n)
	}
	return start
}

// forCellsSpans runs ForCells over start and returns each block's span,
// failing unless f ran exactly once per worker.
func forCellsSpans(t *testing.T, p *Pool, start []int32) [][2]int {
	t.Helper()
	got := make([][2]int, p.Workers())
	calls := int32(0)
	p.ForCells(start, func(w, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		got[w] = [2]int{lo, hi}
	})
	if int(calls) != p.Workers() {
		t.Fatalf("%d calls, want one per worker (%d)", calls, p.Workers())
	}
	return got
}

// TestForCellsBalancesParticles: above the cutoff, ForCells' blocks are
// contiguous, cover every cell once, and hold at most ⌈n/W⌉ particles plus
// the largest cell, however the particles are spread over the cells.
func TestForCellsBalancesParticles(t *testing.T) {
	cells := 3*serialCutoff + 17
	skewed := make([]int, cells) // a dense first half, a sparse second
	for c := range skewed {
		skewed[c] = 1
		if c < cells/2 {
			skewed[c] = 7 + c%5
		}
	}
	one := make([]int, cells) // every particle in one cell
	one[cells/3] = 50000
	layouts := map[string][]int{
		"skewed":   skewed,
		"one-cell": one,
		"empty":    make([]int, cells),
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		p := New(workers)
		for name, counts := range layouts {
			start := cellLayout(counts)
			n := int(start[cells])
			largest := 0
			for _, k := range counts {
				largest = max(largest, k)
			}
			prev := 0
			for b, sp := range forCellsSpans(t, p, start) {
				if sp[0] != prev || sp[1] < sp[0] {
					t.Fatalf("workers=%d %s: block %d [%d,%d) does not continue from %d", workers, name, b, sp[0], sp[1], prev)
				}
				prev = sp[1]
				if got, bound := int(start[sp[1]]-start[sp[0]]), (n+workers-1)/workers+largest; got > bound {
					t.Errorf("workers=%d %s: block %d holds %d particles, bound %d", workers, name, b, got, bound)
				}
			}
			if prev != cells {
				t.Fatalf("workers=%d %s: blocks end at cell %d of %d", workers, name, prev, cells)
			}
		}
	}
}

// TestForCellsSerialBelowCutoff: below the cutoff in cells ForCells is
// ForIdx over the cell range, whatever the particle layout.
func TestForCellsSerialBelowCutoff(t *testing.T) {
	p := New(4)
	for _, cells := range []int{0, 1, 10, serialCutoff - 1} {
		counts := make([]int, cells)
		if cells > 0 {
			counts[0] = 3 * serialCutoff
		}
		got := forCellsSpans(t, p, cellLayout(counts))
		for b := range got {
			if lo, hi := p.span(b, cells); got[b] != [2]int{lo, hi} {
				t.Fatalf("cells=%d block %d: [%d,%d), ForIdx's is [%d,%d)", cells, b, got[b][0], got[b][1], lo, hi)
			}
		}
	}
}

// TestGoJoinOneWorker: a one-worker pool runs the background task in
// Join, on the caller, and not before.
func TestGoJoinOneWorker(t *testing.T) {
	p := New(1)
	ran := false
	p.Go(func() { ran = true })
	p.ForIdx(10*serialCutoff, func(w, lo, hi int) {})
	if ran {
		t.Fatal("the task ran before Join")
	}
	p.Join()
	if !ran {
		t.Fatal("Join returned without running the task")
	}
	p.Join() // no task pending: returns at once
}

// TestGoBesideForIdx: a background task that blocks does not keep a
// dispatch from completing every block, and Join waits for the task.
func TestGoBesideForIdx(t *testing.T) {
	for _, workers := range []int{2, 4} {
		p := New(workers)
		release := make(chan struct{})
		var done atomic.Bool
		p.Go(func() {
			<-release
			done.Store(true)
		})
		for _, n := range []int{10 * serialCutoff, 100} {
			var blocks atomic.Int32
			p.ForIdx(n, func(w, lo, hi int) { blocks.Add(1) })
			if int(blocks.Load()) != workers {
				t.Fatalf("workers=%d n=%d: %d blocks ran beside the task, want %d", workers, n, blocks.Load(), workers)
			}
		}
		start := cellLayout(make([]int, 2*serialCutoff))
		var blocks atomic.Int32
		p.ForCells(start, func(w, lo, hi int) { blocks.Add(1) })
		if int(blocks.Load()) != workers {
			t.Fatalf("workers=%d: ForCells ran %d blocks beside the task, want %d", workers, blocks.Load(), workers)
		}
		if done.Load() {
			t.Fatalf("workers=%d: the task finished before it was released", workers)
		}
		close(release)
		p.Join()
		if !done.Load() {
			t.Fatalf("workers=%d: Join returned before the task finished", workers)
		}
	}
}

// TestGoForJoinAllocationFree: a step's use of the pool — a background
// task beside ForIdx and ForCells dispatches, then Join — allocates
// nothing, on the serial and the concurrent paths.
func TestGoForJoinAllocationFree(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		counts := make([]int, 2*serialCutoff)
		for c := range counts {
			counts[c] = c % 3
		}
		start := cellLayout(counts)
		var sink [8]int
		bg := func() { sink[7]++ }
		f := func(w, lo, hi int) { sink[w] += hi - lo }
		if avg := testing.AllocsPerRun(50, func() {
			p.Go(bg)
			p.ForIdx(4*serialCutoff, f)
			p.ForCells(start, f)
			p.Join()
		}); avg != 0 {
			t.Errorf("workers=%d: Go+ForIdx+ForCells+Join allocates %.2f times, want 0", workers, avg)
		}
	}
}
