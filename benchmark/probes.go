//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"dsmc"
	"dsmc/internal/collide"
	"dsmc/internal/kernel"
	"dsmc/internal/obs"
	"dsmc/internal/par"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
	"dsmc/internal/store"
)

// The layer probes time one layer's exported functions in isolation, on
// synthetic inputs shaped like the paper-scale flow, so that a change
// inside a layer shows in that layer's number before it is looked for in
// an end-to-end metric. Each reports the lower decile of probeReps
// repeats, like every other timing here.

// timeReps returns the p10 of reps timings of f, in seconds.
func timeReps(reps int, f func(rep int)) float64 {
	ts := make([]float64, reps)
	for r := range ts {
		t0 := time.Now()
		f(r)
		ts[r] = time.Since(t0).Seconds()
	}
	return p10(ts)
}

// parProbe times the three passes of the fused cell sort — Plan,
// ScatterStore, Shuffle — on a store of n particles over the given cell
// count, per particle, on a pool of the given size. The particles start
// cell-major and about a third move to a neighbouring cell between
// sorts, as they do between steps of the wedge flow.
func parProbe(n, cells, workers, reps int) (planNs, scatterNs, shuffleNs float64) {
	pool := par.New(workers)
	cs := par.NewCellSort[float64](pool, cells, 0, n)
	src, dst := particle.NewStore[float64](n), particle.NewStore[float64](n)
	r := rng.NewStream(1)
	for i := 0; i < n; i++ {
		src.Append(r.Float64(), r.Float64(), collide.State5{r.Normal(), r.Normal(), r.Normal(), r.Normal(), r.Normal()})
	}
	next := make([]int32, n)
	for i := range next {
		c := i * cells / n
		if k := r.Intn(6); k < 2 {
			c += 2*k - 1
		}
		next[i] = int32(min(max(c, 0), cells-1))
	}
	cellOf := func(i int) int32 { return next[i] }
	var plan, scatter, shuffle []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		cs.Plan(n, src.Cell, cellOf)
		t1 := time.Now()
		cs.ScatterStore(src, dst)
		t2 := time.Now()
		src, dst = dst, src
		cs.Shuffle(1, uint64(rep), src.Swap)
		t3 := time.Now()
		plan = append(plan, t1.Sub(t0).Seconds())
		scatter = append(scatter, t2.Sub(t1).Seconds())
		shuffle = append(shuffle, t3.Sub(t2).Seconds())
	}
	perParticle := 1e9 / float64(n)
	return p10(plan) * perParticle, p10(scatter) * perParticle, p10(shuffle) * perParticle
}

// barrierProbe times one empty Pool.For over a span wide enough to be
// dispatched to every worker: the cost of a fork and a join.
func barrierProbe(n, workers, reps int) float64 {
	pool := par.New(workers)
	const calls = 200
	return timeReps(reps, func(int) {
		for c := 0; c < calls; c++ {
			pool.For(n, func(lo, hi int) {})
		}
	}) / calls * 1e9
}

// kernelProbe times the three width-grouped inner loops per element on
// columns of n values: the move pass over whole columns, the
// relative-speed sweep and the collision exchange over cell-sized spans
// of adjacent pairs.
func kernelProbe(n, cells, reps int) (advanceNs, relSpeedNs, exchangeNs float64) {
	r := rng.NewStream(2)
	col := func() []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = r.Normal()
		}
		return c
	}
	x, y, u, v, w, r1, r2 := col(), col(), col(), col(), col(), col(), col()
	advanceNs = timeReps(reps, func(int) { kernel.Advance2(x, y, u, v) }) / float64(n) * 1e9

	span := n / cells // particles per cell
	pairs := span / 2
	g := make([]float64, pairs)
	relSpeedNs = timeReps(reps, func(int) {
		for a := 0; a+span <= n; a += span {
			kernel.PairRelSpeeds(u, v, w, a, pairs, g)
		}
	}) / float64(pairs*(n/span)) * 1e9

	table := rng.Perm5Table()
	exchangeNs = timeReps(reps, func(rep int) {
		for a := 0; a+1 < n; a += 2 {
			kernel.ExchangePair(u, v, w, r1, r2, a, a+1, table[(a/2+rep)%len(table)], uint32(a))
		}
	}) / float64(n/2) * 1e9
	return advanceNs, relSpeedNs, exchangeNs
}

// Bytes each kernel moves per element, computed from the column layout
// at float64 (cache misses not counted): Advance2 reads x, y, u, v and
// writes x, y; PairRelSpeeds reads u, v, w of two particles and writes
// one speed; ExchangePair reads and writes five columns of two particles.
const (
	advanceBytes  = 6 * 8
	relSpeedBytes = 2*3*8 + 8
	exchangeBytes = 2 * 2 * 5 * 8
)

// memCkpt is an in-memory dsmc.JobCheckpoint that counts its saves.
type memCkpt struct {
	mu    sync.Mutex
	data  []byte
	saves int
}

func (m *memCkpt) Load() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.data, nil
}

func (m *memCkpt) Save(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append(m.data[:0], data...)
	m.saves++
	return nil
}

func (m *memCkpt) Discard() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = nil
	return nil
}

// jobProbe runs one replica job of the cold sweep family through
// dsmc.RunSweepJob — no scheduler, no store — with a counting
// checkpoint, then times checkpoint encode and restore of a simulation
// of the same size, and a store put and verified get of the job's
// encoded output.
func jobProbe(e *env, m map[string]float64) error {
	spec, err := e.coldSpec(0)
	if err != nil {
		return err
	}
	ck := &memCkpt{}
	t0 := time.Now()
	out, err := dsmc.RunSweepJob(e.ctx, spec, 0, 0, dsmc.SweepJobIO{Checkpoint: ck})
	if err != nil {
		return fmt.Errorf("RunSweepJob: %w", err)
	}
	m["run.sweepjob_s"] = time.Since(t0).Seconds()
	m["ckpt.saves"] = float64(ck.saves)

	sc := dsmc.PaperWedgeTunnel()
	sc.ParticlesPerCell = e.sz.sweepPerCell
	sc.Workers = 1
	sc.Seed = e.seed
	sim, err := dsmc.NewSimulation(sc)
	if err != nil {
		return err
	}
	sim.Run(e.sz.ckptEvery)
	var buf bytes.Buffer
	var ckErr error
	m["ckpt.encode_s"] = timeReps(e.sz.probeReps, func(int) {
		buf.Reset()
		if err := sim.Checkpoint(&buf); err != nil {
			ckErr = err
		}
	})
	m["ckpt.bytes"] = float64(buf.Len())
	m["ckpt.restore_s"] = timeReps(e.sz.probeReps, func(int) {
		if _, err := dsmc.RestoreSimulation(sc, bytes.NewReader(buf.Bytes())); err != nil {
			ckErr = err
		}
	})
	if ckErr != nil {
		return fmt.Errorf("checkpoint probe: %w", ckErr)
	}

	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	so := &store.Output{Fields: out.Fields, ShockAngleDeg: out.ShockAngleDeg, Collisions: out.Collisions, NFlow: out.NFlow}
	var size int
	var stErr error
	m["store.put_s"] = timeReps(e.sz.probeReps, func(rep int) {
		so.Collisions = out.Collisions + int64(rep) // distinct content, so every put writes an object
		data := store.EncodeOutput(so)
		size = len(data)
		if _, err := st.Put(fmt.Sprintf("out-probe-%d", rep), data); err != nil {
			stErr = err
		}
	})
	m["store.put_bytes"] = float64(size)
	m["store.get_s"] = timeReps(e.sz.probeReps, func(rep int) {
		data, _, ok := st.Get(fmt.Sprintf("out-probe-%d", rep))
		if !ok {
			stErr = fmt.Errorf("store probe: key %d missing", rep)
			return
		}
		if _, err := store.DecodeOutput(data); err != nil {
			stErr = err
		}
	})
	return stErr
}

// wedgeProbes runs on the live one-worker wedge simulation after its
// windows: what sampling adds to a step, and what the metrics registry
// costs the step loop, both from interleaved windows.
func wedgeProbes(w *wedgeInst, m map[string]float64) {
	steps, reps := w.e.sz.windowSteps, w.e.sz.probeReps
	window := func(f func()) float64 {
		n0 := w.sim.NFlow()
		t0 := time.Now()
		f()
		return time.Since(t0).Seconds() * 1e6 / (float64(steps) * float64(n0+w.sim.NFlow()) / 2)
	}
	var plain, sampled, on, off []float64
	for r := 0; r < reps; r++ {
		plain = append(plain, window(func() { w.sim.Run(steps) }))
		sampled = append(sampled, window(func() { w.sim.Sample(steps) }))
	}
	m["dsmc.sample_extra_us"] = p10(sampled) - p10(plain)
	defer obs.SetEnabled(obs.Enabled())
	for r := 0; r < reps; r++ {
		obs.SetEnabled(false)
		off = append(off, window(func() { w.sim.Run(steps) }))
		obs.SetEnabled(true)
		on = append(on, window(func() { w.sim.Run(steps) }))
	}
	m["obs.overhead_ratio"] = p10(on) / p10(off)
}

// layerProbes runs the probes that need no live instance. n and cells
// are the paper-scale flow's particle and cell counts.
func layerProbes(e *env, n, cells int, m map[string]float64) error {
	workers := parallelWorkers(e.nproc)
	reps := e.sz.probeReps
	p1, s1, h1 := parProbe(n, cells, 1, reps)
	pn, sn, hn := parProbe(n, cells, workers, reps)
	m["par.plan_w1_ns"], m["par.scatter_w1_ns"], m["par.shuffle_w1_ns"] = p1, s1, h1
	m["par.plan_wn_ns"], m["par.scatter_wn_ns"], m["par.shuffle_wn_ns"] = pn, sn, hn
	m["par.efficiency_wn"] = (p1 + s1 + h1) / (float64(workers) * (pn + sn + hn))
	m["par.barrier_ns"] = barrierProbe(n, workers, reps)
	debug.FreeOSMemory()

	m["kernel.advance2_ns"], m["kernel.pairrelspeeds_ns"], m["kernel.exchangepair_ns"] = kernelProbe(n, cells, reps)
	m["kernel.advance2_bytes"] = advanceBytes
	m["kernel.pairrelspeeds_bytes"] = relSpeedBytes
	m["kernel.exchangepair_bytes"] = exchangeBytes
	debug.FreeOSMemory()

	return jobProbe(e, m)
}
