//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dsmc"
)

// sweepSpec is sweep number i of a run's seed: the paper wedge at
// sweepPerCell particles per cell (cache-resident), a rarefied and a
// near-continuum point — at mean free path 0 every candidate pair
// collides — two replicas each, three sampled quantities. Every i has
// its own master seed, so no two sweeps of a run share a store key and
// each is computed cold wherever it is first submitted. warm and sample
// are the step counts. The spec leaves the checkpoint and store
// directories to its executor.
func (e *env) sweepSpec(i, warm, sample int) (dsmc.SweepSpec, error) {
	sc := dsmc.PaperWedgeTunnel()
	sc.ParticlesPerCell = e.sz.sweepPerCell
	sc.Seed = e.seed*1_000_003 + uint64(i)
	ss, err := dsmc.NewScenarioSpec(sc)
	if err != nil {
		return dsmc.SweepSpec{}, err
	}
	collideAll := 0.0
	return dsmc.SweepSpec{
		Name:            fmt.Sprintf("bench-%d", i),
		Scenario:        ss,
		Quantities:      []dsmc.Quantity{dsmc.Density, dsmc.Temperature, dsmc.MachNumber},
		Points:          []dsmc.SweepPoint{{Name: "rarefied"}, {Name: "near-continuum", MeanFreePath: &collideAll}},
		Replicas:        2,
		WarmSteps:       warm,
		SampleSteps:     sample,
		Pool:            e.nproc,
		CheckpointEvery: e.sz.ckptEvery,
	}, nil
}

// coldSpec is the spec family of both cold sweep workloads: index 0
// primes a set-up, 1.. are the measured ops.
func (e *env) coldSpec(i int) (dsmc.SweepSpec, error) {
	return e.sweepSpec(i, e.sz.sweepWarm, e.sz.sweepSample)
}

// resultJSON frames a sweep result exactly as dsmcd's /result does, so
// an in-process result and a served body can be compared byte for byte.
func resultJSON(res *dsmc.SweepResult) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkShape is the per-op answer check of an in-process sweep: every
// point aggregated over every replica, every requested field present at
// the grid's size.
func checkShape(spec dsmc.SweepSpec, res *dsmc.SweepResult) error {
	if len(res.Points) != len(spec.Points) {
		return fmt.Errorf("%d points in the result, %d in the spec", len(res.Points), len(spec.Points))
	}
	for _, p := range res.Points {
		if p.Replicas != spec.Replicas {
			return fmt.Errorf("point %s aggregates %d replicas, want %d", p.Name, p.Replicas, spec.Replicas)
		}
		for _, q := range spec.Quantities {
			if fs := p.Fields[q]; len(fs.Mean) == 0 || len(fs.Mean) != fs.NX*fs.NY {
				return fmt.Errorf("point %s: field %s has %d cells for a %dx%d grid", p.Name, q, len(fs.Mean), fs.NX, fs.NY)
			}
		}
	}
	return nil
}

// inprocInst runs sweeps through dsmc.RunSweep in the harness process,
// against one checkpoint tree and one result store.
type inprocInst struct {
	e     *env
	dir   string
	first []byte     // op 0's framed result, for the gate
	rows  []sweepRow // traced ops
}

// sweepRow is what a traced in-process sweep's events say about the
// scheduler: how long jobs ran, waited for a pool slot, and aggregated.
type sweepRow struct {
	wall, busy, slotWait, aggregate float64
	jobs                            int
}

func setupInproc(e *env, tr *tracer) (instance, error) {
	dir, err := os.MkdirTemp(e.scratch, "inproc-")
	if err != nil {
		return nil, err
	}
	s := &inprocInst{e: e, dir: dir}
	if _, _, err := s.sweep(0, nil); err != nil { // priming sweep: code paths and heap warm
		return nil, err
	}
	return s, nil
}

// sweep runs cold spec i and frames the result the way the op's client
// would consume it.
func (s *inprocInst) sweep(i int, tr *tracer) (wall float64, body []byte, err error) {
	spec, err := s.e.coldSpec(i)
	if err != nil {
		return 0, nil, err
	}
	spec.CheckpointDir = filepath.Join(s.dir, fmt.Sprintf("ckpt-%d", i))
	spec.ResultStoreDir = filepath.Join(s.dir, "store")

	root := tr.begin(-1, "bench", "sweep")
	call := tr.begin(root, "dsmc", "RunSweep")
	var onEvent func(dsmc.SweepEvent)
	var row sweepRow
	if tr != nil {
		// Job spans come from the events internal/run already emits;
		// deliveries are serialized, the mutex is for the race detector.
		var mu sync.Mutex
		open := map[string]int{}
		start := time.Now()
		onEvent = func(ev dsmc.SweepEvent) {
			mu.Lock()
			defer mu.Unlock()
			now := time.Now()
			isAgg := strings.HasSuffix(ev.Job, dsmc.AggregateJobID(""))
			switch ev.Type {
			case "job-started":
				name := "job"
				if isAgg {
					name = "aggregate"
				} else {
					row.slotWait += now.Sub(start).Seconds()
					row.jobs++
				}
				open[ev.Job] = tr.add(call, "run", name, now, time.Time{})
			case "job-done":
				id, ok := open[ev.Job]
				if !ok {
					return
				}
				tr.end(id)
				if d := tr.seconds(id); isAgg {
					row.aggregate += d
				} else {
					row.busy += d
				}
			}
		}
	}
	t0 := time.Now()
	res, err := dsmc.RunSweep(s.e.ctx, spec, onEvent)
	tr.end(call)
	if err != nil {
		tr.end(root)
		return 0, nil, err
	}
	enc := tr.begin(root, "bench", "json")
	body, err = json.Marshal(res)
	wall = time.Since(t0).Seconds()
	tr.end(enc)
	tr.end(root)
	if err != nil {
		return 0, nil, err
	}
	if tr != nil {
		row.wall = tr.seconds(call)
		s.rows = append(s.rows, row)
	}
	if err := checkShape(spec, res); err != nil {
		return 0, nil, err
	}
	if i == 1 && s.first == nil {
		if s.first, err = resultJSON(res); err != nil {
			return 0, nil, err
		}
	}
	return wall, body, nil
}

// op is one sweep with a master seed no earlier sweep used, from the
// RunSweep call through json.Marshal of the result.
func (s *inprocInst) op(i int, tr *tracer) (wall, scale float64, err error) {
	wall, _, err = s.sweep(i+1, tr)
	return wall, 1, err
}

func (s *inprocInst) pid() int { return 0 }

func (s *inprocInst) scrape() (map[string]float64, error) { return scrapeSelf() }

// check re-runs the first measured sweep against the store it populated:
// every job is now a verified store hit, and the memoized result must
// equal the computed one bit for bit.
func (s *inprocInst) check() error {
	spec, err := s.e.coldSpec(1)
	if err != nil {
		return err
	}
	spec.ResultStoreDir = filepath.Join(s.dir, "store")
	res, err := dsmc.RunSweep(s.e.ctx, spec, nil)
	if err != nil {
		return err
	}
	memo, err := resultJSON(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(memo, s.first) {
		return fmt.Errorf("memoized result of sweep 1 differs from the computed one (%d vs %d bytes)", len(memo), len(s.first))
	}
	return nil
}

func (s *inprocInst) close() error { return os.RemoveAll(s.dir) }
