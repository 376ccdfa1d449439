// Command bench runs the key step benchmarks outside `go test` and
// writes a machine-readable record of the performance trajectory
// (BENCH_PR10.json): wall-clock µs/particle/step for the paper's
// near-continuum and rarefied cases, a float32-vs-float64 precision
// sweep over the engine backends, the worker sweep at paper scale, a
// metrics-on/off pair quantifying the observability layer's overhead,
// an ensemble-throughput case (replica jobs/minute through the
// run-orchestration subsystem at outer pool sizes 1 and NumCPU), and a
// cold/warm sweep-memoization pair (the same sweep re-run against a
// populated result store, recording the memo speedup), optionally
// compared against a previously recorded baseline file.
// Every step case also records its per-phase wall-time breakdown
// (move+boundary/sort/select/collide), the same numbers the /metrics
// phase histograms and the flight recorder expose at runtime. The
// -cpuprofile/-memprofile flags capture pprof profiles of the run. The
// record also flags whether the host is multi-core, so scaling numbers
// from single-core CI hosts are not mistaken for the real worker-scaling
// trajectory.
//
//	go run ./cmd/bench -out BENCH_PR10.json -baseline BENCH_PR9.json
//	go run ./cmd/bench -quick -out /tmp/smoke.json   # CI smoke: few steps, still all cases
//
// A -quick run is a different measurement, not a comparable record: it
// refuses to write a file named like the trajectory's, BENCH_PR*.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dsmc"
	"dsmc/internal/obs"
	"dsmc/internal/par"
)

// Record is the schema of a bench output file. Case names are stable
// across PRs so later runs can be diffed against earlier files.
type Record struct {
	Name          string `json:"name"`
	GeneratedUnix int64  `json:"generated_unix"`
	Go            string `json:"go"`
	CPUs          int    `json:"cpus"`
	// MultiCore records whether worker-sweep cases could actually run
	// concurrently on this host; on a single-core machine the sweep
	// measures dispatch overhead, not scaling.
	MultiCore     bool `json:"multi_core"`
	WarmSteps     int  `json:"warm_steps"`
	MeasuredSteps int  `json:"measured_steps"`
	// Repeat is the measurement-window count per case; the recorded
	// time is the fastest window (robust against host noise).
	Repeat int    `json:"repeat"`
	Cases  []Case `json:"cases"`
}

// Case is one benchmark configuration's measurement.
type Case struct {
	Name string `json:"name"`
	// Precision is the storage precision of the engine backends
	// ("float64" unless the case name carries a /f32 suffix).
	Precision string `json:"precision,omitempty"`
	Workers   int    `json:"workers"`
	Particles int    `json:"particles"`
	// Step-benchmark cases; zero (omitted) on ensemble-throughput cases.
	NsPerStep         float64 `json:"ns_per_step,omitempty"`
	UsPerParticleStep float64 `json:"us_per_particle_step,omitempty"`
	// Set when -baseline names a file containing the same case.
	BaselineUsPerParticleStep float64 `json:"baseline_us_per_particle_step,omitempty"`
	SpeedupVsBaseline         float64 `json:"speedup_vs_baseline,omitempty"`
	// Set on /f32 cases whose float64 twin is in the same record:
	// float64 µs/particle/step divided by this case's.
	SpeedupVsFloat64 float64 `json:"speedup_vs_float64,omitempty"`
	// Ensemble-throughput cases: completed replica jobs and the rate.
	// On a single-core host (multi_core: false) the pool sizes measure
	// scheduling overhead, not outer-level scaling.
	Jobs          int     `json:"jobs,omitempty"`
	JobsPerMinute float64 `json:"jobs_per_minute,omitempty"`
	// MemoSpeedup is set on the sweep-memo/warm case: the cold run's
	// wall time divided by the warm (store-served) run's.
	MemoSpeedup float64 `json:"memo_speedup,omitempty"`
	// PhaseSeconds is the per-phase wall-time breakdown of the case's
	// measured windows (cumulative over all Repeat windows) — the same
	// move+boundary/sort/select/collide split the /metrics phase
	// histograms record per step.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// Metrics marks the metrics-overhead pair: "on" ran with the obs
	// record paths live, "off" with them gated out.
	Metrics string `json:"metrics,omitempty"`
}

type stepper interface {
	Run(n int)
	NFlow() int
	PhaseSeconds() map[string]float64
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output JSON path")
	baseline := flag.String("baseline", "", "earlier bench JSON to compute speedups against")
	warm := flag.Int("warm", 30, "warm-up steps per case (past the initial transient)")
	steps := flag.Int("steps", 40, "measured steps per case")
	sweepPerCell := flag.Float64("sweep-percell", 75, "particles/cell of the worker sweep (75 = paper scale)")
	workersList := flag.String("workers", "", "comma-separated worker counts for the sweep cases (default: 1,2,4,NumCPU clipped to the host; explicit lists may oversubscribe — see multi_core)")
	repeat := flag.Int("repeat", 1, "measurement windows per case; the fastest is recorded (use 3+ on noisy hosts)")
	quick := flag.Bool("quick", false, "CI smoke mode: 3 warm-up and 3 measured steps (unless -warm/-steps are given explicitly)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after all cases) to this file")
	flag.Parse()
	if *quick && isTrajectoryRecord(*out) {
		fmt.Fprintf(os.Stderr, "bench: refusing to write %s from -quick: a 3-step smoke is not comparable with the full BENCH_PR*.json records; give -out another name or drop -quick\n", *out)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("bench: -cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("bench: -cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("bench: -memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("bench: -memprofile: %v", err)
		}
	}()
	if *quick {
		warmSet, stepsSet := false, false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "warm":
				warmSet = true
			case "steps":
				stepsSet = true
			}
		})
		if !warmSet {
			*warm = 3
		}
		if !stepsSet {
			*steps = 3
		}
	}

	rec := Record{
		Name:          "dsmc step benchmarks",
		GeneratedUnix: time.Now().Unix(),
		Go:            runtime.Version(),
		CPUs:          runtime.NumCPU(),
		MultiCore:     runtime.NumCPU() > 1,
		WarmSteps:     *warm,
		MeasuredSteps: *steps,
		Repeat:        *repeat,
	}

	wedge := func(lambda, perCell float64, workers int, prec dsmc.Precision) stepper {
		cfg := dsmc.PaperConfig()
		cfg.MeanFreePath = lambda
		cfg.ParticlesPerCell = perCell
		cfg.Workers = workers
		cfg.Seed = 1988
		cfg.Precision = prec
		s, err := dsmc.NewSimulation(cfg)
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		return s
	}
	tube3 := func(workers int, prec dsmc.Precision) stepper {
		s, err := dsmc.NewSimulation(dsmc.ShockTube3D{
			GridNX: 160, GridNY: 16, GridNZ: 16,
			ThermalSpeed: 0.125, PistonSpeed: 0.131, ParticlesPerCell: 12,
			Seed: 3, Workers: workers, Precision: prec,
		})
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		return s
	}
	sweep := par.SweepWorkers()
	if *workersList != "" {
		sweep = nil
		for _, f := range strings.Split(*workersList, ",") {
			var w int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &w); err != nil || w < 1 {
				log.Fatalf("bench: -workers: bad worker count %q", f)
			}
			sweep = append(sweep, w)
		}
	}

	// Established cases (names stable since PR 1/2 for baseline diffing;
	// all float64).
	rec.add("fig1-near-continuum", dsmc.Float64, 0, *warm, *steps, wedge(0, 8, 0, dsmc.Float64))
	rec.addPair("fig4-rarefied", 0, *warm, *steps,
		wedge(0.5, 8, 0, dsmc.Float64), wedge(0.5, 8, 0, dsmc.Float32))
	rec.add("cray-surrogate-1worker", dsmc.Float64, 1, *warm, *steps, wedge(0.5, 8, 1, dsmc.Float64))
	for _, w := range sweep {
		rec.add(fmt.Sprintf("step-worker-sweep/workers-%d", w), dsmc.Float64, w,
			*warm, *steps, wedge(0.5, *sweepPerCell, w, dsmc.Float64))
	}
	for _, w := range sweep {
		rec.add(fmt.Sprintf("shocktube3d/workers-%d", w), dsmc.Float64, w, *warm, *steps, tube3(w, dsmc.Float64))
	}

	// Precision sweep: the same configurations instantiated at both
	// precisions and measured with interleaved windows (addPair), so host
	// drift cannot masquerade as a precision effect. The paper-scale
	// rarefied wedge is the headline case — its cell-major sweeps are
	// memory-bound, exactly where halving the column width should pay.
	rec.addPair("fig4-rarefied-paperscale", 1, *warm, *steps,
		wedge(0.5, *sweepPerCell, 1, dsmc.Float64), wedge(0.5, *sweepPerCell, 1, dsmc.Float32))
	rec.addPair("shocktube3d-1worker", 1, *warm, *steps,
		tube3(1, dsmc.Float64), tube3(1, dsmc.Float32))

	rec.precisionSpeedups()

	// Observability overhead: the paper-scale rarefied wedge with the
	// metrics record paths on vs gated off, interleaved windows.
	rec.addMetricsPair("metrics-overhead", 1, *warm, *steps,
		wedge(0.5, *sweepPerCell, 1, dsmc.Float64))

	// Ensemble throughput: whole-simulation replica jobs scheduled by the
	// run-orchestration subsystem, at outer pool sizes 1 and NumCPU. This
	// is the outer level of parallelism — it scales with cores even where
	// the inner worker sharding is bandwidth-bound (each job runs with
	// Workers=1 under orchestration).
	rec.addEnsemble("ensemble-throughput/pool-1", 1, *warm, *steps)
	if n := runtime.NumCPU(); n > 1 {
		rec.addEnsemble(fmt.Sprintf("ensemble-throughput/pool-%d", n), n, *warm, *steps)
	}

	// Sweep memoization: the ensemble sweep once against an empty result
	// store (cold: computes and publishes) and once more against the
	// populated store (warm: every replica and aggregate served from
	// artifacts). The warm case records the cold/warm wall-time ratio.
	rec.addMemoPair("sweep-memo", *warm, *steps)

	if *baseline != "" {
		if err := rec.compare(*baseline); err != nil {
			log.Fatalf("bench: baseline %s: %v", *baseline, err)
		}
	}

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d cases)\n", *out, len(rec.Cases))
}

// add warms a simulation up, times Repeat windows of `steps` further
// steps, and appends the fastest window's measurement. prec is the
// precision the case was actually constructed with (recorded verbatim,
// not derived from the name).
func (rec *Record) add(name string, prec dsmc.Precision, workers, warm, steps int, s stepper) {
	s.Run(warm)
	reps := rec.Repeat
	if reps < 1 {
		reps = 1
	}
	p0 := s.PhaseSeconds()
	var best time.Duration
	for k := 0; k < reps; k++ {
		best = fasterOf(best, k, timeWindow(s, steps))
	}
	rec.append(name, prec, workers, s.NFlow(), float64(best.Nanoseconds())/float64(steps))
	rec.Cases[len(rec.Cases)-1].PhaseSeconds = phaseDelta(p0, s.PhaseSeconds())
}

// phaseDelta subtracts two cumulative phase-time snapshots, yielding
// the breakdown of just the windows between them.
func phaseDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// timeWindow is the one measurement primitive: the wall time of `steps`
// further steps. Both add and addPair build on it so the timing protocol
// cannot drift between plain and paired cases.
func timeWindow(s stepper, steps int) time.Duration {
	t0 := time.Now()
	s.Run(steps)
	return time.Since(t0)
}

// fasterOf keeps the running best window (window index 0 seeds it).
func fasterOf(best time.Duration, k int, d time.Duration) time.Duration {
	if k == 0 || d < best {
		return d
	}
	return best
}

// append records one measured case.
func (rec *Record) append(name string, prec dsmc.Precision, workers, particles int, nsPerStep float64) {
	c := Case{
		Name:              name,
		Precision:         string(prec),
		Workers:           workers,
		Particles:         particles,
		NsPerStep:         nsPerStep,
		UsPerParticleStep: nsPerStep / 1000 / float64(particles),
	}
	rec.Cases = append(rec.Cases, c)
	fmt.Printf("%-34s %9d particles  %10.0f ns/step  %.4f us/particle/step\n",
		name, c.Particles, c.NsPerStep, c.UsPerParticleStep)
}

// addEnsemble measures the run-orchestration subsystem's job throughput:
// six replica jobs of the rarefied wedge (each warm+steps long) through
// dsmc.RunSweep at the given pool size, recorded as jobs/minute. The
// Workers column records the pool size for these cases.
func (rec *Record) addEnsemble(name string, pool, warm, steps int) {
	const replicas = 6
	cfg := dsmc.PaperConfig()
	cfg.MeanFreePath = 0.5
	cfg.ParticlesPerCell = 8
	cfg.Seed = 1988
	t0 := time.Now()
	res, err := dsmc.RunSweep(context.Background(), dsmc.SweepSpec{
		Name:        "bench-ensemble",
		Base:        cfg,
		Replicas:    replicas,
		WarmSteps:   warm,
		SampleSteps: steps,
		Pool:        pool,
	}, nil)
	if err != nil {
		log.Fatalf("bench: %v", err)
	}
	dt := time.Since(t0)
	c := Case{
		Name:          name,
		Precision:     string(dsmc.Float64),
		Workers:       pool,
		Particles:     int(res.Points[0].NFlow.Mean),
		Jobs:          replicas,
		JobsPerMinute: float64(replicas) / dt.Minutes(),
	}
	rec.Cases = append(rec.Cases, c)
	fmt.Printf("%-34s %9d particles  %6d jobs in %8s  %.2f jobs/min\n",
		name, c.Particles, replicas, dt.Round(time.Millisecond), c.JobsPerMinute)
}

// addMemoPair measures sweep memoization: the ensemble sweep runs once
// against an empty result store (cold — every replica computed and
// published) and once more against the populated store (warm — every
// replica and aggregate served from artifacts). The warm case records
// the cold/warm wall-time ratio as MemoSpeedup.
func (rec *Record) addMemoPair(name string, warm, steps int) {
	const replicas = 6
	dir, err := os.MkdirTemp("", "dsmc-bench-store-")
	if err != nil {
		log.Fatalf("bench: %v", err)
	}
	defer os.RemoveAll(dir)
	cfg := dsmc.PaperConfig()
	cfg.MeanFreePath = 0.5
	cfg.ParticlesPerCell = 8
	cfg.Seed = 1988
	spec := dsmc.SweepSpec{
		Name:           "bench-memo",
		Base:           cfg,
		Replicas:       replicas,
		WarmSteps:      warm,
		SampleSteps:    steps,
		Pool:           1,
		ResultStoreDir: dir,
	}
	var dts [2]time.Duration
	for i, phase := range [2]string{"cold", "warm"} {
		t0 := time.Now()
		res, err := dsmc.RunSweep(context.Background(), spec, nil)
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		dts[i] = time.Since(t0)
		c := Case{
			Name:          name + "/" + phase,
			Precision:     string(dsmc.Float64),
			Workers:       1,
			Particles:     int(res.Points[0].NFlow.Mean),
			Jobs:          replicas,
			JobsPerMinute: float64(replicas) / dts[i].Minutes(),
		}
		if i == 1 && dts[1] > 0 {
			c.MemoSpeedup = float64(dts[0]) / float64(dts[1])
		}
		rec.Cases = append(rec.Cases, c)
		fmt.Printf("%-34s %9d particles  %6d jobs in %8s  %.2f jobs/min\n",
			c.Name, c.Particles, replicas, dts[i].Round(time.Millisecond), c.JobsPerMinute)
	}
	fmt.Printf("%-34s memo speedup warm vs cold: %.2fx\n",
		name, rec.Cases[len(rec.Cases)-1].MemoSpeedup)
}

// precisionSpeedups fills SpeedupVsFloat64 on every /f32 case whose
// float64 twin (same name without the suffix) is in the record.
func (rec *Record) precisionSpeedups() {
	byName := make(map[string]Case, len(rec.Cases))
	for _, c := range rec.Cases {
		byName[c.Name] = c
	}
	for i := range rec.Cases {
		if rec.Cases[i].Precision != string(dsmc.Float32) {
			continue
		}
		base, ok := byName[strings.TrimSuffix(rec.Cases[i].Name, "/f32")]
		if !ok || base.Precision != string(dsmc.Float64) || base.UsPerParticleStep <= 0 {
			continue
		}
		rec.Cases[i].SpeedupVsFloat64 = base.UsPerParticleStep / rec.Cases[i].UsPerParticleStep
		fmt.Printf("%-34s float32 speedup vs float64: %.2fx\n",
			rec.Cases[i].Name, rec.Cases[i].SpeedupVsFloat64)
	}
}

// addPair measures a float64/float32 twin of one configuration with
// interleaved windows — f64, f32, f64, f32, … — so slow host drift hits
// both precisions equally and the recorded ratio reflects the code, not
// the minute the case happened to run. The float64 case keeps the bare
// name (stable for baseline diffing); the float32 case gets the /f32
// suffix.
func (rec *Record) addPair(name string, workers, warm, steps int, s64, s32 stepper) {
	s64.Run(warm)
	s32.Run(warm)
	reps := rec.Repeat
	if reps < 1 {
		reps = 1
	}
	p64, p32 := s64.PhaseSeconds(), s32.PhaseSeconds()
	var best64, best32 time.Duration
	for k := 0; k < reps; k++ {
		best64 = fasterOf(best64, k, timeWindow(s64, steps))
		best32 = fasterOf(best32, k, timeWindow(s32, steps))
	}
	rec.append(name, dsmc.Float64, workers, s64.NFlow(), float64(best64.Nanoseconds())/float64(steps))
	rec.Cases[len(rec.Cases)-1].PhaseSeconds = phaseDelta(p64, s64.PhaseSeconds())
	rec.append(name+"/f32", dsmc.Float32, workers, s32.NFlow(), float64(best32.Nanoseconds())/float64(steps))
	rec.Cases[len(rec.Cases)-1].PhaseSeconds = phaseDelta(p32, s32.PhaseSeconds())
}

// addMetricsPair measures the observability layer's overhead with the
// same interleaved-window protocol as the precision pairs: one
// simulation alternates metrics-on and metrics-off windows — on, off,
// on, off, … — so slow host drift hits both modes equally and the
// recorded difference reflects the record-path atomics, not the minute
// each mode happened to run. The expectation pinned by the design (a
// handful of atomic ops per step against millions of particle updates)
// is that the pair lands within host noise of each other.
func (rec *Record) addMetricsPair(name string, workers, warm, steps int, s stepper) {
	s.Run(warm)
	reps := rec.Repeat
	if reps < 1 {
		reps = 1
	}
	defer obs.SetEnabled(true)
	var bestOn, bestOff time.Duration
	for k := 0; k < reps; k++ {
		obs.SetEnabled(true)
		bestOn = fasterOf(bestOn, k, timeWindow(s, steps))
		obs.SetEnabled(false)
		bestOff = fasterOf(bestOff, k, timeWindow(s, steps))
	}
	rec.append(name+"/on", dsmc.Float64, workers, s.NFlow(), float64(bestOn.Nanoseconds())/float64(steps))
	rec.Cases[len(rec.Cases)-1].Metrics = "on"
	rec.append(name+"/off", dsmc.Float64, workers, s.NFlow(), float64(bestOff.Nanoseconds())/float64(steps))
	rec.Cases[len(rec.Cases)-1].Metrics = "off"
	fmt.Printf("%-34s metrics overhead: %+.2f%%\n", name,
		(float64(bestOn.Nanoseconds())/float64(bestOff.Nanoseconds())-1)*100)
}

// compare fills the baseline fields of every case whose name appears in
// the baseline record file.
func (rec *Record) compare(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Record
	if err := json.Unmarshal(buf, &base); err != nil {
		return err
	}
	byName := make(map[string]Case, len(base.Cases))
	for _, c := range base.Cases {
		byName[c.Name] = c
	}
	for i := range rec.Cases {
		b, ok := byName[rec.Cases[i].Name]
		if !ok || b.UsPerParticleStep <= 0 {
			continue
		}
		rec.Cases[i].BaselineUsPerParticleStep = b.UsPerParticleStep
		rec.Cases[i].SpeedupVsBaseline = b.UsPerParticleStep / rec.Cases[i].UsPerParticleStep
		fmt.Printf("%-34s speedup vs baseline: %.2fx\n",
			rec.Cases[i].Name, rec.Cases[i].SpeedupVsBaseline)
	}
	return nil
}

// isTrajectoryRecord reports whether path is named like a BENCH_PR record.
func isTrajectoryRecord(path string) bool {
	ok, _ := filepath.Match("BENCH_PR*.json", filepath.Base(path))
	return ok
}
