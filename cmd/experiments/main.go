// Command experiments regenerates every table and figure of the paper's
// evaluation at a configurable scale and writes the artefacts (density
// fields, series, breakdowns) to an output directory:
//
//	fig1   near-continuum density contours (shock angle 45°, ratio 3.7,
//	       thickness ≈ 3 cells)
//	fig2   near-continuum density surface (wake shock present)
//	fig3   near-continuum stagnation-region surface
//	fig4   rarefied density contours (λ∞ = 0.5, thickness ≈ 5 cells)
//	fig5   rarefied density surface (wake shock washed out)
//	fig6   rarefied stagnation-region surface
//	fig7   per-particle time vs total particles (fixed machine)
//	phases distribution of computational time over the four sub-steps
//	compare  CM backend vs sequential reference per-particle time
//	scaling  reference-backend worker sweep (1/2/4/N cores)
//
// Beyond the paper's evaluation (not part of "all"; run them explicitly),
// two demonstrations of the paper's building blocks, which take no scale
// flag but -seed:
//
//	relax   the paper's selection scheme against Bird's time counter,
//	        Nanbu's and Ploss's on the rectangular -> Gaussian
//	        relaxation (kurtosis 1.8 -> 3.0), then the reservoir doing
//	        that same relaxation with otherwise idle processors
//	cmdemo  the Connection Machine substrate on a 32-particle toy:
//	        virtual processors, rank sort, segmented scans, cost model
//
// and one ensemble run through the run subsystem:
//
//	sweep   the rarefaction parameter swept: -replicas independent
//	        replicas per point, scheduled as a job DAG over -jobpool
//	        concurrent simulations, aggregated into mean ± CI (writes
//	        sweep.json); with -ckpt it checkpoints and resumes there
//
// Run all paper experiments with defaults (a few minutes):
//
//	experiments -out results
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dsmc"
	"dsmc/internal/cm"
	"dsmc/internal/cmsim"
	"dsmc/internal/par"
	"dsmc/internal/report"
	"dsmc/internal/sim"
)

type harness struct {
	perCell  float64
	steps    int
	avg      int
	procs    int
	workers  int
	seed     uint64
	outDir   string
	replicas int
	jobpool  int
	ckptDir  string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var h harness
	exp := flag.String("exp", "all", "experiment: all|fig1|fig2|fig3|fig4|fig5|fig6|fig7|phases|compare|scaling|relax|cmdemo|sweep")
	flag.Float64Var(&h.perCell, "percell", 8, "particles per cell (75 = paper scale)")
	flag.IntVar(&h.steps, "steps", 600, "steps to steady state (paper: 1200)")
	flag.IntVar(&h.avg, "avg", 300, "averaging steps (paper: 2000)")
	flag.IntVar(&h.procs, "procs", 32768, "physical processors for the CM backend (paper: 32k)")
	flag.IntVar(&h.workers, "workers", 0, "reference-backend CPU workers (0 = NumCPU)")
	flag.Uint64Var(&h.seed, "seed", 1988, "random seed")
	flag.StringVar(&h.outDir, "out", "results", "output directory")
	flag.IntVar(&h.replicas, "replicas", 4, "replicas per point of -exp sweep")
	flag.IntVar(&h.jobpool, "jobpool", 0, "concurrent simulations of the sweep scheduler (0 = NumCPU)")
	flag.StringVar(&h.ckptDir, "ckpt", "", "sweep checkpoint directory: -exp sweep checkpoints there and resumes over it (empty = no checkpoints)")
	flag.Parse()

	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	run := map[string]func() error{
		"fig1":    func() error { return h.contourFigs(0) },
		"fig4":    func() error { return h.contourFigs(0.5) },
		"fig7":    h.fig7,
		"phases":  h.phases,
		"compare": h.compare,
		"scaling": h.scaling,
		"relax":   h.relax,
		"cmdemo":  cmdemo,
		"sweep":   h.sweep,
	}
	// figs 2/3 and 5/6 are produced by the same runs as 1 and 4.
	run["fig2"], run["fig3"] = run["fig1"], run["fig1"]
	run["fig5"], run["fig6"] = run["fig4"], run["fig4"]

	if *exp == "all" {
		for _, name := range []string{"fig1", "fig4", "fig7", "phases", "compare", "scaling"} {
			fmt.Printf("=== %s ===\n", name)
			if err := run[name](); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if err := f(); err != nil {
		log.Fatal(err)
	}
}

// contourFigs runs the wedge flow for one rarefaction setting and emits
// the contour figure, the surface figure and the stagnation window
// (figures 1–3 for λ=0, figures 4–6 for λ=0.5).
func (h *harness) contourFigs(lambda float64) error {
	tag := "nearcontinuum"
	if lambda > 0 {
		tag = "rarefied"
	}
	cfg := dsmc.PaperWedgeTunnel()
	cfg.ParticlesPerCell = h.perCell
	cfg.MeanFreePath = lambda
	cfg.Seed = h.seed
	cfg.Workers = h.workers
	s, err := dsmc.NewSimulation(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d flow particles, %d steps + %d averaging\n",
		tag, s.NFlow(), h.steps, h.avg)
	s.Run(h.steps)
	// One sampling pass; density and temperature are both derived from it.
	smp := s.Sample(h.avg)
	field := smp.MustField(dsmc.Density)
	tempField := smp.MustField(dsmc.Temperature)
	th := s.Theory()

	t := report.NewTable("Mach 4 / 30° wedge, "+tag, "quantity", "measured", "paper/theory")
	t.AddRow("shock angle (deg)", field.ShockAngleDeg(), th.ShockAngleDeg)
	t.AddRow("post-shock density ratio", field.PostShockMean(), th.DensityRatio)
	t.AddRow("post-shock temperature ratio", tempField.PostShockMean(), th.TemperatureRatio)
	paperThick := 3.0
	if lambda > 0 {
		paperThick = 5.0
	}
	t.AddRow("shock thickness (cells)", field.ShockThickness(), paperThick)
	t.AddRow("wake contrast (lower wall)", field.WakeContrast(), "present vs washed out")
	t.AddRow("wake recovery x (cells)", field.WakeRecoveryX(), "moves downstream when rarefied")
	t.AddRow("wake steepness (1/cell)", field.WakeSteepness(), "falls when rarefied")
	t.AddRow("wake base density", field.WakeBaseDensity(), "drops sharply when rarefied")
	t.AddRow("freestream density", field.FreestreamMean(), 1.0)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	// Contour figure (fig 1 / fig 4): CSV field + contour segment counts.
	if err := h.writeField(tag+"_density", field); err != nil {
		return err
	}
	if err := h.writeField(tag+"_temperature", tempField); err != nil {
		return err
	}
	var levels []float64
	for l := 1.25; l < th.DensityRatio; l += 0.5 {
		levels = append(levels, l)
	}
	var b strings.Builder
	for _, l := range levels {
		fmt.Fprintf(&b, "level %.2f: %d segments\n", l, len(field.Contours(l)))
	}
	if err := os.WriteFile(filepath.Join(h.outDir, tag+"_contours.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	// Surface figure (fig 2 / fig 5).
	if err := os.WriteFile(filepath.Join(h.outDir, tag+"_surface.txt"),
		[]byte(field.Surface(10)), 0o644); err != nil {
		return err
	}
	// Stagnation-region zoom (fig 3 / fig 6).
	zoom := field.Window(30, 0, 50, 20)
	if err := h.writeField(tag+"_stagnation", zoom); err != nil {
		return err
	}
	return nil
}

func (h *harness) writeField(name string, f *dsmc.Field) error {
	csvF, err := os.Create(filepath.Join(h.outDir, name+".csv"))
	if err != nil {
		return err
	}
	defer csvF.Close()
	if err := f.WriteCSV(csvF); err != nil {
		return err
	}
	pgmF, err := os.Create(filepath.Join(h.outDir, name+".pgm"))
	if err != nil {
		return err
	}
	defer pgmF.Close()
	return f.WritePGM(pgmF)
}

// fig7 sweeps the total particle count at fixed machine size, so the
// virtual processor ratio tracks the particle count (the paper's curve
// falls from ~10.5 to ~7.2 µs/particle/step between 32k and 512k
// particles, most of it from VP ratio 1 to 2, where collision pairs
// become on-processor — the router column).
func (h *harness) fig7() error {
	base := sim.DefaultConfig(1)
	base.Seed = h.seed
	freeVol := float64(base.NX*base.NY) - base.Wedge.Base*base.Wedge.Height()/2
	startPerCell := float64(h.procs) / freeVol / 1.1
	steps := 20
	table := report.NewTable(
		fmt.Sprintf("Figure 7 — fixed machine of %d processors", h.procs),
		"particles", "vp-ratio", "model-us/p/step", "wall-us/p/step", "router-msgs/p/step")
	var xs, ys []float64
	for k := 0; k < 5; k++ {
		cfg := base
		cfg.NPerCell = startPerCell * float64(int(1)<<uint(k))
		s, err := cmsim.New(cmsim.Config{Sim: cfg, PhysProcs: h.procs})
		if err != nil {
			return err
		}
		s.Run(steps)
		book := s.Machine().Cost()
		n := float64(s.NFlow())
		modelUs := cm.ModelSeconds(book.TotalCycles()) * 1e6 / n / float64(steps)
		wallUs := book.TotalWall().Seconds() * 1e6 / n / float64(steps)
		var router int64
		for _, ph := range book.Phases() {
			router += book.Phase(ph).RouterMsgs
		}
		table.AddRow(s.Machine().VPs(), s.Machine().VPR(), modelUs, wallUs,
			float64(router)/n/float64(steps))
		xs = append(xs, float64(s.Machine().VPs()))
		ys = append(ys, modelUs)
	}
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(h.outDir, "fig7.txt"))
	if err != nil {
		return err
	}
	defer out.Close()
	return report.Series(out, "Figure 7", "particles", "model-us/p/step", xs, ys)
}

// phases reports the distribution of computational time over the four
// sub-steps on the CM backend (paper: move 14%, sort 27%, select 20%,
// collide 39%).
func (h *harness) phases() error {
	cfg := sim.DefaultConfig(1)
	// The paper's breakdown is measured at full scale (VP ratio 16).
	cfg.NPerCell = 75
	cfg.Seed = h.seed
	s, err := cmsim.New(cmsim.Config{Sim: cfg, PhysProcs: h.procs})
	if err != nil {
		return err
	}
	s.Run(5)
	s.Machine().ResetCost()
	s.Run(30)
	book := s.Machine().Cost()
	parts := map[string]float64{}
	for _, name := range book.Phases() {
		if c := book.Phase(name).Cycles; c > 0 {
			parts[name] = float64(c)
		}
	}
	if err := report.Percentages(os.Stdout,
		"Distribution of computational time (CM cost model)", parts); err != nil {
		return err
	}
	fmt.Println("paper: collide 39%, sort 27%, select 20%, move+bc 14%")
	fmt.Println("note: the reference engine's own breakdown (PhaseSeconds, dsmc_engine_phase_seconds) books cell indexing under move+boundary, so against this table its move share reads about two points higher and its sort share as much lower")
	out, err := os.Create(filepath.Join(h.outDir, "phases.txt"))
	if err != nil {
		return err
	}
	defer out.Close()
	return report.Percentages(out, "phase cycle distribution", parts)
}

// compare measures per-particle wall time of the sequential reference
// (the Cray surrogate) against the CM backend's modelled and wall time.
func (h *harness) compare() error {
	steps := 60
	cfg := dsmc.PaperWedgeTunnel()
	// The headline comparison is quoted at full paper scale: 512k
	// particles on the 32k-processor machine (VP ratio 16).
	cfg.ParticlesPerCell = 75
	cfg.Seed = h.seed
	// The reference plays the paper's single-processor Cray-2 role here,
	// so it is pinned to one worker regardless of -workers (the multicore
	// reference is the scaling experiment's subject).
	cfg.Workers = 1

	ref, err := dsmc.NewSimulation(cfg)
	if err != nil {
		return err
	}
	ref.Run(steps)
	refUs := ref.MicrosecondsPerParticleStep()

	cmS, err := dsmc.NewConnectionMachine(cfg, h.procs)
	if err != nil {
		return err
	}
	cmS.Run(steps)
	cmWallUs := cmS.MicrosecondsPerParticleStep()
	var cmModelUs float64
	var totalCycles int64
	for _, c := range cmS.ModelPhaseCycles() {
		totalCycles += c
	}
	cmModelUs = cm.ModelSeconds(totalCycles) * 1e6 / float64(cmS.NFlow()) / float64(steps)

	t := report.NewTable("Per-particle time comparison (µs/particle/step)",
		"implementation", "measured", "paper")
	t.AddRow("sequential reference (Cray-2 role)", refUs, 0.5)
	t.AddRow("CM backend, wall clock", cmWallUs, "-")
	t.AddRow(fmt.Sprintf("CM cost model (%d procs; paper 32k)", h.procs), cmModelUs, 7.2)
	t.AddRow("model/reference ratio", cmModelUs/math.Max(refUs, 1e-9), 7.2/0.5)
	return t.Render(os.Stdout)
}

// scaling sweeps the reference backend's worker count (1, 2, 4, all
// cores) on the wedge flow and reports wall-clock per-particle time and
// the speedup over one worker. Every run computes the identical
// trajectory (counter-based per-cell streams), so the sweep isolates the
// sharding from any statistical variation.
func (h *harness) scaling() error {
	steps := 40
	ws := par.SweepWorkers()
	table := report.NewTable(
		fmt.Sprintf("Reference backend multicore scaling (%g particles/cell, %d steps)", h.perCell, steps),
		"workers", "us/particle/step", "speedup")
	var base float64
	var xs, ys []float64
	for _, w := range ws {
		cfg := dsmc.PaperWedgeTunnel()
		cfg.ParticlesPerCell = h.perCell
		cfg.Seed = h.seed
		cfg.Workers = w
		s, err := dsmc.NewSimulation(cfg)
		if err != nil {
			return err
		}
		s.Run(5) // warm-up past the initial transient
		t0 := time.Now()
		s.Run(steps)
		us := time.Since(t0).Seconds() * 1e6 / float64(s.NFlow()) / float64(steps)
		if w == 1 {
			base = us
		}
		table.AddRow(w, us, base/us)
		xs = append(xs, float64(w))
		ys = append(ys, us)
	}
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(h.outDir, "scaling.txt"))
	if err != nil {
		return err
	}
	defer out.Close()
	return report.Series(out, "Reference backend scaling", "workers", "us/particle/step", xs, ys)
}

// sweep runs the rarefaction ensemble sweep — the paper's two flow
// regimes as sweep points, -replicas independent replicas each — and
// reports per-point cross-replica statistics; checkpoints land in -ckpt
// when set.
func (h *harness) sweep() error {
	base := dsmc.PaperWedgeTunnel()
	base.ParticlesPerCell = h.perCell
	base.Seed = h.seed
	scenario, err := dsmc.NewScenarioSpec(base)
	if err != nil {
		return err
	}
	lam0, lam05 := 0.0, 0.5
	spec := dsmc.SweepSpec{
		Name:       "rarefaction-sweep",
		Scenario:   scenario,
		Quantities: []dsmc.Quantity{dsmc.Density, dsmc.Temperature, dsmc.MachNumber},
		Points: []dsmc.SweepPoint{
			{Name: "near-continuum", MeanFreePath: &lam0},
			{Name: "rarefied", MeanFreePath: &lam05},
		},
		Replicas:      h.replicas,
		WarmSteps:     h.steps,
		SampleSteps:   h.avg,
		Pool:          h.jobpool,
		CheckpointDir: h.ckptDir,
	}
	fmt.Printf("sweep: %d points x %d replicas, %d+%d steps each, pool %d\n",
		len(spec.Points), spec.Replicas, spec.WarmSteps, spec.SampleSteps, h.jobpool)
	var jobsDone int
	res, err := dsmc.RunSweep(context.Background(), spec, func(e dsmc.SweepEvent) {
		// Count replica jobs only; the per-point aggregate fan-in nodes
		// also emit job-done but are not simulations.
		if e.Type == "job-done" && !strings.HasSuffix(e.Job, "/aggregate") {
			jobsDone++
			fmt.Printf("  %-32s done (%d of %d jobs finished)\n",
				e.Job, jobsDone, len(spec.Points)*spec.Replicas)
		}
	})
	if err != nil {
		return err
	}
	t := report.NewTable("Rarefaction sweep, cross-replica aggregates",
		"point", "shock angle (deg)", "ci95", "replicas used", "freestream mean")
	for i := range res.Points {
		p := &res.Points[i]
		density, err := p.FieldFor(dsmc.Density)
		if err != nil {
			return err
		}
		t.AddRow(p.Name,
			p.ShockAngleDeg.Mean, p.ShockAngleDeg.CI95, p.ShockAngleDeg.N,
			density.FreestreamMean())
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(h.outDir, "sweep.json"))
	if err != nil {
		return err
	}
	err = dsmc.WriteSweepResult(f, res)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name()) // a result JSON cannot encode leaves no partial file
	}
	return err
}
