package dsmc

// Benchmarks with no counterpart in the gated harness (go run
// ./benchmark, which measures the Reference engine's step, phases,
// kernels and sweeps): the Connection Machine model, the 3D tube, the
// substrate primitives and the baseline schemes. The custom metrics are
// the quantities the paper reports: µs/particle/step, wall and
// cost-model. Run everything with:
//
//	go test -bench=. -benchmem
import (
	"testing"

	"dsmc/internal/baseline"
	"dsmc/internal/cm"
	"dsmc/internal/cmsim"
	"dsmc/internal/collide"
	"dsmc/internal/molec"
	"dsmc/internal/par"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

// benchConfig is the paper's rarefied case (λ∞ = 0.5 cells, seed 1988)
// at reduced particle density.
func benchConfig() WedgeTunnel2D {
	cfg := PaperWedgeTunnel()
	cfg.ParticlesPerCell = 8
	return cfg
}

// stepBench advances a simulation b.N steps and reports per-particle time.
func stepBench(b *testing.B, s *Simulation) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	perParticleNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(s.NFlow())
	b.ReportMetric(perParticleNs/1000, "us/particle/step")
}

// BenchmarkFig4RarefiedStepCM times the rarefied case of figures 4–6
// (λ∞ = 0.5 cells, Kn = 0.02) on the data-parallel fixed-point
// Connection Machine backend — the paper's implementation.
func BenchmarkFig4RarefiedStepCM(b *testing.B) {
	s, err := NewConnectionMachine(benchConfig(), 4096)
	if err != nil {
		b.Fatal(err)
	}
	s.Run(50)
	stepBench(b, s)
}

// BenchmarkFig7ParticleScaling reproduces Figure 7: fixed machine size,
// growing particle count (hence VP ratio); the reported model metric must
// fall as the sub-benchmark size grows.
func BenchmarkFig7ParticleScaling(b *testing.B) {
	const procs = 4096
	for _, mult := range []int{1, 2, 4, 8, 16} {
		perCell := 0.65 * float64(mult) // ≈ VP ratio 1 at mult=1
		b.Run(benchName("vpr", mult), func(b *testing.B) {
			cfg := sim.DefaultConfig(1)
			cfg.NPerCell = perCell
			s, err := cmsim.New(cmsim.Config{Sim: cfg, PhysProcs: procs})
			if err != nil {
				b.Fatal(err)
			}
			s.Machine().ResetCost()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.StopTimer()
			book := s.Machine().Cost()
			n := float64(s.NFlow())
			modelUs := cm.ModelSeconds(book.TotalCycles()) * 1e6 / n / float64(b.N)
			b.ReportMetric(modelUs, "model-us/particle/step")
			b.ReportMetric(float64(s.Machine().VPR()), "vp-ratio")
		})
	}
}

// BenchmarkShockTube3DWorkerSweep sweeps the worker count of the 3D
// extension's piston-driven shock at a paper-comparable particle count.
func BenchmarkShockTube3DWorkerSweep(b *testing.B) {
	for _, w := range par.SweepWorkers() {
		b.Run(benchName("workers", w), func(b *testing.B) {
			s, err := sim3.NewOf[float64](sim3.Config{
				NX: 160, NY: 16, NZ: 16,
				Cm: 0.125, PistonSpeed: 0.131, NPerCell: 12, Seed: 3,
				Workers: w,
			})
			if err != nil {
				b.Fatal(err)
			}
			s.Run(10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.N()), "ns/particle/step")
		})
	}
}

// BenchmarkCraySurrogate times the float64 implementation pinned to one
// worker (the role of the paper's 0.5 µs/particle/step single-processor
// Cray-2 code; the gated wedge-paperscale-wn workload measures the
// multicore version).
func BenchmarkCraySurrogate(b *testing.B) {
	cfg := benchConfig()
	cfg.Workers = 1
	s, err := NewSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Run(50)
	stepBench(b, s)
}

// BenchmarkCMBackendModel reports the cost-model per-particle time at the
// paper's machine scale (the 7.2 µs/particle/step comparison).
func BenchmarkCMBackendModel(b *testing.B) {
	cfg := sim.DefaultConfig(1)
	cfg.NPerCell = 8
	s, err := cmsim.New(cmsim.Config{Sim: cfg, PhysProcs: 32768})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(10)
	s.Machine().ResetCost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	modelUs := cm.ModelSeconds(s.Machine().Cost().TotalCycles()) * 1e6 /
		float64(s.NFlow()) / float64(b.N)
	b.ReportMetric(modelUs, "model-us/particle/step")
	// The paper's 7.2 µs is quoted at VP ratio 16 (512k particles); at
	// this benchmark's reduced density the ratio is lower, so the issue
	// overhead is amortized less. cmd/experiments -exp compare runs the
	// full-scale comparison.
	b.ReportMetric(float64(s.Machine().VPR()), "vp-ratio")
}

// --- phase micro-benchmarks ---

// BenchmarkSortPerm times the substrate's rank sort, the 27% phase.
func BenchmarkSortPerm(b *testing.B) {
	m := cm.New(1024, 1<<17)
	keys := m.NewField()
	r := rng.NewStream(1)
	for i := range keys {
		keys[i] = int32(r.Intn(6272 * 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SortPerm(keys)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.VPs()), "ns/key")
}

// BenchmarkSegScan times the segmented scan used for cell populations.
func BenchmarkSegScan(b *testing.B) {
	m := cm.New(1024, 1<<17)
	src, dst := m.NewField(), m.NewField()
	seg := make([]bool, m.VPs())
	r := rng.NewStream(2)
	for i := range src {
		src[i] = 1
		seg[i] = r.Intn(70) == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SegBroadcastSum(dst, src, seg)
	}
}

// BenchmarkReservoirRelax times one reservoir relaxation sweep.
func BenchmarkReservoirRelax(b *testing.B) {
	r := rng.NewStream(4)
	res := particle.NewReservoir(1<<15, 0.0884)
	res.DepositN(1<<15, &r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Relax(&r)
	}
}

// BenchmarkBaselineSchemes compares the per-cell cost of every selection
// scheme on a freestream cell (Nanbu's O(N²) shows immediately).
func BenchmarkBaselineSchemes(b *testing.B) {
	rule := collide.Rule{Model: molec.Maxwell(), PInf: 0.28, NInf: 75, GInf: 0.2}
	for _, scheme := range []baseline.Scheme{
		baseline.NewBM(), baseline.NewBirdTC(), baseline.Nanbu{}, baseline.Ploss{},
	} {
		b.Run(scheme.Name(), func(b *testing.B) {
			r := rng.NewStream(5)
			parts := baseline.EquilibriumEnsemble(75, 0.0884, &r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scheme.CollideCell(parts, 1, rule, &r)
			}
		})
	}
}

// BenchmarkShockTube3D times the 3D extension (piston-driven normal
// shock, the paper's future-work geometry).
func BenchmarkShockTube3D(b *testing.B) {
	s, err := sim3.NewOf[float64](sim3.Config{
		NX: 160, NY: 4, NZ: 4,
		Cm: 0.125, PistonSpeed: 0.131, NPerCell: 14, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.N()), "ns/particle/step")
}

// BenchmarkAblationReshuffle compares the paper's per-step re-randomised
// pairing against frozen pairing: the randomisation's cost is the
// per-cell shuffle inside the relaxation driver.
func BenchmarkAblationReshuffle(b *testing.B) {
	rule := collide.Rule{Model: molec.Maxwell(), CollideAll: true}
	for _, mode := range []string{"reshuffled", "frozen"} {
		b.Run(mode, func(b *testing.B) {
			r := rng.NewStream(5)
			parts := baseline.EquilibriumEnsemble(4096, 0.25, &r)
			scheme := baseline.NewBM()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "reshuffled" {
					baseline.Relax(scheme, parts, 1, rule, 1, &r)
				} else {
					baseline.RelaxFixedPairing(scheme, parts, 1, rule, 1, &r)
				}
			}
		})
	}
}

// BenchmarkReservoirVsDirectGaussian quantifies the paper's argument for
// the reservoir: picking up a banked particle must beat sampling a fresh
// Gaussian velocity (transcendental calls) for each of the five
// components.
func BenchmarkReservoirVsDirectGaussian(b *testing.B) {
	b.Run("reservoir-withdraw", func(b *testing.B) {
		r := rng.NewStream(6)
		res := particle.NewReservoir(1<<20, 0.0884)
		res.DepositN(1<<20, &r)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := res.Withdraw(); !ok {
				b.StopTimer()
				res.DepositN(1<<20, &r)
				b.StartTimer()
			}
		}
	})
	b.Run("direct-gaussian", func(b *testing.B) {
		r := rng.NewStream(7)
		var sink collide.State5
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 5; k++ {
				sink[k] = r.Gaussian(0, 0.0884)
			}
		}
		_ = sink
	})
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf [8]byte
	pos := len(buf)
	for v > 0 {
		pos--
		buf[pos] = digits[v%10]
		v /= 10
	}
	return prefix + "-" + string(buf[pos:])
}
