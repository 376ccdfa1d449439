//go:build linux

package main

// An instance is one set-up of a workload: the program under test built,
// warmed and ready for its first measured op.
type instance interface {
	// op runs measured op i and returns its wall seconds and the factor
	// that scales them, and the CPU seconds the harness reads around the
	// call, to the workload's unit of work: 1 for a sweep, 10^6 over the
	// particle-steps advanced for a wedge window. A nil tracer is an
	// untraced op; what is timed is the same either way.
	op(i int, tr *tracer) (wall, scale float64, err error)
	// pid is the program under test: 0 for the harness process itself,
	// otherwise the dsmcd child.
	pid() int
	// scrape reads the program under test's metrics registry — the
	// harness's own for in-process workloads, GET /metrics for dsmcd — so
	// a traced run reads the same instruments production does.
	scrape() (map[string]float64, error)
	// check is the correctness gate, run after the measured phase.
	check() error
	// close stops and removes everything the set-up started or wrote.
	close() error
}

type workload struct {
	name, why string
	server    bool // drives a dsmcd child, so cmd/dsmcd must be built first
	ops       func(sz sizes) int
	section   func(sz sizes) int // ops in a traced run that selected another workload
	// threads is how many threads the workload keeps busy on a host with
	// nproc CPUs; the reference kernel runs on as many. After each op and
	// each set-up the harness takes refSamples reference samples of
	// refPasses timed passes each (ref.go).
	threads               func(nproc int) int
	refSamples, refPasses int
	// setup builds one instance. The end-to-end run calls it sz.setups
	// times and reports the median; tr is nil there.
	setup func(e *env, tr *tracer) (instance, error)
}

// The workloads' names, as BENCHMARK.json and --workload spell them.
const (
	nameW1     = "wedge-paperscale-w1"
	nameWN     = "wedge-paperscale-wn"
	nameInproc = "sweep-inproc-cold"
	nameCold   = "dsmcd-sweep-cold"
	nameWarm   = "dsmcd-sweep-warm"
)

// Thread counts of the workloads on a host with nproc CPUs.
func oneThread(int) int             { return 1 }
func parallelWorkers(nproc int) int { return min(nproc, 4) }
func everyCPU(nproc int) int        { return nproc }

// workloads are the five rows of the benchmark, in the order a full set
// alternates them. The whys are BENCHMARK.json's, word for word.
var workloads = []workload{
	{
		name:       nameW1,
		why:        "The paper's full-scale wedge flow on one worker: the plain single-threaded, memory-bound baseline; op_p10_s reads as the paper's us/particle/step.",
		ops:        func(sz sizes) int { return sz.opsW1 },
		section:    func(sz sizes) int { return sz.sectionWedge },
		threads:    oneThread,
		refSamples: 1, refPasses: 3,
		setup: func(e *env, tr *tracer) (instance, error) {
			return setupWedge(e, tr, 1)
		},
	},
	{
		name:       nameWN,
		why:        "The same flow and seed on min(nproc,4) workers: the pool, barriers and histogram merge of internal/par; a parallel-runtime gain shows only here.",
		ops:        func(sz sizes) int { return sz.opsWN },
		section:    func(sz sizes) int { return sz.sectionWedge },
		threads:    parallelWorkers,
		refSamples: 1, refPasses: 2,
		setup: func(e *env, tr *tracer) (instance, error) {
			return setupWedge(e, tr, parallelWorkers(e.nproc))
		},
	},
	{
		name:       nameInproc,
		why:        "dsmc.RunSweep of small cache-resident jobs, always cold: internal/run, checkpoints, sampling, store publish and aggregation on the clock, collide-heavy point included.",
		ops:        func(sz sizes) int { return sz.opsSweep },
		section:    func(sz sizes) int { return sz.sectionSweep },
		threads:    everyCPU,
		refSamples: 3, refPasses: 4,
		setup: setupInproc,
	},
	{
		name:       nameCold,
		why:        "The same specs POSTed to a dsmcd child: identical compute, so the difference to sweep-inproc-cold is HTTP, coordinator leases, heartbeats and polls.",
		server:     true,
		ops:        func(sz sizes) int { return sz.opsSweep },
		section:    func(sz sizes) int { return sz.sectionSweep },
		threads:    everyCPU,
		refSamples: 3, refPasses: 4,
		setup: func(e *env, tr *tracer) (instance, error) {
			return setupDsmcd(e, tr, false)
		},
	},
	{
		name:       nameWarm,
		why:        "Sweeps dsmcd has already computed: every job a store hit, zero engine steps; the store read, aggregation, JSON and cache-revalidation path, and retained-result memory.",
		server:     true,
		ops:        func(sz sizes) int { return sz.opsWarm },
		section:    func(sz sizes) int { return sz.sectionWarm },
		threads:    oneThread, // one request at a time: measured 0.9 busy cores
		refSamples: 1, refPasses: 4,
		setup: func(e *env, tr *tracer) (instance, error) {
			return setupDsmcd(e, tr, true)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sizes are every size of a run in one place. paperSizes are the
// benchmark's; the smoke test shrinks them to run in seconds.
type sizes struct {
	seconds int // the --seconds the op counts below were scaled to
	setups  int // set-up repeats per end-to-end run; setup_s is their median

	// Wedge workloads: the paper's 98x64 Mach-4 wedge tunnel.
	paperScale   bool    // the flow wedgePins pins: 75 per cell
	wedgePerCell float64 // 75 is paper scale: 0.46-0.53 M particles
	wedgeWarm    int     // warm steps per set-up
	windowSteps  int     // steps per op
	wedgeSample  int     // steps of the correctness gate's Sample
	opsW1, opsWN int

	// Sweep workloads: 2 points x 2 replicas of the same tunnel, small.
	sweepPerCell float64
	sweepWarm    int
	sweepSample  int
	ckptEvery    int
	opsSweep     int
	// The warm workload cycles warmSpecs distinct sweeps, computed cold
	// in set-up with primeSteps warm and primeSteps sample steps: a warm
	// op steps nothing, so its cost depends on the result's shape only.
	warmSpecs  int
	primeSteps int
	opsWarm    int

	// A traced run runs every workload; those not selected get these op
	// counts.
	sectionWedge, sectionSweep, sectionWarm int
	probeReps                               int // repeats of each synthetic layer probe
	refParticles                            int // particles per thread of the reference kernel
}

// paperSizes sizes a run for --seconds: every op count is a fixed
// multiple of the length, chosen so that the measured phase takes about
// that long on a 2-vCPU host, reference samples included (a wedge step
// ~0.037 s at one worker and ~0.02 s at two, a cold sweep ~0.65 s, a warm
// one ~0.15 s).
func paperSizes(seconds int) sizes {
	scale := func(opsAtReference int) int {
		return max(opsAtReference*seconds/referenceSeconds, 4)
	}
	return sizes{
		seconds: seconds,
		setups:  3,

		paperScale:   true,
		wedgePerCell: 75,
		wedgeWarm:    20,
		windowSteps:  1,
		wedgeSample:  40,
		opsW1:        scale(160),
		opsWN:        scale(240),

		sweepPerCell: 8,
		sweepWarm:    25,
		sweepSample:  25,
		ckptEvery:    10,
		opsSweep:     scale(16),
		warmSpecs:    6,
		primeSteps:   5,
		opsWarm:      scale(50),

		sectionWedge: 40,
		sectionSweep: 3,
		sectionWarm:  16,
		probeReps:    15,
		refParticles: 500_000,
	}
}

// metricDef is one metric of BENCHMARK.json. The test holds the file to
// these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// endToEndMetrics are the same four on every workload. The bound is the
// share of the parent's median by which the metric may worsen. The
// bounds are three times the widest run-to-run spread measured on the
// shared 2-vCPU host (README.md): 2-7% for the host-normalised timings,
// 3-7% for the peak RSS of a garbage-collected program.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p10_s", "s", "lower", 0.20},
	{"op_cpu_p10_s", "s", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.20},
}
