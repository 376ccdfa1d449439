//go:build linux

// Command benchmark is the repository's gated benchmark: five workloads
// from the paper-scale step to a warm dsmcd sweep, four end-to-end
// metrics on each, and a traced run that attributes the time to layers.
// BENCHMARK.json at the repository root is its contract; README.md in
// this directory defines every workload and metric and explains the
// estimator.
//
//	go run ./benchmark --workload wedge-paperscale-w1 --seed 1988 --seconds 10 --trace 0
//	go run ./benchmark --workload dsmcd-sweep-warm --trace 1      # per-layer metrics
//	go run ./benchmark -compare a.ndjson b.ndjson                 # two --out files
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Run it from the repository
// root: it builds cmd/dsmcd from source into .bench_build/ and keeps
// every file it writes there.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 1988
	// referenceSeconds is run_seconds in BENCHMARK.json. A run is bounded
	// by work, not by time: --seconds scales each workload's fixed op
	// count, which is sized so that the measured phase takes about this
	// long on the 2-vCPU reference host.
	referenceSeconds = 10
	buildDir         = ".bench_build"
)

func main() {
	if spec := os.Getenv(refEnv); spec != "" {
		os.Exit(refChild(os.Stdin, os.Stdout, spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runContext says where and how a run was made. It is printed beside
// the metrics, never as one, and is never used to discard a run.
type runContext struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Ops        int    `json:"ops"`
	Setups     int    `json:"setups"`
	// StreamGBps is the streaming probe's bandwidth before and after the
	// measured phase.
	StreamGBps [2]float64 `json:"stream_gbps"`
	// RefThreads, RefP10Seconds and HostFactor describe the reference
	// kernel's passes during the run: measured seconds x HostFactor are
	// the host-normalised seconds the timing metrics report (ref.go).
	RefThreads    int     `json:"ref_threads"`
	RefP10Seconds float64 `json:"ref_p10_s"`
	HostFactor    float64 `json:"host_factor"`
}

// record is one run in full, as --out appends it and -compare reads it.
type record struct {
	Workload string     `json:"workload"`
	Trace    int        `json:"trace"`
	Context  runContext `json:"context"`
	result
	// Notes are the correctness gate's findings and failed ops' errors.
	Notes []string `json:"notes,omitempty"`
	// The measured (not normalised) samples behind setup_s, op_p10_s and
	// op_cpu_p10_s, and the reference passes that normalise them.
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`
	OpSeconds    []float64 `json:"op_seconds,omitempty"`
	OpCPUSeconds []float64 `json:"op_cpu_seconds,omitempty"`
	RefSeconds   []float64 `json:"ref_seconds,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Int("seconds", referenceSeconds, "run length the op count is scaled to (the count is fixed per length)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, spans off; 1: the traced attribution run, per-layer metrics")
	out := fs.String("out", "", "append this run's full record to the file, one JSON object per line")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default "+buildDir+"/trace-<workload>.json)")
	compare := fs.Bool("compare", false, "compare two --out files: -compare a.ndjson b.ndjson")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two --out files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, paperSizes(*seconds), *seed)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer e.cleanup()

	var rec *record
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(e.root, buildDir, "trace-"+w.name+".json")
		}
		rec, err = runTraced(e, w, path)
	} else {
		rec, err = runEndToEnd(e, w)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rec.Trace = *trace
	printRecord(stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// env is what every workload of one run shares.
type env struct {
	ctx     context.Context
	root    string // repository root: the directory holding go.mod
	scratch string // this run's directory under .bench_build, removed at exit
	sz      sizes
	seed    uint64
	nproc   int
	dsmcd   string // path of the built cmd/dsmcd binary, built on first use
}

func newEnv(ctx context.Context, sz sizes, seed uint64) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	return &env{ctx: ctx, root: root, scratch: scratch, sz: sz, seed: seed, nproc: runtime.NumCPU()}, nil
}

func (e *env) cleanup() { os.RemoveAll(e.scratch) }

// findRoot walks up from the working directory to the module root, so
// the benchmark runs from the repository root (go run ./benchmark) and
// from its own directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module dsmc\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the dsmc module: run from the repository root")
		}
		dir = parent
	}
}

// buildDsmcd compiles cmd/dsmcd from the checkout's own source. It runs
// before any set-up clock starts.
func (e *env) buildDsmcd() error {
	if e.dsmcd != "" {
		return nil
	}
	bin := filepath.Join(e.root, buildDir, "dsmcd")
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", bin, "./cmd/dsmcd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/dsmcd: %w\n%s", err, out)
	}
	e.dsmcd = bin
	return nil
}

// commit names the source the run measured: the VCS revision stamped
// into the binary when there is one (the driver's checkout is not a git
// repository).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// runEndToEnd is the untraced run: set up (several times; the median is
// setup_s), run the workload's fixed op count closed-loop with one
// client, then check the outputs. No op is retried, reordered or dropped
// because of its timing.
func runEndToEnd(e *env, w workload) (*record, error) {
	if w.server {
		if err := e.buildDsmcd(); err != nil {
			return nil, err
		}
	}
	rec := &record{Workload: w.name, Context: e.context(w)}
	ref, err := startRef(e, w.threads(e.nproc))
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var inst instance
	for r := 0; r < e.sz.setups; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			// Return the previous set-up's memory so the peak is one
			// instance's, whichever repeat reached it.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if inst, err = w.setup(e, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rec.SetupSeconds = append(rec.SetupSeconds, time.Since(t0).Seconds())
		if err := ref.sample(w.refSamples, w.refPasses); err != nil {
			return nil, err
		}
	}
	defer inst.close()

	if rec.Context.StreamGBps[0], err = ref.ask("stream"); err != nil {
		return nil, err
	}
	ops := w.ops(e.sz)
	for i := 0; i < ops; i++ {
		cpu0, err := cpuSeconds(inst.pid())
		if err != nil {
			return nil, err
		}
		wall, scale, opErr := inst.op(i, nil)
		cpu1, err := cpuSeconds(inst.pid())
		if err != nil {
			return nil, err
		}
		if opErr != nil {
			rec.Failed++
			rec.Notes = append(rec.Notes, fmt.Sprintf("op %d: %v", i, opErr))
			continue
		}
		rec.OpSeconds = append(rec.OpSeconds, wall*scale)
		rec.OpCPUSeconds = append(rec.OpCPUSeconds, (cpu1-cpu0)*scale)
		if err := ref.sample(w.refSamples, w.refPasses); err != nil {
			return nil, err
		}
	}
	rss, err := statusMB(inst.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	if rec.Context.StreamGBps[1], err = ref.ask("stream"); err != nil {
		return nil, err
	}
	if len(rec.OpSeconds) == 0 {
		return nil, fmt.Errorf("%s: every op failed: %s", w.name, strings.Join(rec.Notes, "; "))
	}
	if err := inst.check(); err != nil {
		rec.Notes = append(rec.Notes, "check: "+err.Error())
	}
	rec.Attempted = ops
	rec.Correct = len(rec.Notes) == 0
	rec.RefSeconds = ref.samples
	f := ref.factor()
	rec.Context.RefP10Seconds, rec.Context.HostFactor = p10(ref.samples), f
	rec.Metrics = map[string]metricValue{
		"setup_s":      {median(rec.SetupSeconds) * f, "s"},
		"op_p10_s":     {p10(rec.OpSeconds) * f, "s"},
		"op_cpu_p10_s": {p10(rec.OpCPUSeconds) * f, "s"},
		"peak_rss_mb":  {rss, "MB"},
	}
	return rec, inst.close()
}

func (e *env) context(w workload) runContext {
	return runContext{
		Nproc: e.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Seed: e.seed, Seconds: e.sz.seconds, Ops: w.ops(e.sz), Setups: e.sz.setups, RefThreads: w.threads(e.nproc),
	}
}

// printRecord prints the run for a reader: context first, then every
// metric by name with its unit, ops and failed beside them.
func printRecord(w io.Writer, rec *record) {
	c := rec.Context
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %d\n", rec.Workload, c.Seed, c.Seconds, rec.Trace)
	fmt.Fprintf(w, "context  nproc %d  GOMAXPROCS %d  %s  commit %s  set-ups %d  stream probe %.2f -> %.2f GB/s\n",
		c.Nproc, c.GOMAXPROCS, c.Go, c.Commit, c.Setups, c.StreamGBps[0], c.StreamGBps[1])
	if c.HostFactor != 0 {
		fmt.Fprintf(w, "host     reference kernel on %d thread(s): p10 %.6g s, so measured seconds x %.4f = reported seconds\n",
			c.RefThreads, c.RefP10Seconds, c.HostFactor)
	}
	fmt.Fprintf(w, "ops %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(rec.OpSeconds) > 0 {
		fmt.Fprintf(w, "op seconds as measured (not gated)  p10 %.6g  p50 %.6g  p90 %.6g  max %.6g\n",
			p10(rec.OpSeconds), median(rec.OpSeconds), quantile(rec.OpSeconds, 0.9), quantile(rec.OpSeconds, 1))
	}
	defs := endToEndMetrics
	if rec.Trace == 1 {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		if v, ok := rec.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
