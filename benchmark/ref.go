//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The reference kernel is how the benchmark tells a slow host from slow
// code. The host this runs on shifts speed for minutes at a time — its
// memory system and cores are shared — and every timing of memory-bound
// work shifts with it, the lower decile and the minimum included, by up
// to 40% (README.md has the measurements). So each run times, between
// its ops, a fixed kernel with the step's own access pattern: move a
// structure-of-arrays particle set, histogram it by cell, scatter every
// column to cell-major order, sweep adjacent pairs. The run's timings
// are then reported in host-normalised seconds:
//
//	reported = measured x refNominal / (lower decile of the run's reference passes)
//
// which reads as seconds on a host running the reference at its nominal
// speed. The kernel lives here, never changes and shares no code with
// the engine, so the ratio between two commits is the engine's. It runs
// in a child process (this binary re-executed with refEnv set): its
// arrays never count towards the harness's peak RSS, which is a metric
// on in-process workloads, and it serves dsmcd workloads the same way.
// It runs on as many threads as the workload under test keeps busy,
// because a host that slows one vCPU slows a one-thread workload and a
// two-thread workload differently.
const (
	refEnv = "DSMC_BENCH_REF"
	// refNominal1 and refNominalN are the lower-decile pass times of the
	// paper-size reference on the 2-vCPU reference host at its least
	// disturbed, on one thread and on two; reported and measured seconds
	// agree there. They are units, not measurements: changing them would
	// rescale every timing ever reported.
	refNominal1 = 0.0080
	refNominalN = 0.0084
	// The streaming probe of the run context reads streamBytes a few
	// times.
	streamBytes = 64 << 20
	streamReps  = 9
)

// refKernel is one thread's private particle set.
type refKernel struct {
	n, nx, ny    int
	col, shadow  [7][]float64 // x, y, u, v, w, r1, r2
	cell         []int32
	count, start []int32
}

func newRefKernel(n int) *refKernel {
	k := &refKernel{n: n, nx: 98, ny: 64}
	for c := range k.col {
		k.col[c] = make([]float64, n)
		k.shadow[c] = make([]float64, n)
	}
	k.cell = make([]int32, n)
	k.count = make([]int32, k.nx*k.ny)
	k.start = make([]int32, k.nx*k.ny)
	s := uint64(12345) // xorshift: the kernel's inputs never vary
	rnd := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / (1 << 53)
	}
	for i := 0; i < n; i++ {
		k.col[0][i] = rnd() * float64(k.nx)
		k.col[1][i] = rnd() * float64(k.ny)
		for c := 2; c < 7; c++ {
			k.col[c][i] = (rnd() - 0.5) * 0.6
		}
	}
	return k
}

// step is one pass: move with specular walls, cell index and histogram,
// prefix sum, full-payload scatter into the shadow set, swap, pair sweep
// with a conditional exchange.
func (k *refKernel) step() {
	x, y, u, v := k.col[0], k.col[1], k.col[2], k.col[3]
	fx, fy := float64(k.nx), float64(k.ny)
	for i := range x {
		xi, yi := x[i]+u[i], y[i]+v[i]
		if xi < 0 {
			xi, u[i] = -xi, -u[i]
		} else if xi >= fx {
			xi, u[i] = 2*fx-xi-1e-9, -u[i]
		}
		if yi < 0 {
			yi, v[i] = -yi, -v[i]
		} else if yi >= fy {
			yi, v[i] = 2*fy-yi-1e-9, -v[i]
		}
		x[i], y[i] = xi, yi
	}
	clear(k.count)
	for i := range x {
		c := int32(y[i])*int32(k.nx) + int32(x[i])
		k.cell[i] = c
		k.count[c]++
	}
	at := int32(0)
	for c, n := range k.count {
		k.start[c] = at
		at += n
	}
	for i := range x {
		c := k.cell[i]
		d := k.start[c]
		k.start[c] = d + 1
		for q := range k.col {
			k.shadow[q][d] = k.col[q][i]
		}
	}
	k.col, k.shadow = k.shadow, k.col
	u, v, w, r1 := k.col[2], k.col[3], k.col[4], k.col[5]
	for i := 0; i+1 < k.n; i += 2 {
		du, dv, dw := u[i]-u[i+1], v[i]-v[i+1], w[i]-w[i+1]
		if math.Sqrt(du*du+dv*dv+dw*dw) > 0.45 {
			u[i], u[i+1] = u[i+1], u[i]
			r1[i], r1[i+1] = r1[i+1], r1[i]
		}
	}
}

// refChild is the reference process's whole program: it builds one
// kernel per thread, then serves one request per input line — "ref" runs
// one pass on every thread at once and prints its seconds, "stream"
// prints the streaming probe's median GB/s — until its input closes.
func refChild(in io.Reader, out io.Writer, spec string) int {
	var threads, particles int
	if _, err := fmt.Sscanf(spec, "%dx%d", &threads, &particles); err != nil || threads < 1 || particles < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: bad %s=%q\n", refEnv, spec)
		return 2
	}
	kernels := make([]*refKernel, threads)
	for i := range kernels {
		kernels[i] = newRefKernel(particles)
		kernels[i].step() // first touch of the shadow set
	}
	var stream []uint64
	lines := bufio.NewScanner(in)
	fmt.Fprintln(out, "ready")
	for lines.Scan() {
		switch lines.Text() {
		case "ref":
			var wg sync.WaitGroup
			t0 := time.Now()
			for _, k := range kernels[1:] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					k.step()
				}()
			}
			kernels[0].step()
			wg.Wait()
			fmt.Fprintf(out, "%.9f\n", time.Since(t0).Seconds())
		case "stream":
			if stream == nil {
				stream = make([]uint64, streamBytes/8)
				for i := range stream {
					stream[i] = uint64(i)
				}
			}
			rates := make([]float64, streamReps)
			var sink uint64
			for r := range rates {
				t0 := time.Now()
				for _, v := range stream {
					sink += v
				}
				rates[r] = streamBytes / 1e9 / time.Since(t0).Seconds()
			}
			if sink == 1 { // keeps the loads live
				fmt.Fprintln(os.Stderr, sink)
			}
			fmt.Fprintf(out, "%.4f\n", median(rates))
		}
	}
	return 0
}

// refProc is the harness's handle on the reference child.
type refProc struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	nominal float64
	samples []float64 // every reference sample of the run: mean seconds per pass
}

// startRef starts the reference child with the given thread count and
// particles per thread and waits until its kernels are built.
func startRef(e *env, threads int) (*refProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(e.ctx, exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%dx%d", refEnv, threads, e.sz.refParticles))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference process: %w", err)
	}
	r := &refProc{cmd: cmd, in: in, out: bufio.NewReader(out), nominal: refNominalN}
	if threads == 1 {
		r.nominal = refNominal1
	}
	if line, err := r.out.ReadString('\n'); err != nil || strings.TrimSpace(line) != "ready" {
		r.close()
		return nil, fmt.Errorf("reference process did not start: %q, %v", line, err)
	}
	return r, nil
}

func (r *refProc) ask(request string) (float64, error) {
	if _, err := io.WriteString(r.in, request+"\n"); err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// sample runs an untimed pass and then samples x passes timed passes
// back to back, and records the mean of each group of passes as one
// sample. The untimed pass brings the kernel's own arrays back into the
// caches the op just filled, so the samples do not depend on how much
// the program under test evicts. Where ops are short (a wedge step) a
// sample lasts about as long as an op: a host disturbed in bursts slows
// long and short intervals differently, so the lower deciles of ops and
// of samples compare best when their durations do.
func (r *refProc) sample(samples, passes int) error {
	if _, err := r.ask("ref"); err != nil {
		return err
	}
	for s := 0; s < samples; s++ {
		total := 0.0
		for p := 0; p < passes; p++ {
			t, err := r.ask("ref")
			if err != nil {
				return err
			}
			total += t
		}
		r.samples = append(r.samples, total/float64(passes))
	}
	return nil
}

// factor is what turns the run's measured seconds into host-normalised
// seconds.
func (r *refProc) factor() float64 { return r.nominal / p10(r.samples) }

// close ends the child by closing its input and waits for it.
func (r *refProc) close() error {
	r.in.Close()
	return r.cmd.Wait()
}
