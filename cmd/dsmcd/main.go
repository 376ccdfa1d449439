// Command dsmcd is the DSMC job server: it accepts ensemble/parameter-
// sweep specs over HTTP, runs their replica jobs through a coordinator
// (internal/coord) and its pull-workers, streams per-job progress, and
// serves the aggregated cross-replica statistics. Every job checkpoints
// its full state (internal/ckpt), so a killed server resumes unfinished
// sweeps on restart — bit-identically to never having died.
//
// API (JSON unless noted):
//
//	POST /v1/sweeps               submit a dsmc.SweepSpec; 202 + {id, links}
//	GET  /v1/sweeps               list sweeps with state
//	GET  /v1/sweeps/{id}          status: per-job states and step progress
//	GET  /v1/sweeps/{id}/events   NDJSON progress stream (event log + live)
//	GET  /v1/sweeps/{id}/result   aggregated result (409 while running): the
//	                              bytes of its result-store object, ETag =
//	                              their SHA-256, verified on every read;
//	                              ?quantity=temperature serves one sampled
//	                              quantity's per-point field statistics
//	GET  /v1/store                result-store index: artifact keys, content
//	                              hashes, sizes, and totals
//	GET  /v1/store/{sha}          one artifact's raw bytes (octet-stream,
//	                              immutable, ETag = content hash)
//	GET  /metrics                 Prometheus text exposition (engine phase
//	                              histograms, coordinator/worker telemetry,
//	                              result-store hit/miss counters and gauges)
//	GET  /debug/pprof/*           profiling (only with -pprof)
//	GET  /healthz                 liveness
//
// A spec's base is a scenario ("scenario": {"kind": ..., "params":
// {...}}) of any kind, including the 3D shock tube, and "quantities"
// selects the fields sampled in the one accumulation pass (default
// density). Points may override physics knobs and the grid shape; each
// point's aggregate carries its own field shape. A field this build does
// not know, such as the flat "base" object, is a 400 at submit; in a
// persisted spec.json it fails an unfinished sweep on restart, naming
// it, while a done one is still served.
//
// README's dsmcd section has a curl session, over a 2D and a 3D base.
//
// # Distributed execution
//
// Sweeps run through a coordinator (internal/coord): jobs are handed out
// under leases to pull-based workers that heartbeat, upload periodic
// checkpoints, and upload the final output. By default the coordinator's
// workers are -pool embedded goroutines — the single-process case is
// just that machinery with local transport — but the same protocol is
// served over HTTP under /coord/v1/, so extra worker processes can join:
//
//	dsmcd -addr :8077 -data /var/lib/dsmcd &     # coordinator + embedded workers
//	dsmcd -worker -coord http://host:8077 &      # extra pull-worker, any machine
//
// Every worker heartbeats at an eighth of the lease's TTL, so -lease-ttl
// alone sets the pace (1.875 s at the default 15 s). A worker whose
// heartbeats stop (crash, partition) loses its lease; the coordinator
// redispatches the job and the next worker resumes from the last
// uploaded checkpoint, bit-identical to a never-failed run. A job
// that exhausts -max-retries dispatches fails the sweep, skipping what is
// left by the in-process executor's rule (one run.Table state machine
// serves both). GET /coord/v1/workers reports the fleet.
//
// # Result store and memoization
//
// Every finished replica output, every sweep's encoded result and every
// ?quantity= view is an artifact of a content-addressed store under
// <data>/store/, keyed by the determinism contract, so a sweep that
// derives a stored key dispatches nothing for it and its result is
// bit-identical to a cold run's. Every read is checksum-verified. A
// result's store object is its only copy: /result serves it with its
// SHA-256 as a strong ETag and immutable caching, and one that rotted or
// that -store-budget evicted is a 500 naming the sweep while the read
// recomputes it. README's "Result store & memoization" has the layout,
// the cache semantics and retention.
//
// # Observability
//
// GET /metrics serves the Prometheus text format: per-phase engine
// step-time histograms, coordinator lease/retry/queue telemetry, and
// per-worker fleet gauges (external workers' engine instruments arrive
// piggybacked on their heartbeats and are re-emitted as dsmc_fleet_*
// with a worker label). -pprof enables net/http/pprof at /debug/pprof/.
//
// The NDJSON event stream replays <data>/<id>/events.ndjson from disk,
// across restarts, with nothing dropped, then tails it. In quiet phases
// it emits {"type":"keepalive","status":{...}} records (every
// -keepalive): active and queued jobs, worker count, and the stalest
// heartbeat age. Consumers must ignore unknown record types. On
// SIGINT/SIGTERM the server drains: in-flight jobs checkpoint their exact
// position and release their leases, and the HTTP listener shuts down
// within -shutdown-timeout; a restart resumes bit-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dsmc/internal/coord"
)

// Connection deadlines of the HTTP listener: a client gets
// readHeaderTimeout to finish its request line and headers, and a
// kept-alive connection idleTimeout between requests. They bound what a
// stalled peer can hold, so they are constants, not flags. There is no
// WriteTimeout (event streams are long-lived) and no ReadTimeout (upload
// bodies are capped by size in internal/coord, not by time).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(log.LstdFlags | log.LUTC)
	log.SetPrefix("dsmcd: ")
	addr := flag.String("addr", ":8077", "listen address")
	data := flag.String("data", "dsmcd-data", "data directory (specs, checkpoints, results)")
	pool := flag.Int("pool", 0, "embedded worker count = max concurrent simulations (0 = NumCPU)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "job lease TTL; a worker silent this long loses its job (workers heartbeat every TTL/8)")
	maxRetries := flag.Int("max-retries", 3, "dispatch attempts per job before the sweep fails")
	keepalive := flag.Duration("keepalive", 15*time.Second, "NDJSON event-stream keepalive interval")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "graceful shutdown deadline for the HTTP server")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	storeBudget := flag.Int64("store-budget", 0, "result-store size budget in bytes; oldest artifacts evicted past it (0 = unlimited)")

	workerMode := flag.Bool("worker", false, "run as a pull-worker against -coord instead of serving")
	coordURL := flag.String("coord", "http://127.0.0.1:8077", "coordinator base URL (worker mode)")
	workerID := flag.String("worker-id", "", "worker identity (worker mode; default host-pid)")
	chaosKill := flag.Int("chaos-kill-after-steps", 0, "CHAOS TESTING: exit with code 2, releasing nothing, once a job reaches this step (worker mode)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		runWorker(ctx, *coordURL, *workerID, *chaosKill)
		return
	}

	s, err := newServerWith(serverOpts{
		dataDir:     *data,
		workers:     *pool,
		leaseTTL:    *leaseTTL,
		maxRetries:  *maxRetries,
		keepalive:   *keepalive,
		pprof:       *pprofOn,
		storeBudget: *storeBudget,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		<-ctx.Done()
		log.Printf("shutting down: draining HTTP within %s, checkpointing in-flight jobs", *shutdownTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			srv.Close() // deadline passed: cut lingering event streams
		}
	}()
	log.Printf("serving on %s, data in %s", *addr, *data)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	// Listener is down; drain the embedded workers (checkpoint + release)
	// so a restart resumes every job from its exact step position.
	s.close()
	log.Printf("shutdown complete")
}

// runWorker is worker mode: pull jobs from a remote coordinator until
// the process is signalled, then checkpoint, release, and exit.
func runWorker(ctx context.Context, coordURL, id string, killAfterSteps int) {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	log.SetPrefix("dsmcd-worker: ")
	log.Printf("worker %s pulling from %s", id, coordURL)
	w := coord.NewWorker(coord.WorkerConfig{
		ID:             id,
		Queue:          &coord.HTTPQueue{Base: coordURL},
		KillAfterSteps: killAfterSteps,
		Logf:           log.Printf,
	})
	w.Run(ctx)
	log.Printf("worker %s drained", id)
}
