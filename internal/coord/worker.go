package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dsmc"
)

// Queue is the worker's view of a coordinator: the in-process LocalQueue
// binds directly to a *Coordinator (the embedded single-binary mode) and
// HTTPQueue speaks the wire protocol to a remote one. The Worker itself
// supplies retries with jittered exponential backoff on top, so both
// transports behave identically under transient failure.
type Queue interface {
	Poll(ctx context.Context, workerID string) (*Lease, error)
	Heartbeat(ctx context.Context, hb Heartbeat) (string, error)
	LoadCheckpoint(ctx context.Context, l *Lease) ([]byte, error)
	// SaveCheckpoint uploads the checkpoint write streams; see
	// run.CkptStreamer for write's contract.
	SaveCheckpoint(ctx context.Context, l *Lease, write func(io.Writer) error) error
	Complete(ctx context.Context, l *Lease, out *dsmc.ReplicaOutput) error
	Release(ctx context.Context, l *Lease, stepsDone int) error
	Fail(ctx context.Context, l *Lease, msg string) error
}

// LocalQueue adapts a *Coordinator into a Queue for embedded workers.
type LocalQueue struct{ C *Coordinator }

func (q LocalQueue) Poll(_ context.Context, workerID string) (*Lease, error) {
	return q.C.Poll(workerID)
}

func (q LocalQueue) Heartbeat(_ context.Context, hb Heartbeat) (string, error) {
	return q.C.HandleHeartbeat(hb)
}
func (q LocalQueue) LoadCheckpoint(_ context.Context, l *Lease) ([]byte, error) {
	return q.C.LoadCheckpoint(l.Sweep, l.Job, l.LeaseID)
}
func (q LocalQueue) SaveCheckpoint(_ context.Context, l *Lease, write func(io.Writer) error) error {
	return q.C.SaveCheckpoint(l.Sweep, l.Job, l.LeaseID, write)
}
func (q LocalQueue) Complete(_ context.Context, l *Lease, out *dsmc.ReplicaOutput) error {
	return q.C.Complete(l.Sweep, l.Job, l.LeaseID, out)
}
func (q LocalQueue) Release(_ context.Context, l *Lease, stepsDone int) error {
	return q.C.Release(l.Sweep, l.Job, l.LeaseID, stepsDone)
}
func (q LocalQueue) Fail(_ context.Context, l *Lease, msg string) error {
	return q.C.Fail(l.Sweep, l.Job, l.LeaseID, msg)
}

// WorkerConfig parameterizes a pull-worker.
type WorkerConfig struct {
	ID    string
	Queue Queue
	// PollEvery is the idle re-poll interval (default 250ms), jittered to
	// decorrelate a fleet.
	PollEvery time.Duration
	// RetryBase is the first delay of the jittered exponential backoff on
	// transient coordinator errors (default 100ms; doubling up to
	// retryMax, 6 attempts).
	RetryBase time.Duration
	// KillAfterSteps, when positive, exits the process with code 2 once a
	// job reaches that many steps: a hard crash for chaos testing, with
	// no release, its lease left to expire.
	KillAfterSteps int
	// Logf, when non-nil, receives worker lifecycle lines.
	Logf func(format string, args ...any)
}

const (
	// ioTimeout bounds each coordinator call made outside the worker's
	// run context — checkpoint uploads, completion, release — so shutdown
	// still flushes state but cannot hang.
	ioTimeout = 15 * time.Second
	// retryMax caps the backoff between retries.
	retryMax = 5 * time.Second
	// heartbeatsPerTTL is how many heartbeats a worker sends per lease
	// TTL: a lease survives seven lost or late ones.
	heartbeatsPerTTL = 8
)

// Worker pulls jobs from a coordinator and runs them with
// dsmc.RunSweepJob, heartbeating and uploading checkpoints as it goes.
type Worker struct {
	cfg WorkerConfig
}

// NewWorker builds a worker; defaults are filled in.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * time.Millisecond
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	return &Worker{cfg: cfg}
}

// Run pulls and executes jobs until ctx is cancelled. On cancellation
// mid-job the in-flight job checkpoints its exact step position, uploads
// it, and releases its lease, so another worker resumes bit-identically;
// Run returns only after that drain completes.
func (w *Worker) Run(ctx context.Context) error {
	pollFails := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		mWorkerPolls.Inc()
		lease, err := w.cfg.Queue.Poll(ctx, w.cfg.ID)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			mWorkerPollErrors.Inc()
			pollFails++
			w.sleep(ctx, w.backoff(pollFails))
			continue
		}
		pollFails = 0
		if lease == nil {
			w.sleep(ctx, w.cfg.PollEvery+jitter(w.cfg.PollEvery/2))
			continue
		}
		w.runJob(ctx, lease)
	}
}

// runJob executes one leased job end to end.
func (w *Worker) runJob(ctx context.Context, l *Lease) {
	mWorkerJobs.Inc()

	// The lease comes from outside the process: one whose TTL cannot pace
	// heartbeats is reported failed, not run.
	if l.TTLMillis <= 0 {
		_ = w.retry(ctx, func(c context.Context) error {
			return w.cfg.Queue.Fail(c, l, fmt.Sprintf("malformed lease: ttl %d ms", l.TTLMillis))
		})
		return
	}
	var spec dsmc.SweepSpec
	if err := json.Unmarshal(l.Spec, &spec); err != nil {
		_ = w.retry(ctx, func(c context.Context) error {
			return w.cfg.Queue.Fail(c, l, fmt.Sprintf("bad spec: %v", err))
		})
		return
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var abandoned atomic.Bool
	var stepsDone atomic.Int64

	// sendHB heartbeats the current progress; a stale lease answer
	// cancels the job immediately so no further work is wasted.
	sendHB := func(done int) {
		hbCtx, cancelHB := context.WithTimeout(context.Background(), ioTimeout)
		status, err := w.cfg.Queue.Heartbeat(hbCtx, Heartbeat{
			Worker: w.cfg.ID, Sweep: l.Sweep, Job: l.Job, Lease: l.LeaseID,
			StepsDone: done, StepsTotal: l.StepsTotal,
		})
		cancelHB()
		if err == nil && status == HBAbandon {
			abandoned.Store(true)
			cancel()
		}
	}

	// The ticker covers quiet phases between progress callbacks (large
	// chunks, slow steps); progress callbacks heartbeat immediately. It
	// ticks at a fixed fraction of the lease's TTL, so the coordinator's
	// TTL alone sets the pace.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(time.Duration(l.TTLMillis) * time.Millisecond / heartbeatsPerTTL)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				sendHB(int(stepsDone.Load()))
			}
		}
	}()

	store := &queueCkpt{w: w, l: l, abandoned: &abandoned, cancel: cancel}
	out, err := dsmc.RunSweepJob(jobCtx, spec, l.Point, l.Replica, dsmc.SweepJobIO{
		Checkpoint: store,
		Progress: func(done, total int) {
			stepsDone.Store(int64(done))
			if w.cfg.KillAfterSteps > 0 && done >= w.cfg.KillAfterSteps {
				w.logf("chaos: killing worker at step %d of job %s", done, l.Job)
				os.Exit(2)
			}
			sendHB(done)
		},
	})
	close(hbStop)
	hbWG.Wait()

	switch {
	case abandoned.Load():
		// The lease is gone; the job was or will be redispatched. Nothing
		// to report — any message we could send would be rejected as stale.
		w.logf("worker %s: job %s abandoned (lease lost)", w.cfg.ID, l.Job)
	case err == nil:
		// Flush the completion even if shutdown races it — the work is
		// done, and an unflushed result would force a redispatch.
		cerr := w.retry(context.Background(), func(c context.Context) error {
			return w.cfg.Queue.Complete(c, l, out)
		})
		switch {
		case errors.Is(cerr, ErrBadOutput):
			// The coordinator refused the output itself, so sending it
			// again cannot succeed: fail the job once, naming why, and let
			// its retry budget decide.
			_ = w.retry(context.Background(), func(c context.Context) error {
				return w.cfg.Queue.Fail(c, l, cerr.Error())
			})
			w.logf("worker %s: job %s output refused: %v", w.cfg.ID, l.Job, cerr)
		case cerr != nil && !errors.Is(cerr, ErrStaleLease) && !errors.Is(cerr, ErrUnknown):
			w.logf("worker %s: job %s completion upload failed: %v", w.cfg.ID, l.Job, cerr)
		}
	case jobCtx.Err() != nil:
		// Graceful shutdown: the run loop already checkpointed at the
		// cancellation point and the store uploaded it; hand the lease
		// back so another worker resumes without burning retry budget.
		_ = w.retry(context.Background(), func(c context.Context) error {
			return w.cfg.Queue.Release(c, l, int(stepsDone.Load()))
		})
		w.logf("worker %s: job %s released at step %d (shutdown)", w.cfg.ID, l.Job, stepsDone.Load())
	default:
		_ = w.retry(context.Background(), func(c context.Context) error {
			return w.cfg.Queue.Fail(c, l, err.Error())
		})
		w.logf("worker %s: job %s failed: %v", w.cfg.ID, l.Job, err)
	}
}

// queueCkpt backs dsmc.JobCheckpoint with coordinator round-trips. Saves
// stream, and retry transient failures by streaming again: the job is
// blocked in the save, so each attempt writes the same bytes. A
// stale-lease rejection aborts the job.
type queueCkpt struct {
	w         *Worker
	l         *Lease
	abandoned *atomic.Bool
	cancel    context.CancelFunc
}

func (s *queueCkpt) Load() ([]byte, error) {
	if !s.l.HasCheckpoint {
		return nil, nil
	}
	var data []byte
	err := s.w.retry(context.Background(), func(c context.Context) error {
		var e error
		data, e = s.w.cfg.Queue.LoadCheckpoint(c, s.l)
		return e
	})
	return data, err
}

func (s *queueCkpt) Save(data []byte) error {
	return s.SaveStream(func(w io.Writer) error { _, err := w.Write(data); return err })
}

// SaveStream implements run.CkptStreamer.
func (s *queueCkpt) SaveStream(write func(io.Writer) error) error {
	err := s.w.retry(context.Background(), func(c context.Context) error {
		return s.w.cfg.Queue.SaveCheckpoint(c, s.l, write)
	})
	if errors.Is(err, ErrStaleLease) || errors.Is(err, ErrUnknown) {
		s.abandoned.Store(true)
		s.cancel()
	}
	return err
}

// Discard is a no-op: the coordinator's copy is superseded by the next
// Save.
func (s *queueCkpt) Discard() error { return nil }

// retry runs op with jittered exponential backoff on transient errors.
// Stale-lease, unknown-job and refused-output rejections are permanent
// (they are protocol answers, not failures) and context cancellation
// stops the loop immediately.
func (w *Worker) retry(ctx context.Context, op func(context.Context) error) error {
	var err error
	for attempt := 0; attempt < 6; attempt++ {
		ioCtx, cancel := context.WithTimeout(ctx, ioTimeout)
		err = op(ioCtx)
		cancel()
		if err == nil || errors.Is(err, ErrStaleLease) || errors.Is(err, ErrUnknown) || errors.Is(err, ErrBadOutput) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		mWorkerIORetries.Inc()
		w.sleep(ctx, w.backoff(attempt+1))
	}
	return err
}

// backoff returns base·2^(n-1) plus up to 100% jitter, capped at
// retryMax. Jitter decorrelates a worker fleet hammering a coordinator
// that just came back.
func (w *Worker) backoff(n int) time.Duration {
	d := w.cfg.RetryBase
	for i := 1; i < n && d < retryMax; i++ {
		d *= 2
	}
	d = min(d, retryMax)
	return d + jitter(d)
}

// jitter returns a uniform duration in [0, d) from math/rand/v2's global
// generator, which seeds itself per process, so a fleet is decorrelated.
// (coord is outside the determinism-linted engine.)
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return rand.N(d)
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}
