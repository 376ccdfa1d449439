package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dsmc"
	"dsmc/internal/obs"
	"dsmc/internal/store"
)

// Config parameterizes a Coordinator. The zero value works for tests:
// in-memory checkpoints, 15s leases, 3 dispatch attempts per job.
type Config struct {
	// DataDir, when set, persists uploaded checkpoints to
	// <DataDir>/<sweep>/ckpt/job-sNNN-rNNN.ckpt — the exact layout the
	// in-process executor uses, so a coordinator restarted over an old
	// data directory resumes from the checkpoints either path wrote.
	// When empty, checkpoints are held in memory.
	DataDir string
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the job is taken away and redispatched (default 15s).
	LeaseTTL time.Duration
	// MaxAttempts bounds dispatches per job; when a job's lease expires
	// or a worker reports an error and the budget is spent, the job fails
	// permanently and the failure propagates through the DAG (default 3).
	MaxAttempts int
	// Store, when non-nil, memoizes jobs against the content-addressed
	// result store: a sweep's jobs are satisfied from finished artifacts
	// at registration (never dispatched), every accepted completion is
	// published under the job's store key, and a publish immediately
	// completes matching pending jobs of every other registered sweep.
	// Reads are checksum-verified by the store; publishes of conflicting
	// bytes under a live key are refused and counted, never silently
	// accepted.
	Store *store.Store
	// OnEvent, when non-nil, observes sweep progress with the same event
	// vocabulary as dsmc.RunSweep, plus "job-lost" (lease expired or
	// worker-reported error with budget remaining; the job will be
	// redispatched) and "job-released" (worker handed the job back
	// gracefully, e.g. during shutdown; no attempt consumed). Calls are
	// serialized.
	OnEvent func(sweepID string, e dsmc.SweepEvent)
	// now is the test clock hook.
	now func() time.Time
}

// Coordinator owns the job DAGs of one or more sweeps and hands jobs to
// pull-based workers under leases. All state transitions happen under
// one mutex; expiry is evaluated lazily at the top of every public call,
// so no background goroutine is needed and tests can drive the clock.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	order    []string // sweep IDs in arrival order (dispatch priority)
	sweeps   map[string]*sweepState
	workers  map[string]*workerState
	leaseSeq uint64
}

type jobPhase int

const (
	jobPending jobPhase = iota
	jobLeased
	jobDone
	jobFailed
	jobSkipped
)

type job struct {
	id         string
	point      int
	replica    int
	stepsTotal int
	// storeKey is the job's content-addressed result key (from
	// dsmc.SweepJobs); empty disables memoization for the job.
	storeKey string

	phase    jobPhase
	attempts int // dispatches consumed against MaxAttempts

	// dispatchedAt stamps the current lease's grant, feeding the
	// dispatch-to-complete latency histogram when the job completes.
	dispatchedAt time.Time

	// lease is the current lease while jobLeased; after jobDone it keeps
	// the winning lease ID so a redelivered Complete from the winner is
	// acked while any other lease is rejected.
	lease       string
	leaseWorker string
	expires     time.Time
	stepsDone   int
	heartbeats  int // heartbeats seen under the current lease

	output *dsmc.ReplicaOutput
	ckpt   []byte // in-memory checkpoint when Config.DataDir is unset
}

type sweepState struct {
	id      string
	spec    dsmc.SweepSpec
	specRaw json.RawMessage
	pool    int // max in-flight leases (0 = unbounded)

	jobs   []*job // (point, replica) order — dispatch order
	byID   map[string]*job
	points [][]*job // jobs grouped by point index
	names  []string // point names, for aggregate events

	aggDone  []bool // per point: aggregate event emitted
	failed   bool
	firstErr string
	finished bool
	onDone   func(*dsmc.SweepResult, error)
}

type workerState struct {
	id         string
	lastSeen   time.Time
	sweep, job string // current lease, if any
	stepsDone  int
	stepsTotal int
	// metrics is the worker's last heartbeat-piggybacked instrument
	// snapshot, re-emitted by WriteMetrics under dsmc_fleet_*.
	metrics []obs.Sample
}

// New builds a Coordinator.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Coordinator{
		cfg:     cfg,
		sweeps:  make(map[string]*sweepState),
		workers: make(map[string]*workerState),
	}
}

// AddSweep registers a sweep's job DAG for dispatch. onDone, when
// non-nil, is called exactly once from a fresh goroutine when the sweep
// finishes: with the assembled result on success, or with the first
// error once the failure has propagated through the DAG.
func (c *Coordinator) AddSweep(id string, spec dsmc.SweepSpec, onDone func(*dsmc.SweepResult, error)) error {
	jobs, err := dsmc.SweepJobs(spec)
	if err != nil {
		return err
	}
	// The dispatched spec must not leak coordinator-local paths: a worker
	// handed ResultStoreDir would open (or create) that directory on its
	// own filesystem. Memoization is coordinator-side; workers just run.
	wire := spec
	wire.ResultStoreDir = ""
	raw, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	st := &sweepState{
		id:      id,
		spec:    spec,
		specRaw: raw,
		pool:    spec.Pool,
		byID:    make(map[string]*job, len(jobs)),
		onDone:  onDone,
	}
	for _, j := range jobs {
		tj := &job{id: j.ID, point: j.Point, replica: j.Replica, stepsTotal: j.StepsTotal, storeKey: j.StoreKey}
		st.jobs = append(st.jobs, tj)
		st.byID[j.ID] = tj
		for len(st.points) <= j.Point {
			st.points = append(st.points, nil)
			st.names = append(st.names, "")
		}
		st.points[j.Point] = append(st.points[j.Point], tj)
	}
	st.aggDone = make([]bool, len(st.points))
	for _, j := range jobs {
		if st.names[j.Point] == "" {
			st.names[j.Point] = pointName(j)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.sweeps[id]; dup {
		return fmt.Errorf("coord: sweep %q already registered", id)
	}
	c.sweeps[id] = st
	c.order = append(c.order, id)
	// Memoization pass: satisfy every job the store already holds before
	// anything dispatches, so overlapping or restarted sweeps never
	// re-dispatch finished work. Runs once per sweep under the lock — the
	// 25ms poll loop never touches the store.
	if c.cfg.Store != nil {
		touched := make([]bool, len(st.points))
		any := false
		for _, j := range st.jobs {
			if c.memoLocked(st, j) {
				touched[j.point] = true
				any = true
			}
		}
		for pt, t := range touched {
			if t {
				c.maybeAggregateLocked(st, pt)
			}
		}
		if any {
			c.maybeFinishLocked(st)
		}
	}
	return nil
}

// AddSweepFile is AddSweep for a caller whose product is the sweep's
// encoded result as a file (dsmcd's result.json): onDone receives the
// SHA-256 and size of the bytes now at path, a hard link to the store's
// "res" artifact under dsmc.SweepResultKey(spec). The key extends the
// determinism contract one level up, so a sweep whose result the store
// already holds never becomes a job DAG: one verified read, one link(2),
// and the events the per-job memo pass would have emitted — no output
// decoded, nothing aggregated, marshalled or written. A miss, or a hit
// that fails verification (the store quarantines it), is AddSweep plus a
// publish and a link of the encoded result on completion; an error from
// either fails the sweep. Requires Config.Store.
func (c *Coordinator) AddSweepFile(id string, spec dsmc.SweepSpec, path string, onDone func(sha string, size int, err error)) error {
	st := c.cfg.Store
	if st == nil {
		return errors.New("coord: AddSweepFile needs a result store")
	}
	key, err := dsmc.SweepResultKey(spec)
	if err != nil {
		return err
	}
	if data, sha, ok := st.Get(key); ok && st.Link(sha, path) == nil {
		jobs, err := dsmc.SweepJobs(spec)
		if err != nil {
			return err
		}
		c.mu.Lock()
		for _, j := range jobs {
			c.emitMemoLocked(id, j.ID)
		}
		for _, j := range jobs {
			if j.Replica == 0 {
				c.emitAggregateLocked(id, pointName(j))
			}
		}
		c.mu.Unlock()
		go onDone(sha, len(data), nil)
		return nil
	}
	return c.AddSweep(id, spec, func(res *dsmc.SweepResult, err error) {
		var data []byte
		var sha string
		if err == nil {
			data, err = dsmc.EncodeSweepResult(res)
		}
		if err == nil {
			if sha, err = st.Put(key, data); err == nil {
				err = st.Link(sha, path)
			}
		}
		onDone(sha, len(data), err)
	})
}

// pointName recovers a job's point name from its ID, "<point>/rNNN".
func pointName(j dsmc.SweepJob) string {
	return j.ID[:len(j.ID)-len(fmt.Sprintf("/r%03d", j.Replica))]
}

// Poll hands the worker the next dispatchable job, or nil when no work
// is available. Jobs dispatch in sweep-arrival then (point, replica)
// order; a sweep with Pool > 0 holds at most Pool in-flight leases.
func (c *Coordinator) Poll(workerID string) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)
	c.touchWorker(workerID, now)

	for _, id := range c.order {
		st := c.sweeps[id]
		if st.finished || st.failed {
			continue
		}
		inflight := 0
		for _, j := range st.jobs {
			if j.phase == jobLeased {
				inflight++
			}
		}
		if st.pool > 0 && inflight >= st.pool {
			continue
		}
		for _, j := range st.jobs {
			if j.phase != jobPending {
				continue
			}
			c.leaseSeq++
			j.phase = jobLeased
			j.attempts++
			j.lease = fmt.Sprintf("l%06d", c.leaseSeq)
			j.leaseWorker = workerID
			j.expires = now.Add(c.cfg.LeaseTTL)
			j.heartbeats = 0
			j.dispatchedAt = now
			mLeaseGrants.Inc()
			w := c.workers[workerID]
			w.sweep, w.job = st.id, j.id
			w.stepsDone, w.stepsTotal = j.stepsDone, j.stepsTotal
			c.emitLocked(st.id, dsmc.SweepEvent{Type: "job-started", Job: j.id})
			return &Lease{
				Sweep:         st.id,
				Job:           j.id,
				Point:         j.point,
				Replica:       j.replica,
				StepsTotal:    j.stepsTotal,
				LeaseID:       j.lease,
				TTLMillis:     c.cfg.LeaseTTL.Milliseconds(),
				HasCheckpoint: c.hasCheckpoint(st, j),
				Spec:          st.specRaw,
			}, nil
		}
	}
	return nil, nil
}

// HandleHeartbeat renews the lease and records progress, or tells a
// stale worker to abandon the job.
func (c *Coordinator) HandleHeartbeat(hb Heartbeat) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)
	c.touchWorker(hb.Worker, now)
	mHeartbeats.Inc()
	if len(hb.Metrics) > 0 {
		c.workers[hb.Worker].metrics = hb.Metrics
	}

	st, j, err := c.lookupLocked(hb.Sweep, hb.Job)
	if err != nil {
		mStaleRejects.Inc()
		return HBAbandon, nil // sweep evicted or unknown: stop working
	}
	if j.phase != jobLeased || j.lease != hb.Lease {
		mStaleRejects.Inc()
		return HBAbandon, nil
	}
	j.expires = now.Add(c.cfg.LeaseTTL)
	j.heartbeats++
	w := c.workers[hb.Worker]
	w.sweep, w.job = st.id, j.id
	w.stepsDone, w.stepsTotal = hb.StepsDone, hb.StepsTotal
	// Emit progress on change, and unconditionally on a lease's first
	// heartbeat so the event stream always shows a dispatched job moving.
	if hb.StepsDone != j.stepsDone || j.heartbeats == 1 {
		j.stepsDone = hb.StepsDone
		c.emitLocked(st.id, dsmc.SweepEvent{
			Type: "job-progress", Job: j.id, Scenario: st.names[j.point], Replica: j.replica,
			StepsDone: hb.StepsDone, StepsTotal: j.stepsTotal,
		})
	}
	// A trace batch from the live lease holder fans out as a "trace"
	// event — the flight-recorder feed. Batches from stale leases never
	// reach here, so a redispatched job's recorder shows one worker's
	// timeline at a time.
	if len(hb.Trace) > 0 {
		c.emitLocked(st.id, dsmc.SweepEvent{
			Type: "trace", Job: j.id, Scenario: st.names[j.point], Replica: j.replica,
			Trace: hb.Trace,
		})
	}
	return HBOK, nil
}

// SaveCheckpoint stores a job's checkpoint upload and renews the lease.
// Saves are idempotent (last write wins); a stale lease gets
// ErrStaleLease and must abandon the job.
func (c *Coordinator) SaveCheckpoint(sweep, jobID, lease string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)

	st, j, err := c.lookupLocked(sweep, jobID)
	if err != nil {
		return err
	}
	if j.phase != jobLeased || j.lease != lease {
		mStaleRejects.Inc()
		return ErrStaleLease
	}
	if c.cfg.DataDir == "" {
		j.ckpt = append([]byte(nil), data...)
	} else {
		path := c.ckptPath(st, j)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := store.AtomicWrite(path, data); err != nil {
			return err
		}
	}
	j.expires = now.Add(c.cfg.LeaseTTL)
	return nil
}

// LoadCheckpoint returns the job's last uploaded checkpoint (nil when
// none) to the current lease holder.
func (c *Coordinator) LoadCheckpoint(sweep, jobID, lease string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.now())

	st, j, err := c.lookupLocked(sweep, jobID)
	if err != nil {
		return nil, err
	}
	if j.phase != jobLeased || j.lease != lease {
		mStaleRejects.Inc()
		return nil, ErrStaleLease
	}
	if c.cfg.DataDir == "" {
		return append([]byte(nil), j.ckpt...), nil
	}
	data, err := os.ReadFile(c.ckptPath(st, j))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// Complete records a job's output. Idempotent: a redelivered Complete
// under the winning lease is acked; any other lease gets ErrStaleLease.
func (c *Coordinator) Complete(sweep, jobID, lease string, out *dsmc.ReplicaOutput) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)

	st, j, err := c.lookupLocked(sweep, jobID)
	if err != nil {
		return err
	}
	if j.phase == jobDone && j.lease == lease {
		return nil // duplicate delivery of the winning completion
	}
	if j.phase != jobLeased || j.lease != lease {
		mStaleRejects.Inc()
		return ErrStaleLease
	}
	j.phase = jobDone
	j.stepsDone = j.stepsTotal
	j.output = out
	j.ckpt = nil
	mCompletions.Inc()
	if !j.dispatchedAt.IsZero() {
		mJobSeconds.Observe(now.Sub(j.dispatchedAt).Seconds())
	}
	c.clearWorkerJob(j.leaseWorker)
	c.emitLocked(st.id, dsmc.SweepEvent{Type: "job-done", Job: j.id})
	c.maybeAggregateLocked(st, j.point)
	c.maybeFinishLocked(st)
	// Publish the accepted output to the result store and immediately
	// satisfy matching pending jobs of every other registered sweep. The
	// publish sits behind the lease fence above, so only the winning
	// completion of a redispatched job reaches the store; racing writers
	// of the same key must therefore produce identical bytes, which Put
	// verifies rather than assumes (a conflict is refused and counted).
	if c.cfg.Store != nil && j.storeKey != "" {
		_, _ = c.cfg.Store.Put(j.storeKey, EncodeOutput(out))
		c.satisfyOthersLocked(st.id, j.storeKey)
	}
	return nil
}

// Release hands a job back gracefully (worker shutdown): the job returns
// to the queue without consuming a dispatch attempt, and the next worker
// resumes from the last uploaded checkpoint.
func (c *Coordinator) Release(sweep, jobID, lease string, stepsDone int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)

	st, j, err := c.lookupLocked(sweep, jobID)
	if err != nil {
		return err
	}
	if j.phase != jobLeased || j.lease != lease {
		mStaleRejects.Inc()
		return ErrStaleLease
	}
	mReleases.Inc()
	j.phase = jobPending
	j.attempts-- // voluntary hand-back does not burn retry budget
	j.lease = ""
	j.stepsDone = stepsDone
	c.clearWorkerJob(j.leaseWorker)
	j.leaseWorker = ""
	c.emitLocked(st.id, dsmc.SweepEvent{Type: "job-released", Job: j.id, StepsDone: stepsDone, StepsTotal: j.stepsTotal})
	return nil
}

// Fail records a worker-reported job error. With budget remaining the
// job is requeued; otherwise it fails permanently and the failure
// propagates through the sweep's DAG.
func (c *Coordinator) Fail(sweep, jobID, lease, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)

	st, j, err := c.lookupLocked(sweep, jobID)
	if err != nil {
		return err
	}
	if j.phase != jobLeased || j.lease != lease {
		mStaleRejects.Inc()
		return ErrStaleLease
	}
	c.clearWorkerJob(j.leaseWorker)
	c.retryOrFailLocked(st, j, msg)
	return nil
}

// Workers reports the fleet as seen by the coordinator, sorted by ID.
// A worker silent for three lease TTLs is reported lost.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)

	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		ws := WorkerStatus{
			ID:             w.id,
			State:          "idle",
			Sweep:          w.sweep,
			Job:            w.job,
			StepsDone:      w.stepsDone,
			StepsTotal:     w.stepsTotal,
			LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		}
		if w.job != "" {
			ws.State = "running"
		}
		if now.Sub(w.lastSeen) > 3*c.cfg.LeaseTTL {
			ws.State = "lost"
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// --- internals (all require c.mu) ---

// expireLocked sweeps every leased job whose heartbeat lapsed: the lease
// is revoked and the job retries or fails permanently. Deterministic
// iteration order (sweep arrival, then job order) keeps event sequences
// reproducible under a fake clock.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, id := range c.order {
		st := c.sweeps[id]
		if st.finished {
			continue
		}
		for _, j := range st.jobs {
			if j.phase == jobLeased && now.After(j.expires) {
				mLeaseExpiries.Inc()
				c.clearWorkerJob(j.leaseWorker)
				c.retryOrFailLocked(st, j, fmt.Sprintf("lease expired (worker %s lost)", j.leaseWorker))
			}
		}
	}
}

// retryOrFailLocked revokes a job's lease after a loss or worker error:
// requeue while attempts remain, else fail permanently and propagate.
func (c *Coordinator) retryOrFailLocked(st *sweepState, j *job, msg string) {
	j.lease = ""
	j.leaseWorker = ""
	if j.attempts < c.cfg.MaxAttempts {
		mRetries.Inc()
		j.phase = jobPending
		c.emitLocked(st.id, dsmc.SweepEvent{
			Type: "job-lost", Job: j.id, StepsDone: j.stepsDone, StepsTotal: j.stepsTotal,
			Err: fmt.Sprintf("%s; attempt %d/%d, will redispatch", msg, j.attempts, c.cfg.MaxAttempts),
		})
		return
	}
	j.phase = jobFailed
	mJobFailures.Inc()
	err := fmt.Sprintf("%s; retry budget exhausted (%d attempts)", msg, j.attempts)
	c.emitLocked(st.id, dsmc.SweepEvent{Type: "job-failed", Job: j.id, Err: err})
	if !st.failed {
		st.failed = true
		st.firstErr = fmt.Sprintf("job %s: %s", j.id, err)
	}
	// Skip propagation, mirroring the in-process executor: every
	// job not yet terminal is skipped (in-flight leases are revoked —
	// their workers learn via heartbeat/upload rejection), and so is
	// every point aggregation that never got to run.
	for _, o := range st.jobs {
		if o.phase == jobPending || o.phase == jobLeased {
			if o.phase == jobLeased {
				c.clearWorkerJob(o.leaseWorker)
			}
			o.phase = jobSkipped
			o.lease = ""
			o.leaseWorker = ""
			c.emitLocked(st.id, dsmc.SweepEvent{Type: "job-skipped", Job: o.id})
		}
	}
	for pt, done := range st.aggDone {
		if !done {
			st.aggDone[pt] = true
			c.emitLocked(st.id, dsmc.SweepEvent{Type: "job-skipped", Job: dsmc.AggregateJobID(st.names[pt])})
		}
	}
	c.maybeFinishLocked(st)
}

// memoLocked tries to satisfy one pending job from the result store.
// On a verified hit the job completes without dispatch — its events are
// emitted so the stream matches a computed run's shape — but no
// completion counter fires: memoized work was not done here. A
// checksum-valid artifact that fails frame decode is quarantined via
// Reject so a recompute can replace it.
func (c *Coordinator) memoLocked(st *sweepState, j *job) bool {
	if c.cfg.Store == nil || j.storeKey == "" || j.phase != jobPending {
		return false
	}
	data, _, ok := c.cfg.Store.Get(j.storeKey)
	if !ok {
		return false
	}
	out, err := DecodeOutput(data)
	if err != nil {
		c.cfg.Store.Reject(j.storeKey)
		return false
	}
	j.phase = jobDone
	j.stepsDone = j.stepsTotal
	j.output = out
	j.ckpt = nil
	c.emitMemoLocked(st.id, j.id)
	return true
}

// emitMemoLocked emits a memoized job's events: it starts and is done.
func (c *Coordinator) emitMemoLocked(sweepID, jobID string) {
	c.emitLocked(sweepID, dsmc.SweepEvent{Type: "job-started", Job: jobID})
	c.emitLocked(sweepID, dsmc.SweepEvent{Type: "job-done", Job: jobID})
}

// satisfyOthersLocked completes every other live sweep's pending jobs
// that share a just-published store key — the cross-sweep half of
// memoization: overlapping sweeps converge on one computation per key.
func (c *Coordinator) satisfyOthersLocked(origin, storeKey string) {
	for _, id := range c.order {
		if id == origin {
			continue
		}
		st := c.sweeps[id]
		if st.finished || st.failed {
			continue
		}
		touched := make([]bool, len(st.points))
		any := false
		for _, j := range st.jobs {
			if j.phase == jobPending && j.storeKey == storeKey && c.memoLocked(st, j) {
				touched[j.point] = true
				any = true
			}
		}
		for pt, t := range touched {
			if t {
				c.maybeAggregateLocked(st, pt)
			}
		}
		if any {
			c.maybeFinishLocked(st)
		}
	}
}

// maybeAggregateLocked emits the aggregate fan-in events once a point's
// replicas are all done, matching the in-process executor's stream.
func (c *Coordinator) maybeAggregateLocked(st *sweepState, pt int) {
	if st.aggDone[pt] {
		return
	}
	for _, j := range st.points[pt] {
		if j.phase != jobDone {
			return
		}
	}
	st.aggDone[pt] = true
	c.emitAggregateLocked(st.id, st.names[pt])
}

// emitAggregateLocked emits a point's fan-in events.
func (c *Coordinator) emitAggregateLocked(sweepID, point string) {
	agg := dsmc.AggregateJobID(point)
	c.emitLocked(sweepID, dsmc.SweepEvent{Type: "job-started", Job: agg})
	c.emitLocked(sweepID, dsmc.SweepEvent{Type: "aggregate-done", Job: agg, Scenario: point})
	c.emitLocked(sweepID, dsmc.SweepEvent{Type: "job-done", Job: agg})
}

// maybeFinishLocked fires onDone once the sweep reaches a terminal
// state: all jobs done (assemble the result off-lock) or the failure
// fully propagated.
func (c *Coordinator) maybeFinishLocked(st *sweepState) {
	if st.finished {
		return
	}
	if st.failed {
		st.finished = true
		if st.onDone != nil {
			err := fmt.Errorf("coord: sweep %s failed: %s", st.id, st.firstErr)
			go st.onDone(nil, err)
		}
		return
	}
	outputs := make([][]*dsmc.ReplicaOutput, len(st.points))
	for pt, jobs := range st.points {
		outputs[pt] = make([]*dsmc.ReplicaOutput, len(jobs))
		for _, j := range jobs {
			if j.phase != jobDone {
				return
			}
			outputs[pt][j.replica] = j.output
		}
	}
	st.finished = true
	if st.onDone != nil {
		spec := st.spec
		onDone := st.onDone
		go func() {
			res, err := dsmc.AssembleSweepResult(spec, outputs)
			onDone(res, err)
		}()
	}
}

func (c *Coordinator) lookupLocked(sweep, jobID string) (*sweepState, *job, error) {
	st, ok := c.sweeps[sweep]
	if !ok {
		return nil, nil, ErrUnknown
	}
	j, ok := st.byID[jobID]
	if !ok {
		return nil, nil, ErrUnknown
	}
	return st, j, nil
}

func (c *Coordinator) touchWorker(id string, now time.Time) {
	w := c.workers[id]
	if w == nil {
		w = &workerState{id: id}
		c.workers[id] = w
	}
	w.lastSeen = now
}

// clearWorkerJob detaches a worker's status row from a lease that ended
// (completed, released, expired, or revoked).
func (c *Coordinator) clearWorkerJob(workerID string) {
	if w := c.workers[workerID]; w != nil {
		w.sweep, w.job = "", ""
		w.stepsDone, w.stepsTotal = 0, 0
	}
}

func (c *Coordinator) emitLocked(sweepID string, e dsmc.SweepEvent) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(sweepID, e)
	}
}

func (c *Coordinator) ckptPath(st *sweepState, j *job) string {
	return filepath.Join(c.cfg.DataDir, st.id, "ckpt", fmt.Sprintf("job-s%03d-r%03d.ckpt", j.point, j.replica))
}

func (c *Coordinator) hasCheckpoint(st *sweepState, j *job) bool {
	if c.cfg.DataDir == "" {
		return len(j.ckpt) > 0
	}
	_, err := os.Stat(c.ckptPath(st, j))
	return err == nil
}
