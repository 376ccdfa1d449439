package coord

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"dsmc"
	"dsmc/internal/obs"
	"dsmc/internal/run"
	"dsmc/internal/store"
)

// Config parameterizes a Coordinator (15s leases, 3 dispatch attempts per
// job unless set). Uploaded checkpoints are files where the sweep's spec
// says — <CheckpointDir>/job-sNNN-rNNN.ckpt, the layout the in-process
// executor uses, so a coordinator restarted over the same directory
// resumes from the checkpoints either path wrote.
type Config struct {
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the job is taken away and redispatched (default 15s).
	LeaseTTL time.Duration
	// MaxAttempts bounds dispatches per job; when a job's lease expires
	// or a worker reports an error and the budget is spent, the job fails
	// permanently and the failure propagates through the DAG (default 3).
	MaxAttempts int
	// Store, which New requires, is the content-addressed result store:
	// a sweep whose result it holds never dispatches, a sweep's jobs are
	// satisfied from finished artifacts at registration, every accepted
	// completion is published under the job's store key and settles the
	// matching pending jobs of every other unfinished sweep with the
	// output in hand, and a finished sweep's result is published here and
	// nowhere else. Reads are checksum-verified; publishes of conflicting
	// bytes under a live key are refused and counted, never silently
	// accepted, and settle nobody.
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

// Coordinator owns the job tables of the sweeps it runs and hands jobs
// to pull-based workers under leases. A sweep's job states, the fold of
// its outputs into aggregates, aggregate events and failure skips are
// its run.Table — the state machine the in-process executor drives too;
// the coordinator adds only the leases, and reads the worker roster from
// them. A sweep is held while it runs; one that fails stays, its rows
// carrying the error, until Forget, and one that succeeds leaves as it
// finishes. All state transitions happen under one mutex; expiry is
// evaluated lazily at the top of every public call, so no background
// goroutine is needed and tests can drive the clock.
type Coordinator struct {
	cfg Config

	// epoch prefixes every lease ID this coordinator grants. It is random
	// per New, so a restarted coordinator never re-issues a lease a worker
	// of its predecessor still holds, though dispatch order is the same.
	epoch string

	mu       sync.Mutex
	order    []string               // unfinished sweep IDs in arrival order (dispatch priority)
	sweeps   map[string]*sweepState // unfinished and failed sweeps
	workers  map[string]*workerState
	leaseSeq uint64
}

// lease is the coordinator's part of one job: who runs it and until when.
type lease struct {
	// id is the current lease while the job runs. It is cleared whenever
	// the job stops running other than by completing, so after completion
	// it is the winning lease: while the sweep is held, a redelivered
	// Complete under it is acked and any other lease is rejected.
	id         string
	worker     string
	expires    time.Time
	granted    time.Time // the latest grant, zero before the first; feeds the job-seconds histogram
	attempts   int       // dispatches consumed against MaxAttempts
	heartbeats int       // heartbeats seen under the current lease
	saves      int       // checkpoint saves begun, naming each one's temp file
	stepsDone  int
}

type sweepState struct {
	id      string
	sweep   *dsmc.Sweep     // its Jobs are in (point, replica) order: the table's job index
	specRaw json.RawMessage // the dispatched spec: coordinator-local paths stripped
	byID    map[string]int
	names   []string // point names
	leases  []lease
	table   *run.Table
	onDone  func(sha string, size int, err error)
}

// workerState is what the coordinator knows of a worker beyond the
// leases that name it: when it last called, and what it last reported.
type workerState struct {
	id       string
	lastSeen time.Time
	// metrics is the worker's last heartbeat-piggybacked instrument
	// snapshot, re-emitted by WriteMetrics under dsmc_fleet_*.
	metrics []obs.Sample
}

// New builds a Coordinator; it refuses a Config without a Store.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, errors.New("coord: no result store")
	}
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
		epoch:   rand.Text(),
		sweeps:  make(map[string]*sweepState),
		workers: make(map[string]*workerState),
	}, nil
}

// table builds the job table of a sweep, emitting through OnEvent under
// the sweep's ID.
func (c *Coordinator) table(id string, sw *dsmc.Sweep) *run.Table {
	return sw.NewTable(func(e run.Event) {
		c.emitLocked(id, dsmc.SweepEvent{Type: string(e.Type), Job: e.Job, Scenario: e.Scenario, Err: e.Err})
	})
}

// AddSweep registers a sweep whose product is its encoded result, the
// only copy of which is the store's object under sw.ResultKey. onDone is
// called once, from a fresh goroutine, with the object's SHA-256 and
// size, or with the first error if the sweep fails. A held ID is refused
// first. A sweep whose result the store holds is never a job DAG, nor
// held: one verification (the object hashed through a fixed buffer) and
// the events the per-job memo pass would have emitted. Otherwise sw's
// Jobs run under sw.Spec's execution fields (Pool, CheckpointDir: it
// must be named, and is created, for uploaded checkpoints are files
// there), those the store holds satisfied at once; on success the result
// is assembled with sw.Assemble and streamed into the store with
// PutStream, and a publish error fails the sweep. Only a worker's
// RunSweepJob lowers the spec again.
func (c *Coordinator) AddSweep(id string, sw *dsmc.Sweep, onDone func(sha string, size int, err error)) error {
	c.mu.Lock()
	_, dup := c.sweeps[id]
	c.mu.Unlock()
	if dup {
		return fmt.Errorf("coord: sweep %q already registered", id)
	}
	if sha, size, ok := c.cfg.Store.Verify(sw.ResultKey); ok {
		c.mu.Lock()
		c.table(id, sw).Satisfy()
		c.mu.Unlock()
		go onDone(sha, int(size), nil)
		return nil
	}
	if sw.Spec.CheckpointDir == "" {
		return fmt.Errorf("coord: sweep %q names no checkpoint directory", id)
	}
	// The dispatched spec must not leak coordinator-local paths: a worker
	// handed them would open (or create) those directories on its own
	// filesystem. Checkpoint placement and memoization are
	// coordinator-side; workers just run.
	wire := sw.Spec
	wire.CheckpointDir, wire.ResultStoreDir = "", ""
	raw, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	st := &sweepState{
		id:      id,
		sweep:   sw,
		specRaw: raw,
		byID:    make(map[string]int, len(sw.Jobs)),
		names:   sw.Spec.PointNames(),
		leases:  make([]lease, len(sw.Jobs)),
		table:   c.table(id, sw),
		onDone:  onDone,
	}
	for i, j := range sw.Jobs {
		st.byID[j.ID] = i
	}
	if err := os.MkdirAll(sw.Spec.CheckpointDir, 0o755); err != nil {
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.sweeps[id]; dup {
		return fmt.Errorf("coord: sweep %q already registered", id) // registered meanwhile
	}
	c.sweeps[id] = st
	c.order = append(c.order, id)
	// Memoization pass: satisfy every job the store already holds before
	// anything dispatches, so overlapping or restarted sweeps never
	// re-dispatch finished work. Runs once per sweep under the lock — the
	// 25ms poll loop never touches the store.
	st.table.Memo(c.cfg.Store)
	c.maybeFinishLocked(st)
	return nil
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
		if _, inflight := st.table.Counts(); st.sweep.Spec.Pool > 0 && inflight >= st.sweep.Spec.Pool {
			continue
		}
		i, ok := st.table.Start()
		if !ok {
			continue
		}
		c.leaseSeq++
		l, j := &st.leases[i], st.sweep.Jobs[i]
		l.id = fmt.Sprintf("%s-l%06d", c.epoch, c.leaseSeq)
		l.worker = workerID
		l.expires = now.Add(c.cfg.LeaseTTL)
		l.granted = now
		l.attempts++
		l.heartbeats = 0
		mLeaseGrants.Inc()
		return &Lease{
			Sweep:         st.id,
			Job:           j.ID,
			Point:         j.Point,
			Replica:       j.Replica,
			StepsTotal:    j.StepsTotal,
			LeaseID:       l.id,
			TTLMillis:     c.cfg.LeaseTTL.Milliseconds(),
			HasCheckpoint: st.hasCheckpoint(i),
			Spec:          st.specRaw,
		}, nil
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

	st, i, err := c.lookupLocked(hb.Sweep, hb.Job)
	if err != nil || !st.held(i, hb.Lease) {
		mStaleRejects.Inc()
		return HBAbandon, nil // lease gone, or sweep evicted or unknown: stop working
	}
	// Only the live lease holder's engine snapshot is kept for /metrics.
	if len(hb.Metrics) > 0 {
		c.workers[hb.Worker].metrics = hb.Metrics
	}
	l, j := &st.leases[i], st.sweep.Jobs[i]
	l.expires = now.Add(c.cfg.LeaseTTL)
	l.heartbeats++
	// Emit progress on change, and unconditionally on a lease's first
	// heartbeat so the event stream always shows a dispatched job moving.
	if hb.StepsDone != l.stepsDone || l.heartbeats == 1 {
		l.stepsDone = hb.StepsDone
		c.emitLocked(st.id, dsmc.SweepEvent{
			Type: "job-progress", Job: j.ID, Scenario: st.names[j.Point], Replica: j.Replica,
			StepsDone: hb.StepsDone, StepsTotal: j.StepsTotal,
		})
	}
	return HBOK, nil
}

// SaveCheckpoint stores a job's checkpoint upload, streamed by write, and
// renews the lease. Saves are idempotent (last write wins); a stale lease
// gets ErrStaleLease and must abandon the job.
//
// The disk work runs outside c.mu. The lease is checked under the lock,
// then write fills and fsyncs a temp file named from the coordinator's
// own grant record (lease ID and save number), so no two writes share a
// file. Then, under the lock again, the lease is checked once more: a
// holder that went stale meanwhile gets ErrStaleLease and its temp file
// is removed, and a live one has its file renamed into place and its
// lease renewed. An orphan left by a crash is a *.tmp file, which dsmcd's
// restart sweeps.
func (c *Coordinator) SaveCheckpoint(sweep, jobID, lease string, write func(io.Writer) error) error {
	c.mu.Lock()
	c.expireLocked(c.cfg.now())
	st, i, err := c.leasedLocked(sweep, jobID, lease)
	var path, tmp string
	if err == nil {
		l := &st.leases[i]
		l.saves++
		path = st.ckpt(i).Path
		tmp = fmt.Sprintf("%s.%s-%d.tmp", path, l.id, l.saves)
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}

	if err := store.WriteSynced(tmp, write); err != nil {
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)
	if st, i, err = c.leasedLocked(sweep, jobID, lease); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	st.leases[i].expires = now.Add(c.cfg.LeaseTTL)
	return nil
}

// LoadCheckpoint returns the job's last uploaded checkpoint (nil when
// none) to the current lease holder. The file is read outside c.mu; a
// save's rename replaces it whole, so the read sees one save or another.
func (c *Coordinator) LoadCheckpoint(sweep, jobID, lease string) ([]byte, error) {
	c.mu.Lock()
	c.expireLocked(c.cfg.now())
	st, i, err := c.leasedLocked(sweep, jobID, lease)
	var ck run.FileCkptStore
	if err == nil {
		ck = st.ckpt(i)
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return ck.Load()
}

// Complete records a job's output. Idempotent: while the sweep is held a
// redelivered Complete under the winning lease is acked; any other lease
// gets ErrStaleLease, and a sweep that is done and gone ErrUnknown.
// An output whose shape does not fit the lowered spec gets ErrBadOutput
// and changes nothing: the lease stays live.
func (c *Coordinator) Complete(sweep, jobID, lease string, out *dsmc.ReplicaOutput) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)

	st, i, err := c.lookupLocked(sweep, jobID)
	if err != nil {
		return err
	}
	l := &st.leases[i]
	if l.id != lease {
		mStaleRejects.Inc()
		return ErrStaleLease
	}
	if !st.table.Running(i) {
		return nil // duplicate delivery of the winning completion
	}
	if err := st.table.Check(i, out); err != nil {
		return fmt.Errorf("%w: job %s: %v", ErrBadOutput, jobID, err)
	}
	st.table.Done(i, out)
	mCompletions.Inc()
	mJobSeconds.Observe(now.Sub(l.granted).Seconds())
	c.maybeFinishLocked(st)
	// Publish the accepted output to the result store, and settle the
	// matching pending jobs of every other live sweep with the output in
	// hand. The publish sits behind the lease fence above, so only the
	// winning completion of a redispatched job reaches the store; racing
	// writers of the same key must therefore produce identical bytes,
	// which Put verifies rather than assumes. A refused (conflicting) or
	// failed publish settles nobody: the other sweeps run the job
	// themselves, and the completion stands.
	key := st.sweep.Jobs[i].StoreKey
	if _, err := c.cfg.Store.Put(key, store.EncodeOutput(out)); err == nil {
		for _, id := range c.order {
			if other := c.sweeps[id]; other != st {
				other.table.Offer(key, out)
				c.maybeFinishLocked(other)
			}
		}
	}
	return nil
}

// Release hands a job back gracefully (worker shutdown): the job returns
// to the queue without consuming a dispatch attempt, and the next worker
// resumes from the last uploaded checkpoint.
func (c *Coordinator) Release(sweep, jobID, lease string, stepsDone int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.now())

	st, i, err := c.leasedLocked(sweep, jobID, lease)
	if err != nil {
		return err
	}
	mReleases.Inc()
	l, j := &st.leases[i], st.sweep.Jobs[i]
	l.attempts-- // voluntary hand-back does not burn retry budget
	l.stepsDone = stepsDone
	l.end()
	st.table.Requeue(i)
	c.emitLocked(st.id, dsmc.SweepEvent{Type: "job-released", Job: j.ID, StepsDone: stepsDone, StepsTotal: j.StepsTotal})
	return nil
}

// Fail records a worker-reported job error. With budget remaining the
// job is requeued; otherwise it fails permanently and the failure
// propagates through the sweep's DAG.
func (c *Coordinator) Fail(sweep, jobID, lease, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.now())

	st, i, err := c.leasedLocked(sweep, jobID, lease)
	if err != nil {
		return err
	}
	c.retryOrFailLocked(st, i, msg)
	return nil
}

// Workers reports the fleet as seen by the coordinator, sorted by ID. A
// worker's sweep, job and steps are those of the running lease that names
// it — the newer grant, should a restarted worker ID hold two. A worker
// silent for three lease TTLs is reported lost.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)

	// The running lease that names each worker, the newer grant winning.
	// Only an unfinished sweep has running jobs.
	type held struct {
		st *sweepState
		i  int
	}
	holds := map[string]held{}
	for _, id := range c.order {
		st := c.sweeps[id]
		for i, l := range st.leases {
			if h, ok := holds[l.worker]; st.table.Running(i) && (!ok || l.granted.After(h.st.leases[h.i].granted)) {
				holds[l.worker] = held{st, i}
			}
		}
	}
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		ws := WorkerStatus{ID: w.id, State: "idle", LastSeenMillis: now.Sub(w.lastSeen).Milliseconds()}
		if h, ok := holds[w.id]; ok {
			l, j := h.st.leases[h.i], h.st.sweep.Jobs[h.i]
			ws.State, ws.Sweep, ws.Job, ws.StepsDone, ws.StepsTotal = "running", h.st.id, j.ID, l.stepsDone, j.StepsTotal
		}
		if c.lost(w, now) {
			ws.State = "lost"
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Jobs reads a sweep's job rows from its run.Table and leases: replicas
// in (point, replica) order, then aggregates; ok is false for a sweep
// not held — one never registered, a store hit, or one done. A job requeued after a lease ended reads "queued" with the
// lease's steps, and the failed job carries the table's error.
func (c *Coordinator) Jobs(sweepID string) (rows []JobStatus, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.now())
	st, ok := c.sweeps[sweepID]
	if !ok {
		return nil, false
	}
	done := make([]int, len(st.names)) // per point: replicas done
	for i, j := range st.sweep.Jobs {
		l := &st.leases[i]
		row := JobStatus{Job: j.ID, State: st.table.State(i)}
		if row.State == "pending" && !l.granted.IsZero() {
			row.State = "queued"
		}
		switch row.State {
		case "running", "queued":
			row.StepsDone, row.StepsTotal = l.stepsDone, j.StepsTotal
		case "failed":
			row.Err = st.table.Err().Error()
		case "done":
			done[j.Point]++
		}
		rows = append(rows, row)
	}
	// An aggregate is reported in the same call as its point's last
	// replica, and a failure skips every aggregate not yet reported.
	for p, name := range st.names {
		row := JobStatus{Job: dsmc.AggregateJobID(name), State: "pending"}
		if done[p] == st.sweep.Spec.Replicas {
			row.State = "done"
		} else if st.table.Err() != nil {
			row.State = "skipped"
		}
		rows = append(rows, row)
	}
	return rows, true
}

// Forget drops a failed sweep's state — its table, leases and spec — so
// a coordinator that runs sweeps for the life of its process holds only
// those its caller still reads. A later call under one of its leases is
// ErrUnknown, which a worker treats as a stale lease, and Jobs reports
// it not held. An unfinished sweep stays.
func (c *Coordinator) Forget(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !slices.Contains(c.order, id) {
		delete(c.sweeps, id)
	}
}

// --- internals (all require c.mu) ---

// expireLocked sweeps every leased job whose heartbeat lapsed: the lease
// is revoked and the job retries or fails permanently. Deterministic
// iteration order (sweep arrival, then job order) keeps event sequences
// reproducible under a fake clock.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, id := range c.order {
		st := c.sweeps[id]
		for i := range st.leases {
			if l := &st.leases[i]; st.table.Running(i) && now.After(l.expires) {
				mLeaseExpiries.Inc()
				c.retryOrFailLocked(st, i, fmt.Sprintf("lease expired (worker %s lost)", l.worker))
			}
		}
	}
}

// retryOrFailLocked ends a job's lease after a loss or worker error:
// requeue while attempts remain, else fail the job permanently. Every
// other lease of the sweep is then revoked — its worker learns through
// the heartbeat or upload rejection — and the table skips what is left.
func (c *Coordinator) retryOrFailLocked(st *sweepState, i int, msg string) {
	l, j := &st.leases[i], st.sweep.Jobs[i]
	l.end()
	if l.attempts < c.cfg.MaxAttempts {
		mRetries.Inc()
		st.table.Requeue(i)
		c.emitLocked(st.id, dsmc.SweepEvent{
			Type: "job-lost", Job: j.ID, StepsDone: l.stepsDone, StepsTotal: j.StepsTotal,
			Err: fmt.Sprintf("%s; attempt %d/%d, will redispatch", msg, l.attempts, c.cfg.MaxAttempts),
		})
		return
	}
	mJobFailures.Inc()
	for k := range st.leases {
		if st.table.Running(k) {
			st.leases[k].end()
		}
	}
	st.table.Fail(i, fmt.Errorf("%s; retry budget exhausted (%d attempts)", msg, l.attempts))
	c.maybeFinishLocked(st)
}

// maybeFinishLocked fires onDone once the sweep's table has finished:
// every job done or the failure fully propagated. The sweep leaves the
// dispatch order; a failed one stays held for its rows, and a done one
// leaves while its goroutine assembles and publishes the result.
func (c *Coordinator) maybeFinishLocked(st *sweepState) {
	i := slices.Index(c.order, st.id)
	if i < 0 || !st.table.Finished() {
		return // finished before, or not yet
	}
	// A new slice, not an edit in place: a caller ranging over the order
	// (expiry, a completion's offer to the other sweeps) finishes over the
	// one it started with.
	c.order = append(c.order[:i:i], c.order[i+1:]...)
	aggs := st.table.Aggregates()
	if err := st.table.Err(); err != nil {
		go st.onDone("", 0, fmt.Errorf("coord: sweep %s failed: %w", st.id, err))
		return
	}
	delete(c.sweeps, st.id)
	go func() {
		sha, size, err := c.cfg.Store.PutStream(st.sweep.ResultKey, func(w io.Writer) error {
			return dsmc.WriteSweepResult(w, st.sweep.Assemble(aggs))
		})
		st.onDone(sha, int(size), err)
	}()
}

func (c *Coordinator) lookupLocked(sweep, jobID string) (*sweepState, int, error) {
	st, ok := c.sweeps[sweep]
	if !ok {
		return nil, 0, ErrUnknown
	}
	i, ok := st.byID[jobID]
	if !ok {
		return nil, 0, ErrUnknown
	}
	return st, i, nil
}

// leasedLocked is lookupLocked for a mutation under lease: ErrStaleLease
// (counted) unless lease is the running job's current lease.
func (c *Coordinator) leasedLocked(sweep, jobID, lease string) (*sweepState, int, error) {
	st, i, err := c.lookupLocked(sweep, jobID)
	if err == nil && !st.held(i, lease) {
		mStaleRejects.Inc()
		err = ErrStaleLease
	}
	return st, i, err
}

// held reports whether lease is running job i's current lease.
func (st *sweepState) held(i int, lease string) bool {
	return st.table.Running(i) && st.leases[i].id == lease
}

func (c *Coordinator) touchWorker(id string, now time.Time) {
	w := c.workers[id]
	if w == nil {
		w = &workerState{id: id}
		c.workers[id] = w
	}
	w.lastSeen = now
}

// lost reports whether a worker has been silent for three lease TTLs.
func (c *Coordinator) lost(w *workerState, now time.Time) bool {
	return now.Sub(w.lastSeen) > 3*c.cfg.LeaseTTL
}

// end revokes a lease that ended without a result (lost, released,
// failed or skipped): every later call under its ID is stale, and no
// worker's status row shows the job.
func (l *lease) end() {
	l.id, l.worker = "", ""
}

func (c *Coordinator) emitLocked(sweepID string, e dsmc.SweepEvent) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(sweepID, e)
	}
}

// ckpt is job i's checkpoint file under the spec's checkpoint directory,
// the name the in-process executor gives it.
func (st *sweepState) ckpt(i int) run.FileCkptStore {
	j := st.sweep.Jobs[i]
	return run.FileCkptStore{Path: run.JobCkptPath(st.sweep.Spec.CheckpointDir, j.Point, j.Replica)}
}

func (st *sweepState) hasCheckpoint(i int) bool {
	_, err := os.Stat(st.ckpt(i).Path)
	return err == nil
}
