package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmc"
	"dsmc/internal/obs"
	"dsmc/internal/store"
)

// tinySpec is a fast two-replica, one-point sweep used across tests.
func tinySpec() dsmc.SweepSpec {
	cfg := dsmc.PaperWedgeTunnel()
	cfg.GridNX, cfg.GridNY = 48, 24
	cfg.Wedge = dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30}
	cfg.ParticlesPerCell = 3
	cfg.Seed = 7
	scenario, err := dsmc.NewScenarioSpec(cfg)
	if err != nil {
		panic(err)
	}
	return dsmc.SweepSpec{
		Name:            "coord-test",
		Scenario:        scenario,
		Points:          []dsmc.SweepPoint{{Name: "rarefied"}},
		Replicas:        2,
		WarmSteps:       2,
		SampleSteps:     6,
		CheckpointEvery: 2,
	}
}

// sweepOf lowers a spec for AddSweep, giving it a temporary checkpoint
// directory when it names none.
func sweepOf(t testing.TB, spec dsmc.SweepSpec) *dsmc.Sweep {
	if spec.CheckpointDir == "" {
		spec.CheckpointDir = t.TempDir()
	}
	sw, err := dsmc.NewSweep(spec)
	if err != nil {
		panic(err)
	}
	return sw
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}
func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// eventLog records emitted events thread-safely.
type eventLog struct {
	mu     sync.Mutex
	events []dsmc.SweepEvent
}

func (l *eventLog) add(_ string, e dsmc.SweepEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *eventLog) count(typ, job string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Type == typ && (job == "" || e.Job == job) {
			n++
		}
	}
	return n
}

// testStore adapts coordinator checkpoint calls into a JobCheckpoint for
// driving RunSweepJob by hand under a specific lease.
type testStore struct {
	c *Coordinator
	l *Lease
}

func (s testStore) Load() ([]byte, error)  { return s.c.LoadCheckpoint(s.l.Sweep, s.l.Job, s.l.LeaseID) }
func (s testStore) Save(data []byte) error { return s.SaveStream(payload(data)) }
func (s testStore) SaveStream(write func(io.Writer) error) error {
	return s.c.SaveCheckpoint(s.l.Sweep, s.l.Job, s.l.LeaseID, write)
}
func (s testStore) Discard() error { return nil }

// payload is a checkpoint write function that writes data.
func payload(data []byte) func(io.Writer) error {
	return func(w io.Writer) error { _, err := w.Write(data); return err }
}

func runLeasedJob(t *testing.T, c *Coordinator, l *Lease) *dsmc.ReplicaOutput {
	t.Helper()
	var spec dsmc.SweepSpec
	if err := json.Unmarshal(l.Spec, &spec); err != nil {
		t.Fatalf("lease spec: %v", err)
	}
	out, err := dsmc.RunSweepJob(context.Background(), spec, l.Point, l.Replica,
		dsmc.SweepJobIO{Checkpoint: testStore{c, l}})
	if err != nil {
		t.Fatalf("run job %s: %v", l.Job, err)
	}
	return out
}

func mustPoll(t *testing.T, c *Coordinator, worker string) *Lease {
	t.Helper()
	l, err := c.Poll(worker)
	if err != nil {
		t.Fatalf("poll %s: %v", worker, err)
	}
	if l == nil {
		t.Fatalf("poll %s: expected a lease, got none", worker)
	}
	return l
}

// TestOutputCodecRoundTrip checks the binary codec is bit-exact,
// including the NaN shock angle JSON cannot carry.
func TestOutputCodecRoundTrip(t *testing.T) {
	spec := tinySpec()
	out, err := dsmc.RunSweepJob(context.Background(), spec, 0, 0, dsmc.SweepJobIO{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := store.DecodeOutput(store.EncodeOutput(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Fields) != len(out.Fields) {
		t.Fatalf("field count %d != %d", len(dec.Fields), len(out.Fields))
	}
	for name, col := range out.Fields {
		got := dec.Fields[name]
		if len(got) != len(col) {
			t.Fatalf("field %s length %d != %d", name, len(got), len(col))
		}
		for i := range col {
			if got[i] != col[i] {
				t.Fatalf("field %s[%d]: %v != %v", name, i, got[i], col[i])
			}
		}
	}
	if dec.Collisions != out.Collisions || dec.NFlow != out.NFlow {
		t.Fatalf("diagnostics differ: %+v vs %+v", dec, out)
	}
	// NaN round-trip: same bit pattern counts as equal here.
	if (dec.ShockAngleDeg == dec.ShockAngleDeg) != (out.ShockAngleDeg == out.ShockAngleDeg) {
		t.Fatalf("shock angle NaN-ness differs")
	}

	// Corruption must be detected, not decoded.
	enc := store.EncodeOutput(out)
	enc[len(enc)/2] ^= 0x40
	if _, err := store.DecodeOutput(enc); err == nil {
		t.Fatal("corrupted output decoded without error")
	}
}

// TestLeaseExpiryEdgeCases drives the fake clock through the awkward
// windows: a heartbeat landing just after expiry, uploads and
// completions from the expired lease, and duplicate completion from the
// winning lease.
func TestLeaseExpiryEdgeCases(t *testing.T) {
	clk := newFakeClock()
	var log eventLog
	c := New(Config{LeaseTTL: 10 * time.Second, MaxAttempts: 3, OnEvent: log.add, now: clk.now})
	if err := c.AddSweep("sw", sweepOf(t, tinySpec()), nil); err != nil {
		t.Fatal(err)
	}

	l1 := mustPoll(t, c, "w1")
	if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: l1.Sweep, Job: l1.Job, Lease: l1.LeaseID}); status != HBOK {
		t.Fatalf("live heartbeat: got %q", status)
	}

	// The lease expires; the worker's next heartbeat arrives just after.
	clk.advance(11 * time.Second)
	status, err := c.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: l1.Sweep, Job: l1.Job, Lease: l1.LeaseID})
	if err != nil || status != HBAbandon {
		t.Fatalf("post-expiry heartbeat: got %q, %v; want abandon", status, err)
	}
	// Stale uploads and completions are rejected idempotently.
	if err := c.SaveCheckpoint(l1.Sweep, l1.Job, l1.LeaseID, payload([]byte("x"))); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale upload: got %v, want ErrStaleLease", err)
	}
	if err := c.Complete(l1.Sweep, l1.Job, l1.LeaseID, &dsmc.ReplicaOutput{}); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete: got %v, want ErrStaleLease", err)
	}
	if n := log.count("job-lost", l1.Job); n != 1 {
		t.Fatalf("job-lost events for %s: got %d, want 1", l1.Job, n)
	}

	// The job redispatches to another worker, which completes it.
	l2 := mustPoll(t, c, "w2")
	if l2.Job != l1.Job {
		t.Fatalf("redispatch: got %s, want %s", l2.Job, l1.Job)
	}
	if l2.LeaseID == l1.LeaseID {
		t.Fatal("redispatch reused the lease ID")
	}
	out := runLeasedJob(t, c, l2)
	if err := c.Complete(l2.Sweep, l2.Job, l2.LeaseID, out); err != nil {
		t.Fatalf("complete: %v", err)
	}
	// Duplicate completion from the winning lease is acked; the loser
	// still gets a stale rejection.
	if err := c.Complete(l2.Sweep, l2.Job, l2.LeaseID, out); err != nil {
		t.Fatalf("duplicate complete: %v", err)
	}
	if err := c.Complete(l1.Sweep, l1.Job, l1.LeaseID, out); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("loser complete: got %v, want ErrStaleLease", err)
	}
	if n := log.count("job-done", l2.Job); n != 1 {
		t.Fatalf("job-done events: got %d, want 1", n)
	}
}

// TestDoubleDispatchPrevention: a leased job is never handed out again
// before its lease expires, and an idle coordinator answers "no work".
func TestDoubleDispatchPrevention(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: 10 * time.Second, now: clk.now})
	if err := c.AddSweep("sw", sweepOf(t, tinySpec()), nil); err != nil {
		t.Fatal(err)
	}

	l1 := mustPoll(t, c, "w1")
	l2 := mustPoll(t, c, "w2")
	if l1.Job == l2.Job {
		t.Fatalf("double dispatch: both workers got %s", l1.Job)
	}
	// Both replicas are leased; a third poll gets nothing, even repeated.
	for i := 0; i < 3; i++ {
		if l, _ := c.Poll("w3"); l != nil {
			t.Fatalf("poll with all jobs leased returned %s", l.Job)
		}
		clk.advance(time.Second)
	}
	// Heartbeats keep both leases alive across what would be an expiry.
	for i := 0; i < 3; i++ {
		clk.advance(6 * time.Second)
		for _, l := range []*Lease{l1, l2} {
			if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w", Sweep: l.Sweep, Job: l.Job, Lease: l.LeaseID}); status != HBOK {
				t.Fatalf("heartbeat lost lease %s", l.Job)
			}
		}
		if l, _ := c.Poll("w3"); l != nil {
			t.Fatalf("heartbeat-renewed job redispatched: %s", l.Job)
		}
	}
}

// TestRetryBudgetExhaustion: a job that keeps losing its lease fails
// permanently, the point's aggregate and undispatched jobs are skipped,
// and the sweep reports the first error.
func TestRetryBudgetExhaustion(t *testing.T) {
	clk := newFakeClock()
	var log eventLog
	done := make(chan error, 1)
	c := New(Config{LeaseTTL: 10 * time.Second, MaxAttempts: 2, OnEvent: log.add, now: clk.now})
	err := c.AddSweep("sw", sweepOf(t, tinySpec()), func(res *dsmc.SweepResult, err error) {
		if res != nil {
			done <- errors.New("got a result from a failed sweep")
			return
		}
		done <- err
	})
	if err != nil {
		t.Fatal(err)
	}

	first := mustPoll(t, c, "w1")
	for attempt := 1; ; attempt++ {
		clk.advance(11 * time.Second)
		l, _ := c.Poll("w1")
		if l == nil {
			break
		}
		if l.Job != first.Job {
			t.Fatalf("attempt %d dispatched %s, want %s", attempt, l.Job, first.Job)
		}
		if attempt > 4 {
			t.Fatal("job kept redispatching past its budget")
		}
	}

	if n := log.count("job-failed", first.Job); n != 1 {
		t.Fatalf("job-failed events: got %d, want 1", n)
	}
	agg := dsmc.AggregateJobID("rarefied")
	if n := log.count("job-skipped", agg); n != 1 {
		t.Fatalf("aggregate skip events: got %d, want 1", n)
	}
	if n := log.count("job-skipped", ""); n != 2 { // sibling replica + aggregate
		t.Fatalf("job-skipped events: got %d, want 2", n)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("failed sweep finished without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never finished after failure")
	}
	// The failed sweep offers no more work.
	if l, _ := c.Poll("w9"); l != nil {
		t.Fatalf("failed sweep dispatched %s", l.Job)
	}
}

// TestRedispatchResumeBitIdentity is the heart of the failure model: a
// worker checkpoints, dies (lease expires), the job redispatches, the
// second worker resumes from the uploaded checkpoint — and the sweep's
// result is bit-identical to an uninterrupted in-process run.
func TestRedispatchResumeBitIdentity(t *testing.T) {
	spec := tinySpec()
	want, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	clk := newFakeClock()
	done := make(chan struct {
		res *dsmc.SweepResult
		err error
	}, 1)
	c := New(Config{LeaseTTL: 10 * time.Second, now: clk.now})
	err = c.AddSweep("sw", sweepOf(t, spec), func(res *dsmc.SweepResult, err error) {
		done <- struct {
			res *dsmc.SweepResult
			err error
		}{res, err}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 leases r000, runs a few steps (uploading checkpoints),
	// then "crashes": its context dies and it never completes.
	l1 := mustPoll(t, c, "w1")
	var spec1 dsmc.SweepSpec
	if err := json.Unmarshal(l1.Spec, &spec1); err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	_, err = dsmc.RunSweepJob(ctx1, spec1, l1.Point, l1.Replica, dsmc.SweepJobIO{
		Checkpoint: testStore{c, l1},
		Progress: func(step, total int) {
			if step >= 4 {
				cancel1() // die mid-job, checkpoint already uploaded
			}
		},
	})
	cancel1()
	if err == nil {
		t.Fatal("crashed job reported success")
	}

	// Its lease lapses; the job redispatches with the checkpoint flagged.
	clk.advance(11 * time.Second)
	l2 := mustPoll(t, c, "w2")
	if l2.Job != l1.Job {
		t.Fatalf("redispatched %s, want %s", l2.Job, l1.Job)
	}
	if !l2.HasCheckpoint {
		t.Fatal("redispatched lease does not advertise the uploaded checkpoint")
	}
	if err := c.Complete(l2.Sweep, l2.Job, l2.LeaseID, runLeasedJob(t, c, l2)); err != nil {
		t.Fatal(err)
	}

	// The sibling replica runs normally.
	l3 := mustPoll(t, c, "w2")
	if err := c.Complete(l3.Sweep, l3.Job, l3.LeaseID, runLeasedJob(t, c, l3)); err != nil {
		t.Fatal(err)
	}

	select {
	case fin := <-done:
		if fin.err != nil {
			t.Fatal(fin.err)
		}
		gotJSON, err := json.Marshal(fin.res)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatal("redispatched+resumed sweep result differs from uninterrupted run")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never finished")
	}
}

// flakyUploads fails checkpoint uploads while left is positive, as a
// dropped connection would, and forwards the rest.
type flakyUploads struct {
	Queue
	left *atomic.Int32
}

func (q flakyUploads) SaveCheckpoint(ctx context.Context, l *Lease, write func(io.Writer) error) error {
	if q.left.Add(-1) >= 0 {
		return errors.New("injected upload failure")
	}
	return q.Queue.SaveCheckpoint(ctx, l, write)
}

// TestWorkersEndToEnd runs real pull-workers against an in-process
// coordinator — one worker whose first two uploads fail (absorbed by
// retry/backoff) — and checks the assembled result is bit-identical to
// dsmc.RunSweep.
func TestWorkersEndToEnd(t *testing.T) {
	spec := tinySpec()
	want, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	var log eventLog
	done := make(chan struct {
		res *dsmc.SweepResult
		err error
	}, 1)
	c := New(Config{LeaseTTL: time.Second, OnEvent: log.add})
	err = c.AddSweep("sw", sweepOf(t, spec), func(res *dsmc.SweepResult, err error) {
		done <- struct {
			res *dsmc.SweepResult
			err error
		}{res, err}
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var failsLeft atomic.Int32
	failsLeft.Store(2)
	for i, q := range []Queue{flakyUploads{LocalQueue{c}, &failsLeft}, LocalQueue{c}} {
		w := NewWorker(WorkerConfig{
			ID:        []string{"flaky", "steady"}[i],
			Queue:     q,
			PollEvery: 10 * time.Millisecond,
			RetryBase: 5 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	select {
	case fin := <-done:
		if fin.err != nil {
			t.Fatal(fin.err)
		}
		gotJSON, _ := json.Marshal(fin.res)
		if string(gotJSON) != string(wantJSON) {
			t.Fatal("distributed sweep result differs from in-process run")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("distributed sweep never finished")
	}
	cancel()
	wg.Wait()

	if n := log.count("job-done", ""); n < 2 {
		t.Fatalf("job-done events: got %d, want >= 2", n)
	}
	ws := c.Workers()
	if len(ws) != 2 {
		t.Fatalf("worker fleet: got %d, want 2", len(ws))
	}
}

// errDark is the answer to every call a dark worker makes.
var errDark = errors.New("worker is dark")

// darkQueue forwards a worker's calls until its first checkpoint upload
// lands, then goes dark: every later call fails and none is forwarded,
// as if the worker's host had dropped off the network mid-job.
type darkQueue struct {
	LocalQueue
	dark chan struct{} // closed when the queue goes dark
	once *sync.Once
}

func (q darkQueue) gone() bool {
	select {
	case <-q.dark:
		return true
	default:
		return false
	}
}

func (q darkQueue) Poll(ctx context.Context, workerID string) (*Lease, error) {
	if q.gone() {
		return nil, errDark
	}
	return q.LocalQueue.Poll(ctx, workerID)
}
func (q darkQueue) Heartbeat(ctx context.Context, hb Heartbeat) (string, error) {
	if q.gone() {
		return "", errDark
	}
	return q.LocalQueue.Heartbeat(ctx, hb)
}
func (q darkQueue) LoadCheckpoint(ctx context.Context, l *Lease) ([]byte, error) {
	if q.gone() {
		return nil, errDark
	}
	return q.LocalQueue.LoadCheckpoint(ctx, l)
}
func (q darkQueue) SaveCheckpoint(ctx context.Context, l *Lease, write func(io.Writer) error) error {
	if q.gone() {
		return errDark
	}
	err := q.LocalQueue.SaveCheckpoint(ctx, l, write)
	if err == nil {
		q.once.Do(func() { close(q.dark) })
	}
	return err
}
func (q darkQueue) Complete(ctx context.Context, l *Lease, out *dsmc.ReplicaOutput) error {
	if q.gone() {
		return errDark
	}
	return q.LocalQueue.Complete(ctx, l, out)
}
func (q darkQueue) Release(ctx context.Context, l *Lease, stepsDone int) error {
	if q.gone() {
		return errDark
	}
	return q.LocalQueue.Release(ctx, l, stepsDone)
}
func (q darkQueue) Fail(ctx context.Context, l *Lease, msg string) error {
	if q.gone() {
		return errDark
	}
	return q.LocalQueue.Fail(ctx, l, msg)
}

// TestDarkWorkerLeaseExpiry: a worker goes dark mid-job, after uploading
// a checkpoint. Nothing it sends arrives any more, so its lease expires
// on the real clock; two surviving workers take the job over from the
// uploaded checkpoint and finish the sweep, whose result is bit-identical
// to dsmc.RunSweep.
func TestDarkWorkerLeaseExpiry(t *testing.T) {
	spec := tinySpec()
	want, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	var log eventLog
	done := make(chan *dsmc.SweepResult, 1)
	c := New(Config{LeaseTTL: 300 * time.Millisecond, MaxAttempts: 3, OnEvent: log.add})
	err = c.AddSweep("sw", sweepOf(t, spec), func(res *dsmc.SweepResult, err error) {
		if err != nil {
			t.Error(err)
		}
		done <- res
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	run := func(id string, q Queue) {
		w := NewWorker(WorkerConfig{ID: id, Queue: q, PollEvery: 10 * time.Millisecond, RetryBase: 5 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	// The dark worker runs alone first, so it leases a job and uploads a
	// checkpoint of it before anyone else polls.
	dq := darkQueue{LocalQueue{c}, make(chan struct{}), new(sync.Once)}
	run("dark", dq)
	select {
	case <-dq.dark:
	case <-time.After(30 * time.Second):
		t.Fatal("the dark worker never uploaded a checkpoint")
	}
	run("survivor-0", LocalQueue{c})
	run("survivor-1", LocalQueue{c})

	select {
	case res := <-done:
		if gotJSON, _ := json.Marshal(res); string(gotJSON) != string(wantJSON) {
			t.Fatal("the sweep a dark worker left differs from the in-process run")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the survivors never finished the sweep")
	}
	cancel()
	wg.Wait()

	log.mu.Lock()
	defer log.mu.Unlock()
	for _, e := range log.events {
		if e.Type == "job-lost" && strings.Contains(e.Err, "lease expired (worker dark lost)") {
			return
		}
	}
	t.Error("the dark worker's lease never expired")
}

// staleUpload answers the first checkpoint upload with ErrStaleLease, as
// a coordinator that has redispatched the job would, then records the
// calls the worker makes under that lease and closes polled on its next
// poll.
type staleUpload struct {
	LocalQueue
	polled chan struct{}

	mu    sync.Mutex
	stale string   // the lease the upload was refused under
	after []string // calls made under it since
}

// refused reports whether l is the stale lease, recording call if so;
// the first upload's lease becomes it.
func (q *staleUpload) refused(l *Lease, call string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.stale == "" && call == "upload":
		q.stale = l.LeaseID
	case q.stale == l.LeaseID:
		q.after = append(q.after, call)
	default:
		return false
	}
	return true
}

func (q *staleUpload) Poll(ctx context.Context, workerID string) (*Lease, error) {
	q.mu.Lock()
	if q.stale != "" && q.polled != nil {
		close(q.polled)
		q.polled = nil
	}
	q.mu.Unlock()
	return q.LocalQueue.Poll(ctx, workerID)
}
func (q *staleUpload) SaveCheckpoint(ctx context.Context, l *Lease, write func(io.Writer) error) error {
	if q.refused(l, "upload") {
		return ErrStaleLease
	}
	return q.LocalQueue.SaveCheckpoint(ctx, l, write)
}
func (q *staleUpload) Complete(ctx context.Context, l *Lease, out *dsmc.ReplicaOutput) error {
	if q.refused(l, "complete") {
		return ErrStaleLease
	}
	return q.LocalQueue.Complete(ctx, l, out)
}
func (q *staleUpload) Release(ctx context.Context, l *Lease, stepsDone int) error {
	if q.refused(l, "release") {
		return ErrStaleLease
	}
	return q.LocalQueue.Release(ctx, l, stepsDone)
}
func (q *staleUpload) Fail(ctx context.Context, l *Lease, msg string) error {
	if q.refused(l, "fail") {
		return ErrStaleLease
	}
	return q.LocalQueue.Fail(ctx, l, msg)
}

// TestStaleUploadAbandonsJob: a checkpoint upload answered ErrStaleLease
// means the job is someone else's. The worker abandons it, sends nothing
// more under that lease (no completion, release or failure) and goes
// back to polling.
func TestStaleUploadAbandonsJob(t *testing.T) {
	c := New(Config{LeaseTTL: 30 * time.Second})
	if err := c.AddSweep("sw", sweepOf(t, tinySpec()), nil); err != nil {
		t.Fatal(err)
	}
	polled := make(chan struct{})
	q := &staleUpload{LocalQueue: LocalQueue{c}, polled: polled}
	w := NewWorker(WorkerConfig{ID: "w1", Queue: q, PollEvery: 5 * time.Millisecond, RetryBase: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.Run(ctx)
	}()
	select {
	case <-polled:
	case <-time.After(30 * time.Second):
		t.Error("the worker never polled again after its upload was refused as stale")
	}
	cancel()
	<-stopped
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stale == "" {
		t.Fatal("the worker uploaded no checkpoint")
	}
	if len(q.after) > 0 {
		t.Fatalf("after the stale upload the worker sent %v under lease %s", q.after, q.stale)
	}
}

// TestHeartbeatCannotCorruptMetrics: the coordinator's /metrics
// re-emits only the live lease holder's engine snapshot, drops a sample
// that would not render as one exposition line, and escapes the worker
// label, so no heartbeat can make the scrape unparsable or plant a
// metric family in it.
func TestHeartbeatCannotCorruptMetrics(t *testing.T) {
	c := New(Config{LeaseTTL: 30 * time.Second})
	if err := c.AddSweep("sw", sweepOf(t, tinySpec()), nil); err != nil {
		t.Fatal(err)
	}
	const id = "w\"1\\\n" // a quote, a backslash and a newline
	l := mustPoll(t, c, id)
	injected := obs.Sample{Name: "dsmc_engine_steps_total", Labels: "{a=\"1\"}\ninjected_total 1\n", Value: 1}
	planted := obs.Sample{Name: "dsmc_engine_planted_total", Value: 1}
	if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "stranger", Sweep: "nope", Job: l.Job, Lease: l.LeaseID,
		Metrics: []obs.Sample{injected, planted}}); status != HBAbandon {
		t.Fatalf("heartbeat for an unknown sweep: %q, want abandon", status)
	}
	if status, _ := c.HandleHeartbeat(Heartbeat{Worker: id, Sweep: l.Sweep, Job: l.Job, Lease: l.LeaseID,
		Metrics: []obs.Sample{injected, {Name: "bad name", Value: 1}, {Name: "dsmc_engine_steps_total", Labels: `{phase="sort"}`, Value: 7}},
	}); status != HBOK {
		t.Fatalf("live holder's heartbeat: %q, want ok", status)
	}
	var b strings.Builder
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("the scrape does not parse: %v\n%s", err, b.String())
	}
	for key := range got {
		if strings.HasPrefix(key, "injected") || strings.Contains(key, "planted") {
			t.Errorf("the scrape has %s, planted by a heartbeat", key)
		}
	}
	if v, ok := got[`dsmc_fleet_engine_steps_total{worker="w\"1\\\n",phase="sort"}`]; !ok || v != 7 {
		t.Errorf("the live holder's valid sample is missing from the scrape:\n%s", b.String())
	}
}

// TestGracefulReleaseResume: cancelling a worker mid-job checkpoints,
// releases the lease without burning retry budget, and a second worker
// resumes to a bit-identical result.
func TestGracefulReleaseResume(t *testing.T) {
	spec := tinySpec()
	spec.SampleSteps = 60 // long enough to cancel mid-flight
	spec.CheckpointEvery = 2
	want, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	var log eventLog
	done := make(chan struct {
		res *dsmc.SweepResult
		err error
	}, 1)
	c := New(Config{LeaseTTL: time.Second, OnEvent: log.add})
	err = c.AddSweep("sw", sweepOf(t, spec), func(res *dsmc.SweepResult, err error) {
		done <- struct {
			res *dsmc.SweepResult
			err error
		}{res, err}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 starts, then is shut down as soon as it reports progress.
	ctx1, cancel1 := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	w1 := NewWorker(WorkerConfig{
		ID: "leaver", Queue: localProgressQueue{LocalQueue{c}, func(hb Heartbeat) {
			if hb.StepsDone >= 4 {
				once.Do(func() { close(started) })
			}
		}},
		PollEvery: 5 * time.Millisecond, RetryBase: 5 * time.Millisecond,
	})
	w1done := make(chan struct{})
	go func() {
		defer close(w1done)
		w1.Run(ctx1)
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 never made progress")
	}
	cancel1()
	select {
	case <-w1done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 never drained")
	}
	if n := log.count("job-released", ""); n != 1 {
		t.Fatalf("job-released events: got %d, want 1", n)
	}

	// Worker 2 finishes the sweep, resuming the released job.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w2 := NewWorker(WorkerConfig{
		ID: "finisher", Queue: LocalQueue{c},
		PollEvery: 5 * time.Millisecond, RetryBase: 5 * time.Millisecond,
	})
	w2done := make(chan struct{})
	go func() {
		defer close(w2done)
		w2.Run(ctx2)
	}()

	select {
	case fin := <-done:
		if fin.err != nil {
			t.Fatal(fin.err)
		}
		gotJSON, _ := json.Marshal(fin.res)
		if string(gotJSON) != string(wantJSON) {
			t.Fatal("released+resumed sweep result differs from uninterrupted run")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep never finished after release")
	}
	cancel2()
	<-w2done
}

// localProgressQueue lets a test observe heartbeats flowing through a
// LocalQueue.
type localProgressQueue struct {
	LocalQueue
	onHB func(Heartbeat)
}

func (q localProgressQueue) Heartbeat(ctx context.Context, hb Heartbeat) (string, error) {
	q.onHB(hb)
	return q.LocalQueue.Heartbeat(ctx, hb)
}

// TestSweepStoredHitAllocs: a sweep whose encoded result the store already
// holds is verified by hashing the object through a fixed buffer, so a
// multi-megabyte result costs the submit a few kilobytes, not its size.
func TestSweepStoredHitAllocs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	sw := sweepOf(t, tinySpec())
	result := bytes.Repeat([]byte("0123456789abcdef"), 4<<20/16)
	sha, err := st.Put(sw.ResultKey, result)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Store: st})
	type fin struct {
		sha  string
		size int
		err  error
	}
	done := make(chan fin, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = c.AddSweepStored("sw", sw, func(sha string, size int, err error) {
		done <- fin{sha, size, err}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := <-done
	runtime.ReadMemStats(&after)
	if got.err != nil || got.sha != sha || got.size != len(result) {
		t.Fatalf("hit finished with sha %s, size %d, err %v; want %s, %d, nil", got.sha, got.size, got.err, sha, len(result))
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 256<<10 {
		t.Errorf("a store hit on a %d-byte result allocated %d bytes, want <= 256 KiB", len(result), d)
	}
}

// TestSweepStoredPublishAllocs: a cold sweep's result goes from the
// SweepResult into the store in one streaming pass, as AddSweepStored
// publishes it, so a paper-size result (2 points × 3 quantities × 98×64
// cells, over 3 MB encoded) costs the publish a fixed buffer, not copies
// of its encoding.
func TestSweepStoredPublishAllocs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const cells = 98 * 64
	x := 0.1234567890123
	column := func() []float64 {
		xs := make([]float64, cells)
		for i := range xs {
			x = x*3.9*(1-x) + 1e-3 // deterministic values of full precision
			xs[i] = x
		}
		return xs
	}
	res := &dsmc.SweepResult{Name: "paper-size"}
	for p := range 2 {
		pr := dsmc.PointResult{
			Name: fmt.Sprintf("point-%d", p), Kind: "wedge", Replicas: 4,
			Fields:        map[dsmc.Quantity]dsmc.FieldStats{},
			ShockAngleDeg: dsmc.ScalarStats{Mean: 45.1, Variance: 0.3, CI95: 0.5, N: 4},
		}
		for _, q := range []dsmc.Quantity{dsmc.Density, dsmc.Temperature, dsmc.MachNumber} {
			pr.Fields[q] = dsmc.FieldStats{NX: 98, NY: 64, Mean: column(), Variance: column(), CI95: column()}
		}
		pr.Density = pr.Fields[dsmc.Density]
		res.Points = append(res.Points, pr)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, size, err := st.PutStream("res-paper-size", func(w io.Writer) error { return dsmc.WriteSweepResult(w, res) })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if size < 3<<20 {
		t.Fatalf("the synthetic result encodes to %d bytes, want a paper-size one of at least 3 MiB", size)
	}
	d := after.TotalAlloc - before.TotalAlloc
	if d > 512<<10 {
		t.Errorf("publishing a %d-byte result allocated %d bytes, want <= 512 KiB", size, d)
	}
	t.Logf("a %d-byte result published with %d bytes allocated", size, d)
}

// TestFinishedSweepReleasesOutputs: the coordinator folds each replica
// output into its point's aggregate as it lands and keeps none of them —
// once onDone has run, every output handed to Complete is garbage.
func TestFinishedSweepReleasesOutputs(t *testing.T) {
	spec := tinySpec()
	spec.Replicas = 3
	done := make(chan error, 1)
	c := New(Config{LeaseTTL: time.Minute})
	if err := c.AddSweep("sw", sweepOf(t, spec), func(_ *dsmc.SweepResult, err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int64
	complete := func(l *Lease) {
		out := runLeasedJob(t, c, l)
		runtime.SetFinalizer(out, func(*dsmc.ReplicaOutput) { freed.Add(1) })
		if err := c.Complete(l.Sweep, l.Job, l.LeaseID, out); err != nil {
			t.Fatal(err)
		}
	}
	// Replica 0 lands last, so the others wait for it out of order.
	leases := []*Lease{mustPoll(t, c, "w"), mustPoll(t, c, "w"), mustPoll(t, c, "w")}
	complete(leases[2])
	complete(leases[1])
	complete(leases[0])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < int64(spec.Replicas); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d outputs collected: the finished sweep still holds the rest", freed.Load(), spec.Replicas)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(c)
}

// TestForgetFinishedSweep: Forget leaves an unfinished sweep alone and
// drops a finished one, after which Jobs reports it not held and a late
// completion or heartbeat under its lease is turned away, not acked.
func TestForgetFinishedSweep(t *testing.T) {
	done := make(chan error, 1)
	c := New(Config{LeaseTTL: time.Minute})
	if err := c.AddSweep("sw", sweepOf(t, tinySpec()), func(_ *dsmc.SweepResult, err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	leases := []*Lease{mustPoll(t, c, "w"), mustPoll(t, c, "w")}
	outs := make([]*dsmc.ReplicaOutput, len(leases))
	for i, l := range leases {
		outs[i] = runLeasedJob(t, c, l)
	}
	if err := c.Complete("sw", leases[0].Job, leases[0].LeaseID, outs[0]); err != nil {
		t.Fatal(err)
	}
	c.Forget("sw")
	if _, held := c.Jobs("sw"); !held {
		t.Fatal("Forget dropped a sweep that is still running")
	}
	if err := c.Complete("sw", leases[1].Job, leases[1].LeaseID, outs[1]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Before Forget a redelivered winning completion is acked.
	if err := c.Complete("sw", leases[1].Job, leases[1].LeaseID, outs[1]); err != nil {
		t.Fatalf("redelivered completion before Forget: %v", err)
	}
	c.Forget("sw")
	if rows, held := c.Jobs("sw"); held {
		t.Fatalf("forgotten sweep still held, %d job rows", len(rows))
	}
	if err := c.Complete("sw", leases[1].Job, leases[1].LeaseID, outs[1]); !errors.Is(err, ErrUnknown) {
		t.Errorf("completion for a forgotten sweep: %v, want ErrUnknown", err)
	}
	if ans, err := c.HandleHeartbeat(Heartbeat{Worker: "w", Sweep: "sw", Job: leases[1].Job, Lease: leases[1].LeaseID}); err != nil || ans != HBAbandon {
		t.Errorf("heartbeat for a forgotten sweep: %q, %v; want %q", ans, err, HBAbandon)
	}
}

// refusingQueue is a LocalQueue whose coordinator refuses every
// completion's output, counting the completions and failures it sees.
type refusingQueue struct {
	LocalQueue
	completes, fails *atomic.Int32
}

func (q refusingQueue) Complete(context.Context, *Lease, *dsmc.ReplicaOutput) error {
	q.completes.Add(1)
	return fmt.Errorf("%w: job a/r000: output has no \"density\" field", ErrBadOutput)
}

func (q refusingQueue) Fail(ctx context.Context, l *Lease, msg string) error {
	q.fails.Add(1)
	return q.LocalQueue.Fail(ctx, l, msg)
}

// TestRefusedOutputFailsOnce: a worker whose completion is refused as
// ErrBadOutput does not send it again. It reports the job failed once,
// and the job fails through its retry budget with the refusal named.
func TestRefusedOutputFailsOnce(t *testing.T) {
	var log eventLog
	c := New(Config{LeaseTTL: 30 * time.Second, MaxAttempts: 1, OnEvent: log.add})
	if err := c.AddSweep("sw", sweepOf(t, tinySpec()), nil); err != nil {
		t.Fatal(err)
	}
	var completes, fails atomic.Int32
	w := NewWorker(WorkerConfig{
		ID:        "w1",
		Queue:     refusingQueue{LocalQueue{c}, &completes, &fails},
		RetryBase: time.Millisecond,
	})
	l := mustPoll(t, c, "w1")
	w.runJob(context.Background(), l)
	if completes.Load() != 1 || fails.Load() != 1 {
		t.Fatalf("%d completions and %d failures sent, want 1 and 1", completes.Load(), fails.Load())
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, e := range log.events {
		if e.Type == "job-failed" && e.Job == l.Job {
			if !strings.Contains(e.Err, ErrBadOutput.Error()) {
				t.Errorf("job-failed names %q, not the refusal", e.Err)
			}
			return
		}
	}
	t.Errorf("no job-failed for %s", l.Job)
}

// TestMalformedLeaseFails: a lease without a positive TTL cannot pace
// heartbeats (a ticker panics on one). The worker runs nothing and
// reports the job failed once, naming the lease as malformed.
func TestMalformedLeaseFails(t *testing.T) {
	for _, ttl := range []int64{0, -1500} {
		var log eventLog
		c := New(Config{LeaseTTL: 30 * time.Second, MaxAttempts: 1, OnEvent: log.add})
		if err := c.AddSweep("sw", sweepOf(t, tinySpec()), nil); err != nil {
			t.Fatal(err)
		}
		var completes, fails atomic.Int32
		w := NewWorker(WorkerConfig{
			ID:        "w1",
			Queue:     refusingQueue{LocalQueue{c}, &completes, &fails},
			RetryBase: time.Millisecond,
		})
		l := mustPoll(t, c, "w1")
		l.TTLMillis = ttl
		w.runJob(context.Background(), l)
		if completes.Load() != 0 || fails.Load() != 1 {
			t.Fatalf("ttl %d: %d completions and %d failures sent, want 0 and 1", ttl, completes.Load(), fails.Load())
		}
		if n := log.count("job-failed", l.Job); n != 1 {
			t.Fatalf("ttl %d: %d job-failed events, want 1", ttl, n)
		}
		log.mu.Lock()
		for _, e := range log.events {
			if e.Type == "job-failed" && !strings.Contains(e.Err, "malformed lease") {
				t.Errorf("ttl %d: job-failed names %q, not the malformed lease", ttl, e.Err)
			}
		}
		log.mu.Unlock()
	}
}

// TestLeaseFenceAcrossRestart: a coordinator restarted over the same spec
// and checkpoint directory dispatches in the same order, yet a lease its
// predecessor granted is stale: the old worker's heartbeat is told to
// abandon, and its upload and completion are refused.
func TestLeaseFenceAcrossRestart(t *testing.T) {
	spec := tinySpec()
	spec.CheckpointDir = t.TempDir()
	start := func() *Coordinator {
		c := New(Config{LeaseTTL: 30 * time.Second})
		if err := c.AddSweep("sw", sweepOf(t, spec), nil); err != nil {
			t.Fatal(err)
		}
		return c
	}
	old := mustPoll(t, start(), "w1")
	restarted := start()
	if l := mustPoll(t, restarted, "w2"); l.Job != old.Job {
		t.Fatalf("the restarted coordinator dispatched %s first, its predecessor %s", l.Job, old.Job)
	}
	if status, err := restarted.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: old.Sweep, Job: old.Job, Lease: old.LeaseID}); err != nil || status != HBAbandon {
		t.Errorf("heartbeat under the predecessor's lease: %q, %v; want abandon", status, err)
	}
	if err := restarted.SaveCheckpoint(old.Sweep, old.Job, old.LeaseID, payload([]byte("x"))); !errors.Is(err, ErrStaleLease) {
		t.Errorf("upload under the predecessor's lease: %v, want ErrStaleLease", err)
	}
	if err := restarted.Complete(old.Sweep, old.Job, old.LeaseID, &dsmc.ReplicaOutput{}); !errors.Is(err, ErrStaleLease) {
		t.Errorf("completion under the predecessor's lease: %v, want ErrStaleLease", err)
	}
}

// TestAddSweepNeedsCheckpointDir: checkpoints are files, so a sweep whose
// spec names no checkpoint directory is refused, and one that does gets
// the directory created.
func TestAddSweepNeedsCheckpointDir(t *testing.T) {
	c := New(Config{})
	sw, err := dsmc.NewSweep(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddSweep("none", sw, nil); err == nil {
		t.Error("a sweep without a checkpoint directory was registered")
	}
	spec := tinySpec()
	spec.CheckpointDir = filepath.Join(t.TempDir(), "a", "ckpt")
	if err := c.AddSweep("dir", sweepOf(t, spec), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spec.CheckpointDir); err != nil {
		t.Errorf("the checkpoint directory was not created: %v", err)
	}
}

// TestStatsIgnoresLostWorkers: the stalest heartbeat a keepalive reports
// is a live worker's. A worker silent for three lease TTLs is lost, as
// Workers reports it, and its ever-growing age is not the fleet's.
func TestStatsIgnoresLostWorkers(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: 10 * time.Second, now: clk.now})
	if _, err := c.Poll("w1"); err != nil {
		t.Fatal(err)
	}
	clk.advance(40 * time.Second)
	if _, err := c.Poll("w2"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.MaxHeartbeatAgeSec != 0 || st.Workers != 2 {
		t.Errorf("stalest live heartbeat %gs over %d workers, want 0s over 2", st.MaxHeartbeatAgeSec, st.Workers)
	}
	if ws := c.Workers(); len(ws) != 2 || ws[0].State != "lost" || ws[1].State != "idle" {
		t.Errorf("workers %+v, want w1 lost and w2 idle", ws)
	}
}

// TestWorkersReadFromLeases: a worker's row shows the running lease that
// names it. A restarted worker that holds its predecessor's lease and a
// new one shows the newer grant, and keeps showing it when the older
// lease expires; a worker whose lease ended is idle.
func TestWorkersReadFromLeases(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: 10 * time.Second, now: clk.now})
	if err := c.AddSweep("sw", sweepOf(t, tinySpec()), nil); err != nil {
		t.Fatal(err)
	}
	row := func() WorkerStatus {
		t.Helper()
		ws := c.Workers()
		if len(ws) != 1 {
			t.Fatalf("workers %+v, want one", ws)
		}
		return ws[0]
	}
	old := mustPoll(t, c, "w")
	clk.advance(6 * time.Second)
	renewed := mustPoll(t, c, "w")
	if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w", Sweep: renewed.Sweep, Job: renewed.Job, Lease: renewed.LeaseID, StepsDone: 3}); status != HBOK {
		t.Fatalf("heartbeat: %q", status)
	}
	if r := row(); r.State != "running" || r.Job != renewed.Job || r.StepsDone != 3 || r.StepsTotal != renewed.StepsTotal {
		t.Errorf("with two leases: %+v, want %s at step 3 of %d", r, renewed.Job, renewed.StepsTotal)
	}
	clk.advance(6 * time.Second) // the old lease expires
	if r := row(); r.State != "running" || r.Job != renewed.Job {
		t.Errorf("after %s expired: %+v, want %s", old.Job, r, renewed.Job)
	}
	if err := c.Release(renewed.Sweep, renewed.Job, renewed.LeaseID, 3); err != nil {
		t.Fatal(err)
	}
	if r := row(); r.State != "idle" || r.Job != "" || r.StepsDone != 0 {
		t.Errorf("after the release: %+v, want idle", r)
	}
}

// TestJobsReadFromTableAndLeases: a sweep's job rows are its table's
// states and its leases' steps. A grant reads running with a heartbeat's
// steps, an expired lease and a released one read queued with the steps
// kept, and the release burns no attempt: the next worker error still
// requeues. The permanent failure reads failed with the table's error,
// and the rest of the sweep skipped.
func TestJobsReadFromTableAndLeases(t *testing.T) {
	clk := newFakeClock()
	var log eventLog
	c := New(Config{LeaseTTL: 10 * time.Second, MaxAttempts: 3, OnEvent: log.add, now: clk.now})
	if err := c.AddSweep("sw", sweepOf(t, tinySpec()), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Jobs("other"); ok {
		t.Error("Jobs reports a sweep the coordinator does not hold")
	}
	agg := dsmc.AggregateJobID("rarefied")
	check := func(stage string, want ...JobStatus) {
		t.Helper()
		rows, ok := c.Jobs("sw")
		if !ok || !slices.Equal(rows, want) {
			t.Errorf("%s: rows %+v, want %+v", stage, rows, want)
		}
	}

	check("before a grant",
		JobStatus{Job: "rarefied/r000", State: "pending"},
		JobStatus{Job: "rarefied/r001", State: "pending"},
		JobStatus{Job: agg, State: "pending"})

	l := mustPoll(t, c, "w1")
	total := l.StepsTotal
	if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: l.Sweep, Job: l.Job, Lease: l.LeaseID, StepsDone: 3}); status != HBOK {
		t.Fatalf("heartbeat: %q", status)
	}
	check("granted",
		JobStatus{Job: l.Job, State: "running", StepsDone: 3, StepsTotal: total},
		JobStatus{Job: "rarefied/r001", State: "pending"},
		JobStatus{Job: agg, State: "pending"})

	clk.advance(11 * time.Second)
	check("lease expired",
		JobStatus{Job: l.Job, State: "queued", StepsDone: 3, StepsTotal: total},
		JobStatus{Job: "rarefied/r001", State: "pending"},
		JobStatus{Job: agg, State: "pending"})

	l = mustPoll(t, c, "w2")
	if err := c.Release(l.Sweep, l.Job, l.LeaseID, 5); err != nil {
		t.Fatal(err)
	}
	check("released",
		JobStatus{Job: l.Job, State: "queued", StepsDone: 5, StepsTotal: total},
		JobStatus{Job: "rarefied/r001", State: "pending"},
		JobStatus{Job: agg, State: "pending"})

	// Attempt 2 of 3: the worker error requeues the job.
	l = mustPoll(t, c, "w3")
	if err := c.Fail(l.Sweep, l.Job, l.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	if rows, _ := c.Jobs("sw"); rows[0].State != "queued" {
		t.Fatalf("after a worker error on attempt 2 of 3: %+v, want queued (the release burned an attempt)", rows[0])
	}

	l = mustPoll(t, c, "w4")
	if err := c.Fail(l.Sweep, l.Job, l.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	if n := log.count("job-failed", l.Job); n != 1 {
		t.Fatalf("job-failed events: got %d, want 1", n)
	}
	check("failed",
		JobStatus{Job: l.Job, State: "failed", Err: "job " + l.Job + ": boom; retry budget exhausted (3 attempts)"},
		JobStatus{Job: "rarefied/r001", State: "skipped"},
		JobStatus{Job: agg, State: "skipped"})
}

// storeHits reads dsmc_store_hits_total.
func storeHits(t *testing.T) float64 {
	t.Helper()
	for _, s := range obs.Default.Snapshot("dsmc_store_hits_total") {
		if s.Name == "dsmc_store_hits_total" {
			return s.Value
		}
	}
	t.Fatal("dsmc_store_hits_total is not registered")
	return 0
}

// TestCompletionSettlesSiblingSweep: sweeps A and B share a point and are
// both registered before either runs. Each of A's completions of the
// shared point is published and settles B's job under the same key with
// the output in hand — no lease for it and no store read — and B's result
// is a cold run's bits. When the store already holds different bytes
// under a shared key, A's publish of that job is refused, the refusal
// settles nobody, and B leases the job and runs it itself.
func TestCompletionSettlesSiblingSweep(t *testing.T) {
	specA := tinySpec()
	specA.Name = "sibling-a"
	specB := tinySpec()
	specB.Name = "sibling-b"
	mfp := 0.75
	specB.Points = append(specB.Points, dsmc.SweepPoint{Name: "fresh", MeanFreePath: &mfp})
	want, err := dsmc.RunSweep(context.Background(), specB, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	// Valid bytes for the shared point that are not replica 0's.
	other, err := dsmc.RunSweepJob(context.Background(), specA, 0, 1, dsmc.SweepJobIO{})
	if err != nil {
		t.Fatal(err)
	}

	for _, planted := range []bool{false, true} {
		t.Run(map[bool]string{false: "published", true: "refused"}[planted], func(t *testing.T) {
			st, err := store.Open(filepath.Join(t.TempDir(), "store"))
			if err != nil {
				t.Fatal(err)
			}
			c := New(Config{LeaseTTL: time.Minute, Store: st})
			swA, swB := sweepOf(t, specA), sweepOf(t, specB)
			done := make(chan []byte, 1)
			if err := c.AddSweep("a", swA, nil); err != nil {
				t.Fatal(err)
			}
			err = c.AddSweep("b", swB, func(res *dsmc.SweepResult, err error) {
				if err != nil {
					t.Error(err)
				}
				got, _ := json.Marshal(res)
				done <- got
			})
			if err != nil {
				t.Fatal(err)
			}
			refused := swA.Jobs[0]
			if planted {
				if _, err := st.Put(refused.StoreKey, store.EncodeOutput(other)); err != nil {
					t.Fatal(err)
				}
			}

			hits, grants := storeHits(t), mLeaseGrants.Value()
			for range swA.Jobs {
				l := mustPoll(t, c, "w")
				if l.Sweep != "a" {
					t.Fatalf("%s/%s leased before sweep a's jobs", l.Sweep, l.Job)
				}
				if err := c.Complete(l.Sweep, l.Job, l.LeaseID, runLeasedJob(t, c, l)); err != nil {
					t.Fatal(err)
				}
			}
			var leased []string
			for l, _ := c.Poll("w"); l != nil; l, _ = c.Poll("w") {
				leased = append(leased, l.Job)
				if err := c.Complete(l.Sweep, l.Job, l.LeaseID, runLeasedJob(t, c, l)); err != nil {
					t.Fatal(err)
				}
			}
			wantLeased := []string{"fresh/r000", "fresh/r001"}
			if planted {
				wantLeased = append([]string{refused.ID}, wantLeased...)
			}
			if !slices.Equal(leased, wantLeased) {
				t.Errorf("sweep b leased %q, want %q", leased, wantLeased)
			}
			if n := mLeaseGrants.Value() - grants; n != uint64(len(swA.Jobs)+len(wantLeased)) {
				t.Errorf("%d leases granted, want %d", n, len(swA.Jobs)+len(wantLeased))
			}
			if d := storeHits(t) - hits; d != 0 {
				t.Errorf("the completions read the store: %g hits", d)
			}
			select {
			case got := <-done:
				if string(got) != string(wantJSON) {
					t.Error("sweep b's result differs from a cold run")
				}
			case <-time.After(60 * time.Second):
				t.Fatal("sweep b never finished")
			}
		})
	}
}
