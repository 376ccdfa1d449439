package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"maps"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dsmc"
	"dsmc/internal/coord"
	"dsmc/internal/obs"
	"dsmc/internal/run"
	"dsmc/internal/store"
)

// sweepState is the lifecycle of a submitted sweep.
type sweepState string

const (
	stateRunning sweepState = "running"
	stateDone    sweepState = "done"
	stateFailed  sweepState = "failed"
)

// sweepRun is the in-memory record of one sweep: its spec and state and,
// once finished, the identity of its result in the store — never its
// bytes, nor a decoded copy. Its event history is a log on disk, and its
// job rows are the coordinator's (coord.Jobs) until done.
type sweepRun struct {
	ID        string     `json:"id"`
	State     sweepState `json:"state"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Resumed   bool       `json:"resumed,omitempty"`

	spec dsmc.SweepSpec

	mu sync.Mutex
	// The event log, <data>/<id>/events.ndjson: logFile appends to it while
	// the sweep runs, logSize is the length of its whole lines (all a
	// reader may serve), and grew is closed to wake its readers — and
	// replaced — on every append, and closed at finish.
	logFile *os.File
	logSize int64
	grew    chan struct{}
	// resultETag is the quoted SHA-256 of the result's store object, as it
	// was published or verified, and resultSize its length. Together they
	// answer 304s and HEADs without touching the store, and name the
	// object every full read fetches and verifies.
	resultETag string
	resultSize int
}

// statusView is the JSON shape of GET /v1/sweeps/{id}.
type statusView struct {
	ID        string            `json:"id"`
	State     sweepState        `json:"state"`
	Error     string            `json:"error,omitempty"`
	Submitted time.Time         `json:"submitted"`
	Resumed   bool              `json:"resumed,omitempty"`
	Name      string            `json:"name,omitempty"`
	Replicas  int               `json:"replicas"`
	Points    int               `json:"points"`
	Jobs      []coord.JobStatus `json:"jobs"`
	Links     map[string]string `json:"links"`
}

// server owns the sweep registry and its on-disk layout:
//
//	<data>/<id>/spec.json      the submitted spec (resume source)
//	<data>/<id>/events.ndjson  the event log /events replays and tails:
//	                           every event, appended unsynced
//	<data>/<id>/ckpt/          per-job checkpoints (internal/ckpt format): the
//	                           checkpoint_dir the submission sets in spec.json,
//	                           made when the coordinator registers the jobs (a
//	                           sweep the store already holds has none) and
//	                           removed when the sweep is done; a failed
//	                           sweep keeps it
//	<data>/<id>/result.ref     a done sweep's result ETag and size, unsynced
//	<data>/store/              the result store (internal/store), where a
//	                           finished sweep's encoded result is its "res"
//	                           object and nowhere else
//
// On startup every sweep without a result.ref is relaunched; the job
// checkpoints make the relaunch continue where the killed process
// stopped, bit-identically. A done sweep whose result GC evicted is
// recomputed when it is next read, not at startup; its checkpoints are
// gone, so each job whose output GC also evicted steps again from the
// start.
//
// Execution goes through an internal/coord coordinator: sweeps become
// leased job queues, and a pool of embedded pull-workers — plus any
// external `dsmcd -worker` processes speaking the /coord/v1/ protocol —
// runs them. The single-process default is just the degenerate case of
// that machinery with only embedded workers.
type server struct {
	dataDir string
	pool    int
	pprof   bool

	// store is the content-addressed result store under <data>/store/:
	// every finished replica output, every sweep's encoded result and
	// every ?quantity= view is published there by its deterministic key,
	// sweeps sharing points — or all of a result — are satisfied from it
	// without dispatch, and /v1/store serves the artifacts as immutable
	// HTTP resources. storeBudget caps its size in bytes (0 = unlimited);
	// the cap is enforced by GC at startup and after every sweep.
	store       *store.Store
	storeBudget int64

	coord     *coord.Coordinator
	keepalive time.Duration

	stopWorkers context.CancelFunc
	workerWG    sync.WaitGroup

	mu     sync.Mutex
	sweeps map[string]*sweepRun
	nextID int
	// recomputing is set while a done sweep's lost result is rebuilt, and
	// recomputes numbers the rebuilds' coordinator IDs.
	recomputing bool
	recomputes  int
}

// serverOpts carries the tunables main exposes as flags; the zero value
// of any field selects the default.
type serverOpts struct {
	dataDir     string
	workers     int           // embedded worker count (0 = NumCPU, < 0 = none: external workers only)
	leaseTTL    time.Duration // coordinator lease TTL (0 = 15s)
	maxRetries  int           // dispatch attempts per job (0 = 3)
	keepalive   time.Duration // NDJSON keepalive interval (0 = 15s)
	pprof       bool          // serve net/http/pprof under /debug/pprof/
	storeBudget int64         // result-store size budget in bytes (0 = unlimited)
}

func newServerWith(opts serverOpts) (*server, error) {
	if err := os.MkdirAll(opts.dataDir, 0o755); err != nil {
		return nil, err
	}
	switch {
	case opts.workers == 0:
		opts.workers = runtime.NumCPU()
	case opts.workers < 0:
		opts.workers = 0 // coordinator-only: jobs wait for external workers
	}
	if opts.keepalive <= 0 {
		opts.keepalive = 15 * time.Second
	}
	s := &server{
		dataDir:     opts.dataDir,
		pool:        opts.workers,
		pprof:       opts.pprof,
		storeBudget: opts.storeBudget,
		keepalive:   opts.keepalive,
		sweeps:      map[string]*sweepRun{},
	}
	// The result store opens before the coordinator and before recovery:
	// Open quarantines its own torn/corrupt leftovers, and resumed sweeps
	// must see the finished artifacts so their completed jobs memoize
	// instead of redispatching.
	st, err := store.Open(filepath.Join(opts.dataDir, "store"))
	if err != nil {
		return nil, err
	}
	s.store = st
	s.coord, err = coord.New(coord.Config{
		LeaseTTL:    opts.leaseTTL,
		MaxAttempts: opts.maxRetries,
		OnEvent:     s.observeSweep,
		Store:       st,
	})
	if err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 0; i < opts.workers; i++ {
		w := coord.NewWorker(coord.WorkerConfig{
			ID:        fmt.Sprintf("embedded-%d", i),
			Queue:     coord.LocalQueue{C: s.coord},
			PollEvery: 25 * time.Millisecond,
		})
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			w.Run(ctx)
		}()
	}
	return s, nil
}

// close drains the embedded workers: each checkpoints its in-flight job,
// uploads the state, and releases its lease before returning, so a
// restarted server (or a remote worker) resumes bit-identically.
func (s *server) close() {
	s.stopWorkers()
	s.workerWG.Wait()
}

// observeSweep routes coordinator events into the sweep's event log.
func (s *server) observeSweep(sweepID string, e dsmc.SweepEvent) {
	s.mu.Lock()
	run := s.sweeps[sweepID]
	s.mu.Unlock()
	if run != nil {
		run.observe(e)
	}
}

// recover scans the data directory: a sweep with a result.ref is
// registered done, any other is relaunched from its spec and checkpoints,
// or registered failed when its spec.json no longer decodes or lowers. A
// done sweep's result is neither read nor verified here: /result verifies
// it when it is served, and recomputes it then if it is gone. Orphaned
// *.tmp files — left by a crash in the middle of an atomic write (spec or
// checkpoint) — are removed first: the rename never happened, so the
// orphan is garbage by construction and must not shadow the real file's
// next write.
func (s *server) recover() error {
	// The store subtree is excluded: store.Open already swept it, and its
	// policy is quarantine (keep the evidence), not delete.
	if err := removeOrphanTmp(s.dataDir, filepath.Join(s.dataDir, "store")); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.dataDir)
	if err != nil {
		return err
	}
	var resume []func()
	for _, e := range entries { // sorted by name
		id := e.Name()
		if !e.IsDir() || !strings.HasPrefix(id, "sw-") {
			continue
		}
		if n := idNumber(id); n >= s.nextID {
			s.nextID = n + 1
		}
		raw, err := os.ReadFile(filepath.Join(s.dataDir, id, "spec.json"))
		if err != nil {
			log.Printf("recover %s: %v (skipping)", id, err)
			continue
		}
		// The strict decoder of submissions: it fills every field it knows
		// before it reports one it does not, so the status view has the
		// spec's name and shape even when the sweep cannot run.
		spec, specErr := decodeSpec(bytes.NewReader(raw))
		run := s.register(id, spec, true)
		var sw *dsmc.Sweep
		if specErr == nil {
			sw, specErr = dsmc.NewSweep(spec)
		}
		if etag, size, ok := s.readRef(id); ok {
			run.finish(etag, size, nil)
			s.dropCheckpoints(id) // a crash may have come between the two
			continue
		}
		if specErr != nil {
			err = fmt.Errorf("persisted spec.json: %w", specErr)
			run.finish("", 0, err)
			log.Printf("recover %s: failed: %v", id, err)
			continue
		}
		log.Printf("recover %s: resuming from checkpoints", id)
		resume = append(resume, func() { s.execute(run, sw) })
	}
	// GC runs before the resumed sweeps register, so their memo passes
	// see only what stays.
	s.gcStore()
	for _, execute := range resume {
		go execute()
	}
	return nil
}

// writeRef records a done sweep's result in <data>/<id>/result.ref, one
// line: its ETag and size. The write is unsynced: a ref lost or torn in a
// crash reads as none, and the restart resumes the sweep, whose first
// probe finds the result in the store.
func (s *server) writeRef(id, etag string, size int) {
	if err := os.WriteFile(filepath.Join(s.dataDir, id, "result.ref"), fmt.Appendf(nil, "%s %d\n", etag, size), 0o644); err != nil {
		log.Printf("%s: writing result.ref: %v", id, err)
	}
}

// dropCheckpoints removes a done sweep's <data>/<id>/ckpt/: its result
// is in the store and its result.ref written, so no restart resumes it,
// and a recomputation's jobs are store hits or step from the start. A
// finished sweep would otherwise keep every job's last checkpoint for
// good, outside the store's budget.
func (s *server) dropCheckpoints(id string) {
	if err := os.RemoveAll(filepath.Join(s.dataDir, id, "ckpt")); err != nil {
		log.Printf("%s: removing the checkpoints: %v", id, err)
	}
}

// readRef returns the result a sweep's result.ref records, if it holds a
// whole line naming one.
func (s *server) readRef(id string) (etag string, size int, ok bool) {
	raw, err := os.ReadFile(filepath.Join(s.dataDir, id, "result.ref"))
	if err == nil {
		_, err = fmt.Sscanf(string(raw), "%s %d\n", &etag, &size)
	}
	return etag, size, err == nil && len(etag) == 66 && string(raw) == fmt.Sprintf("%s %d\n", etag, size)
}

// removeOrphanTmp walks the data tree and deletes every *.tmp file,
// skipping the subtree rooted at skip (empty skips nothing).
func removeOrphanTmp(dir, skip string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && skip != "" && path == skip {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".tmp") {
			log.Printf("recover: removing orphaned temp file %s", path)
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
		return nil
	})
}

func idNumber(id string) int {
	var n int
	fmt.Sscanf(id, "sw-%d", &n)
	return n
}

// register creates the in-memory record (state running) and opens its
// event log for appending: created if missing, cut back to its last
// newline if a crash tore the unsynced last line. A log that cannot be
// opened is logged; the sweep then runs without one.
// The submission time is spec.json's modification time — the file is
// written once, at submit — so a restart reports the same one.
func (s *server) register(id string, spec dsmc.SweepSpec, resumed bool) *sweepRun {
	run := &sweepRun{
		ID:        id,
		State:     stateRunning,
		Submitted: time.Now().UTC(),
		Resumed:   resumed,
		spec:      spec,
		grew:      make(chan struct{}),
	}
	if fi, err := os.Stat(filepath.Join(s.dataDir, id, "spec.json")); err == nil {
		run.Submitted = fi.ModTime().UTC()
	}
	path := s.eventsPath(id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err == nil {
		var size int64
		run.logSize, size, err = wholeLines(f)
		if torn := size - run.logSize; err == nil && torn > 0 {
			log.Printf("%s: dropping a torn last line (%d bytes)", path, torn)
			err = f.Truncate(run.logSize)
		}
		if err == nil {
			run.logFile = f
		} else {
			f.Close()
		}
	}
	if err != nil {
		log.Printf("%s: opening events.ndjson: %v", id, err)
	}
	s.mu.Lock()
	s.sweeps[id] = run
	s.mu.Unlock()
	return run
}

// wholeLines returns the length of f's whole lines, the offset just past
// its last newline, and f's size. It reads back from the end, so only a
// torn last line is read, not the log.
func wholeLines(f *os.File) (whole, size int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size = fi.Size()
	buf := make([]byte, 4<<10)
	for end := size; end > 0; {
		n := min(end, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return 0, size, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			return end - n + int64(i) + 1, size, nil
		}
		end -= n
	}
	return 0, size, nil
}

// eventsPath is where a sweep's event log lives.
func (s *server) eventsPath(id string) string {
	return filepath.Join(s.dataDir, id, "events.ndjson")
}

// execute hands the lowered sweep to the coordinator, which leaves the
// encoded result — the representation /result serves — in the store
// under the sweep's key: assembled from the jobs the embedded (and any
// remote) workers pull, or found already stored. A sweep that succeeds
// drops its checkpoints once the client can see it done; a failed one
// keeps them for the restart that resumes it.
func (s *server) execute(run *sweepRun, sw *dsmc.Sweep) {
	err := s.coord.AddSweep(run.ID, sw, func(sha string, size int, err error) {
		s.gcStore() // first: a finished sweep's store is within its budget
		if err == nil {
			s.writeRef(run.ID, `"`+sha+`"`, size)
		}
		run.finish(`"`+sha+`"`, size, err)
		if err != nil {
			log.Printf("%s failed: %v", run.ID, err)
		} else {
			s.dropCheckpoints(run.ID)
			log.Printf("%s done", run.ID)
		}
	})
	if err != nil {
		run.finish("", 0, err)
		log.Printf("%s failed: %v", run.ID, err)
	}
}

// recompute rebuilds a done sweep's result after a read missed it — GC
// evicted the object, or it failed verification — unless another
// rebuild is running: one at a time, so a budget too small for the
// results being read costs one sweep's work per read, and a restart none.
// The sweep runs again under a fresh coordinator ID, numbered only when
// a rebuild starts, whose events go nowhere (the sweep's log is closed):
// the jobs the store still holds are hits, and the result lands under
// the sweep's key. A rebuild that succeeds drops the checkpoints its jobs
// wrote. It returns what the reader is told.
func (s *server) recompute(run *sweepRun) string {
	sw, err := dsmc.NewSweep(run.spec)
	if err != nil {
		return "it cannot be recomputed: " + err.Error()
	}
	s.mu.Lock()
	if s.recomputing {
		s.mu.Unlock()
		return "a recomputation is running; retry later"
	}
	s.recomputing = true
	s.recomputes++
	id := fmt.Sprintf("%s-recompute-%d", run.ID, s.recomputes)
	s.mu.Unlock()
	done := func(sha string, size int, err error) {
		s.gcStore()
		built := err == nil
		run.mu.Lock()
		was := run.resultETag
		if built {
			run.resultETag, run.resultSize = `"`+sha+`"`, size
		}
		run.mu.Unlock()
		if built && `"`+sha+`"` != was {
			// The bytes are a pure function of the spec unless the build's
			// physics changed since the sweep ran: serve what it gives now.
			err = fmt.Errorf("it is %s, not the %s served before; serving it", sha, was)
			s.writeRef(run.ID, `"`+sha+`"`, size)
		}
		if built {
			s.dropCheckpoints(run.ID)
		}
		if err != nil {
			log.Printf("%s: recomputing the result: %v", run.ID, err)
		}
		s.coord.Forget(id) // a failed rebuild is held for rows nothing reads
		s.mu.Lock()
		s.recomputing = false
		s.mu.Unlock()
	}
	if err := s.coord.AddSweep(id, sw, done); err != nil {
		done("", 0, err)
	}
	return "recomputing it; retry later"
}

// gcStore enforces the store's size budget (and sweeps unreferenced
// objects): called at startup and as every sweep completes, so the store
// converges on the budget without a background goroutine. An evicted
// result is gone from the disk until its sweep's next GET recomputes it.
func (s *server) gcStore() {
	if removed, freed := s.store.GC(s.storeBudget); removed > 0 {
		log.Printf("store gc: evicted %d artifacts, freed %d bytes", removed, freed)
	}
}

// observe appends an event to the sweep's log with one unsynced
// write(2), under the coordinator's lock, and wakes the log's readers; a
// failed append is logged and cut back.
func (r *sweepRun) observe(e dsmc.SweepEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.logFile == nil {
		return // finished (nothing is emitted after the end), or no log
	}
	line, err := json.Marshal(e)
	if err == nil {
		_, err = r.logFile.Write(append(line, '\n'))
	}
	if err != nil {
		log.Printf("%s: appending %s to events.ndjson: %v", r.ID, e.Type, err)
		if r.logFile.Truncate(r.logSize) != nil {
			r.logFile.Close() // a log not cut back to its whole lines records no more
			r.logFile = nil
		}
		return
	}
	r.logSize += int64(len(line)) + 1
	close(r.grew)
	r.grew = make(chan struct{})
}

// finish closes the run and its log and wakes the log's readers. etag
// and size identify the result's store object.
func (r *sweepRun) finish(etag string, size int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.State = stateFailed
		r.Error = err.Error()
	} else {
		r.State = stateDone
		r.resultETag, r.resultSize = etag, size
	}
	r.logFile.Close()
	r.logFile = nil
	close(r.grew)
}

// status is the sweep's view without its job rows.
func (r *sweepRun) status() statusView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return statusView{
		ID: r.ID, State: r.State, Error: r.Error,
		Submitted: r.Submitted, Resumed: r.Resumed,
		Name: r.spec.Name, Replicas: r.spec.Replicas,
		Points: len(r.spec.PointNames()),
		Links: map[string]string{
			"events": "/v1/sweeps/" + r.ID + "/events",
			"result": "/v1/sweeps/" + r.ID + "/result",
		},
	}
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/store", s.handleStoreList)
	mux.HandleFunc("GET /v1/store/{sha}", s.handleStoreObject)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The coordinator protocol, for external `dsmcd -worker` processes.
	mux.Handle("/coord/v1/", s.coord.Handler())
	if s.pprof {
		// Opt-in: profiling endpoints reveal internals and cost CPU when
		// scraped, so they ride behind the -pprof flag.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics is the Prometheus scrape endpoint: the process-global
// registry (engine phase histograms, coordinator/worker lifecycle
// counters) followed by the coordinator's instance-shaped telemetry
// (queue gauges, per-worker heartbeat ages, fleet re-emission).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.Default.WriteText(w); err != nil {
		return
	}
	s.coord.WriteMetrics(w)
	s.store.WriteMetrics(w)
}

// decodeSpec is the strict SweepSpec decoder of submissions and of
// resumed sweeps: a field this build does not know is an error naming it,
// and so is anything but whitespace after the object — a second value
// would otherwise be dropped unread.
func decodeSpec(r io.Reader) (dsmc.SweepSpec, error) {
	var spec dsmc.SweepSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("decoding spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return spec, fmt.Errorf("decoding spec: after the object: %w", err)
	}
	return spec, nil
}

// handleSubmit accepts a SweepSpec as JSON, validates it, persists it
// and launches it. The server owns the checkpoint directory; a
// client-supplied one is rejected rather than silently rewritten.
func (s *server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if spec.CheckpointDir != "" {
		writeErr(w, http.StatusBadRequest, errors.New("checkpoint_dir is server-managed; leave it empty"))
		return
	}
	if spec.ResultStoreDir != "" {
		writeErr(w, http.StatusBadRequest, errors.New("result_store_dir is server-managed; leave it empty"))
		return
	}
	// Lower the spec once, before accepting: a bad spec must 400 now, not
	// fail asynchronously, and the coordinator runs this very lowering.
	// The base may be a scenario of any kind, including the 3D shock tube.
	sw, err := dsmc.NewSweep(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	id := fmt.Sprintf("sw-%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	// Pool and CheckpointDir are execution fields the lowering does not
	// read, so they are set on the lowered sweep's spec.
	if sw.Spec.Pool == 0 {
		sw.Spec.Pool = s.pool
	}
	// The coordinator creates the checkpoint directory when it registers
	// the jobs; a sweep the store already holds runs none and gets none.
	dir := filepath.Join(s.dataDir, id)
	sw.Spec.CheckpointDir = filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	buf, err := json.MarshalIndent(sw.Spec, "", " ")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	buf = append(buf, '\n')
	if err := store.AtomicWrite(filepath.Join(dir, "spec.json"), func(w io.Writer) error { _, err := w.Write(buf); return err }); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}

	run := s.register(id, sw.Spec, false)
	go s.execute(run, sw)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":     id,
		"status": "/v1/sweeps/" + id,
		"events": "/v1/sweeps/" + id + "/events",
		"result": "/v1/sweeps/" + id + "/result",
	})
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := slices.Collect(maps.Values(s.sweeps))
	s.mu.Unlock()
	slices.SortFunc(runs, func(a, b *sweepRun) int { return strings.Compare(a.ID, b.ID) })
	out := make([]statusView, 0, len(runs))
	for _, run := range runs {
		out = append(out, run.status()) // no job rows: per-sweep status has them
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

func (s *server) lookup(w http.ResponseWriter, req *http.Request) *sweepRun {
	id := req.PathValue("id")
	s.mu.Lock()
	run := s.sweeps[id]
	s.mu.Unlock()
	if run == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
	}
	return run
}

// handleStatus serves the sweep's view with its job rows, sorted: the
// coordinator's while it holds the sweep, read without r.mu (observe
// takes it under the coordinator's lock), or, for a done sweep, which it
// never holds, every replica and aggregate of the spec, done.
func (s *server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	v := r.status()
	rows, held := s.coord.Jobs(r.ID)
	if !held && v.State == stateDone {
		for _, p := range r.spec.PointNames() {
			for i := range r.spec.Replicas {
				rows = append(rows, coord.JobStatus{Job: run.JobName(p, i), State: "done"})
			}
			rows = append(rows, coord.JobStatus{Job: run.AggregateName(p), State: "done"})
		}
	}
	slices.SortFunc(rows, func(a, b coord.JobStatus) int { return strings.Compare(a.Job, b.Job) })
	v.Jobs = rows
	writeJSON(w, http.StatusOK, v)
}

// handleEvents streams the sweep's progress as NDJSON: its event log from
// the first line, then each line as it is appended, until the sweep has
// finished and the log is drained or the client goes away. The log is on
// disk, so a slow client misses nothing and a restarted server replays
// the history from before the restart. In quiet phases the stream emits
// {"type":"keepalive","status":{...}} every keepalive interval: a
// coordinator snapshot (active/queued jobs, worker count, heartbeat
// staleness) that tells a slow sweep from a dead connection. Consumers
// must ignore record types they do not know.
func (s *server) handleEvents(w http.ResponseWriter, req *http.Request) {
	run := s.lookup(w, req)
	if run == nil {
		return
	}
	f, err := os.Open(s.eventsPath(run.ID))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	keepalive := time.NewTicker(s.keepalive)
	defer keepalive.Stop()
	var sent int64
	for {
		run.mu.Lock()
		size, grew, running := run.logSize, run.grew, run.State == stateRunning
		run.mu.Unlock()
		if size > sent {
			if _, err := io.Copy(w, io.NewSectionReader(f, sent, size-sent)); err != nil {
				return
			}
			sent = size
			keepalive.Reset(s.keepalive)
		}
		rc.Flush()
		if !running {
			return // nothing is appended after the finish: the log is drained
		}
		select {
		case <-grew:
		case <-keepalive.C:
			// Keepalives double as status beacons: the coordinator
			// snapshot tells a quiet stream's consumer whether jobs are
			// leased out, queued, and how stale the fleet's heartbeats are.
			st := s.coord.Stats()
			if json.NewEncoder(w).Encode(dsmc.SweepEvent{Type: "keepalive", Status: &st}) != nil {
				return
			}
		case <-req.Context().Done():
			return
		}
	}
}

// handleResult serves a finished sweep's result. A done result is
// immutable — the sweep's determinism contract says a re-run produces the
// same bits — so it is a content-addressed resource: the store object is
// the representation and its SHA-256 the strong ETag. Conditional
// requests and HEADs are answered from the retained tag and size alone; a
// full GET reads the object once, into a pooled buffer (readBufs), and
// serves it only if those bytes hash to the tag. ?quantity= views are
// store artifacts derived from those bytes.
func (s *server) handleResult(w http.ResponseWriter, req *http.Request) {
	run := s.lookup(w, req)
	if run == nil {
		return
	}
	run.mu.Lock()
	state, errMsg := run.State, run.Error
	etag, size := run.resultETag, run.resultSize
	run.mu.Unlock()
	switch state {
	case stateRunning:
		writeErr(w, http.StatusConflict, errors.New("sweep still running; poll status or stream events"))
		return
	case stateFailed:
		writeErr(w, http.StatusInternalServerError, errors.New(errMsg))
		return
	}
	if q := req.URL.Query().Get("quantity"); q != "" {
		s.serveQuantity(w, req, run, etag, dsmc.Quantity(q))
		return
	}
	if notModified(w, req, etag) {
		return
	}
	var data []byte
	if req.Method != http.MethodHead {
		buf := readBufs.Get().(*[]byte)
		defer readBufs.Put(buf)
		var ok bool
		if data, ok = s.fetchResult(w, run, etag, buf); !ok {
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.Write(data)
}

// fetchResult returns the bytes of a sweep's result: its store object,
// read into *buf — which then holds them — and hashed whole in that one
// read before the first byte goes out, so a 200 body always hashes to its
// ETag. On failure — the object rotted, or GC evicted it — the request
// has been answered: a logged 500 naming the sweep, without validators,
// and the result is being recomputed.
func (s *server) fetchResult(w http.ResponseWriter, run *sweepRun, etag string, buf *[]byte) ([]byte, bool) {
	data, ok := s.store.GetBySHA(strings.Trim(etag, `"`), *buf)
	if !ok {
		err := fmt.Errorf("sweep %s: its result %s is not in the result store or failed verification; %s", run.ID, etag, s.recompute(run))
		log.Print(err)
		w.Header().Del("ETag")
		w.Header().Del("Cache-Control")
		writeErr(w, http.StatusInternalServerError, err)
		return nil, false
	}
	*buf = data
	return data, true
}

// readBufs pools the buffers the verified reads of /result, ?quantity=
// and /v1/store/{sha} land in. A request takes one, the store reads the
// object into it — growing it only when it is shorter — and the request
// puts it back, holding what it grew to, once the body is written (the
// ResponseWriter has copied it out by then). A warm read then allocates
// nothing the size of the object, and zeroes no fresh buffer.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// viewKey is the store key ID of one quantity's view of a result. A view
// is a pure function of the result's bytes, so it is keyed by their hash:
// sweeps with the same result share their views.
func viewKey(resultETag string, q dsmc.Quantity) string {
	return "view-" + strings.Trim(resultETag, `"`) + "-" + string(q)
}

// serveQuantity serves one sampled quantity's per-point aggregates, or
// 404 — decided from the spec, before any I/O — when the sweep did not
// sample it. A view is a store artifact with its object's SHA-256 as the
// ETag: a matching conditional request needs only the index, any other a
// verified read into a pooled buffer, one store hit, whose hash is the
// ETag. The first request for any view of a result decodes the result
// once and publishes the views of every sampled quantity.
func (s *server) serveQuantity(w http.ResponseWriter, req *http.Request, run *sweepRun, etag string, q dsmc.Quantity) {
	sampled := run.spec.SampledQuantities()
	if !slices.Contains(sampled, q) {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("quantity %q was not sampled by this sweep (add it to the spec's \"quantities\")", q))
		return
	}
	key := viewKey(etag, q)
	if sha, ok := s.store.Lookup(key); ok && notModified(w, req, `"`+sha+`"`) {
		return
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	body, sha, ok := s.store.GetInto(key, *buf)
	if !ok {
		data, ok := s.fetchResult(w, run, etag, buf)
		if !ok {
			return
		}
		var err error
		if sha, err = s.publishViews(data, etag, sampled, q); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		// The result is decoded: its bytes in buf are no longer needed.
		if body, ok = s.store.GetBySHA(sha, *buf); !ok {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("sweep %s: view %s failed verification", run.ID, key))
			return
		}
	}
	*buf = body
	if notModified(w, req, `"`+sha+`"`) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// publishViews decodes a result once, writes the view of every sampled
// quantity (dsmc.WriteQuantityView) straight into the store, and returns
// the content hash of q's view. Only a failure to publish q's view is an
// error: any other view is rebuilt on its next request.
func (s *server) publishViews(result []byte, etag string, sampled []dsmc.Quantity, q dsmc.Quantity) (sha string, err error) {
	var res dsmc.SweepResult
	if err := json.Unmarshal(result, &res); err != nil {
		return "", err
	}
	for _, each := range sampled {
		h, _, perr := s.store.PutStream(viewKey(etag, each), func(w io.Writer) error { return dsmc.WriteQuantityView(w, &res, each) })
		if each == q {
			sha, err = h, perr
		}
	}
	return sha, err
}

// handleStoreList serves the result store's index: totals plus every
// artifact's key, content hash, size, and fetch path.
func (s *server) handleStoreList(w http.ResponseWriter, _ *http.Request) {
	artifacts, size := s.store.Stats()
	type entryView struct {
		store.Entry
		Href string `json:"href"`
	}
	entries := s.store.List()
	views := make([]entryView, 0, len(entries))
	for _, e := range entries {
		views = append(views, entryView{Entry: e, Href: "/v1/store/" + e.SHA256})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"artifacts": artifacts,
		"bytes":     size,
		"entries":   views,
	})
}

// handleStoreObject serves one artifact's raw bytes by content hash.
// The resource is immutable by construction — the hash IS the identity
// — so the ETag is the hash and the cache lifetime is maximal. A request
// whose If-None-Match names a held object is a 304 before anything is
// read or hashed; any other GET is a verified read into a pooled buffer.
func (s *server) handleStoreObject(w http.ResponseWriter, req *http.Request) {
	sha := req.PathValue("sha")
	notFound := func() {
		w.Header().Del("ETag")
		w.Header().Del("Cache-Control")
		writeErr(w, http.StatusNotFound, fmt.Errorf("no object %q in the result store", sha))
	}
	if !s.store.Has(sha) {
		notFound()
		return
	}
	if notModified(w, req, `"`+sha+`"`) {
		return
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	data, ok := s.store.GetBySHA(sha, *buf)
	if !ok {
		notFound() // it failed verification, or was collected since Has
		return
	}
	*buf = data
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// immutableCache is the cache policy of every content-addressed
// resource: anyone may cache it, for the longest interval RFC 9111
// blesses, and revalidation is pointless because the bytes cannot
// change under their identity.
const immutableCache = "public, max-age=31536000, immutable"

// notModified stamps the headers every content-addressed resource
// carries — its strong ETag and the immutable cache policy — and answers
// a request whose If-None-Match already names that tag with a bare 304.
// It reports whether the response is thereby complete.
func notModified(w http.ResponseWriter, req *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", immutableCache)
	if !etagMatches(req.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}

// etagMatches implements If-None-Match: a comma-separated candidate
// list, each possibly weak (W/ prefix — weak comparison suffices for
// GET revalidation), or the wildcard.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
