// Package coord distributes a sweep's job DAG across worker processes
// and survives their failure. It sits above the public dsmc API — the
// coordinator takes a sweep lowered once by dsmc.NewSweep and dispatches
// its Jobs, pull-based workers execute them with dsmc.RunSweepJob, the
// sweep's table folds each uploaded output as it lands, and the
// coordinator assembles the finished aggregates with Sweep.Assemble and
// streams the result into the content-addressed store it runs against —
// so a distributed sweep shares every line of lowering, seeding,
// stepping and aggregation code with the in-process path and its result
// is bit-identical to a single-process run. Its job states are the
// in-process executor's too: each sweep is a run.Table, and the
// coordinator adds only the leases. So are its checkpoints: a worker's
// upload is written to the file the executor would have written, in the
// directory the sweep's spec names.
//
// Protocol (modeled on dagu's coordinator protocol: workers poll for
// work, the coordinator dispatches leases, heartbeats carry liveness and
// step progress, a workers endpoint feeds status):
//
//	POST /coord/v1/poll        {"worker": id}        → 200 lease | 204 no work
//	POST /coord/v1/heartbeat   {worker, sweep, job, lease, steps_done, steps_total}
//	                                                 → {"status": "ok" | "abandon"}
//	GET  /coord/v1/checkpoint?sweep=&job=&lease=     → 200 bytes | 204 none
//	PUT  /coord/v1/checkpoint?sweep=&job=&lease=     → 204 (idempotent)
//	POST /coord/v1/complete?sweep=&job=&lease=       → 204 (idempotent; body: binary output) | 400 refused output
//	POST /coord/v1/release?sweep=&job=&lease=        → 204 (graceful hand-back)
//	POST /coord/v1/fail?sweep=&job=&lease=           → 204 (body: {"error": msg})
//	GET  /coord/v1/workers                           → {"workers": [...]}
//
// Failure model: a lease that misses its heartbeats expires and the job
// is redispatched to the next polling worker, which resumes from the
// last uploaded checkpoint — because seeds and accumulators are
// deterministic, the retried job contributes the same bits as the
// never-failed run. A stale worker (its lease expired while it kept
// computing, or a coordinator restarted since granting it: lease IDs
// carry a per-coordinator random prefix) gets 410 on every mutation, so
// redelivered uploads and completions are rejected idempotently and can
// never corrupt a redispatched job's state (a call for a sweep done and
// gone is a 404, taken the same way). A completion whose output does not
// fit the lowered spec is a 400 that leaves the lease live; the worker
// then reports the job failed. A job that exhausts its dispatch
// budget is failed permanently and the table's one failure rule applies:
// every other lease is revoked, every unfinished job and unrun
// aggregation is reported skipped, point by point, and the sweep reports
// the first error.
package coord

import (
	"encoding/json"
	"errors"

	"dsmc"
	"dsmc/internal/obs"
)

// Sentinel errors of the coordinator API. The HTTP layer maps them to
// status codes and the client maps the codes back, so in-process and
// remote queues behave identically.
var (
	// ErrStaleLease rejects a mutation under a lease that is no longer
	// the job's current lease — expired, released, superseded by a
	// redispatch, or on a sweep that already failed. The rejection is
	// idempotent: repeating the call changes nothing on either side, and
	// the worker's reaction is always "abandon the job".
	ErrStaleLease = errors.New("coord: stale lease")
	// ErrUnknown rejects references to sweeps or jobs the coordinator
	// does not hold (a done sweep has left; a worker takes it as stale).
	ErrUnknown = errors.New("coord: unknown sweep or job")
	// ErrBadOutput refuses a completion under the live lease whose output
	// does not decode, or does not have the shape the lowered spec gives
	// the job: exactly the sweep's quantities, each a column of the
	// point's cell count. Nothing changes — the lease stays live — and
	// sending the same output again cannot succeed, so the worker reports
	// the job failed instead, naming the mismatch.
	ErrBadOutput = errors.New("coord: output does not fit the sweep")
)

// Lease is a dispatched job: the sweep spec to lower, the (point,
// replica) coordinates to run, and the lease the worker must present on
// every subsequent call. TTLMillis is how long the lease survives
// without a heartbeat; the worker heartbeats at an eighth of it, and
// fails a lease whose TTL is not positive as malformed.
type Lease struct {
	Sweep         string          `json:"sweep"`
	Job           string          `json:"job"`
	Point         int             `json:"point"`
	Replica       int             `json:"replica"`
	StepsTotal    int             `json:"steps_total"`
	LeaseID       string          `json:"lease_id"`
	TTLMillis     int64           `json:"ttl_ms"`
	HasCheckpoint bool            `json:"has_checkpoint"`
	Spec          json.RawMessage `json:"spec"`
}

// Heartbeat carries a worker's liveness and step progress for its
// current lease, plus two optional telemetry piggybacks: a compact
// snapshot of the worker's engine instruments (re-emitted by the
// coordinator's /metrics with a worker label) and the recent
// flight-recorder batch (emitted as "trace" events). Both ride the
// heartbeat the worker already sends, so telemetry costs no extra
// round-trips and stops flowing exactly when liveness does.
type Heartbeat struct {
	Worker     string `json:"worker"`
	Sweep      string `json:"sweep"`
	Job        string `json:"job"`
	Lease      string `json:"lease"`
	StepsDone  int    `json:"steps_done"`
	StepsTotal int    `json:"steps_total"`

	Metrics []obs.Sample     `json:"metrics,omitempty"`
	Trace   []dsmc.StepTrace `json:"trace,omitempty"`
}

// Heartbeat responses.
const (
	// HBOK acknowledges the heartbeat and renews the lease.
	HBOK = "ok"
	// HBAbandon tells the worker its lease is gone (expired and possibly
	// redispatched): stop working on the job and poll for new work.
	HBAbandon = "abandon"
)

// JobStatus is one row of a sweep's job table: a replica job's or a
// point aggregate's state, with the steps of its lease while it runs or
// waits to run again and the error of the job that failed.
type JobStatus struct {
	Job        string `json:"job"`
	State      string `json:"state"` // "pending" | "running" | "queued" | "done" | "failed" | "skipped"
	StepsDone  int    `json:"steps_done,omitempty"`
	StepsTotal int    `json:"steps_total,omitempty"`
	Err        string `json:"err,omitempty"`
}

// WorkerStatus is one row of the workers endpoint: the operator's view
// of the fleet.
type WorkerStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"` // "running" | "idle" | "lost"
	Sweep      string `json:"sweep,omitempty"`
	Job        string `json:"job,omitempty"`
	StepsDone  int    `json:"steps_done,omitempty"`
	StepsTotal int    `json:"steps_total,omitempty"`
	// LastSeenMillis is the age of the last contact, in milliseconds.
	LastSeenMillis int64 `json:"last_seen_ms"`
}
