package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dsmc/internal/store"
)

// Handler exposes the coordinator protocol over HTTP under /coord/v1/.
// Job IDs contain slashes ("<point>/r000"), so requests address jobs
// with ?sweep=&job=&lease= query parameters rather than path segments.
// Error mapping: stale lease → 410 Gone, unknown sweep/job → 404, a
// refused completion → 400; the client maps them back to the same
// sentinel errors the in-process queue returns.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /coord/v1/poll", c.handlePoll)
	mux.HandleFunc("POST /coord/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /coord/v1/checkpoint", c.handleGetCheckpoint)
	mux.HandleFunc("PUT /coord/v1/checkpoint", c.handlePutCheckpoint)
	mux.HandleFunc("POST /coord/v1/complete", c.handleComplete)
	mux.HandleFunc("POST /coord/v1/release", c.handleRelease)
	mux.HandleFunc("POST /coord/v1/fail", c.handleFail)
	mux.HandleFunc("GET /coord/v1/workers", c.handleWorkers)
	return mux
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	if !decodeJSON(w, r, &req, "bad poll request") {
		return
	}
	if req.Worker == "" {
		http.Error(w, "bad poll request", http.StatusBadRequest)
		return
	}
	lease, err := c.Poll(req.Worker)
	if err != nil {
		coordError(w, err)
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, lease)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if !decodeJSON(w, r, &hb, "bad heartbeat") {
		return
	}
	status, err := c.HandleHeartbeat(hb)
	if err != nil {
		coordError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": status})
}

func (c *Coordinator) handleGetCheckpoint(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	data, err := c.LoadCheckpoint(sweep, job, lease)
	if err != nil {
		coordError(w, err)
		return
	}
	if len(data) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (c *Coordinator) handlePutCheckpoint(w http.ResponseWriter, r *http.Request) {
	c.putCheckpoint(w, r, maxUploadBytes)
}

// putCheckpoint streams a checkpoint PUT of at most limit bytes into the
// job's checkpoint file. A longer body — declared, or found while
// streaming, which fails the write and removes the temp file — is
// refused with 413, and the checkpoint and lease stay as they were.
func (c *Coordinator) putCheckpoint(w http.ResponseWriter, r *http.Request, limit int64) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	if r.ContentLength > limit {
		tooLarge(w, limit)
		return
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	err := c.SaveCheckpoint(sweep, job, lease, func(dst io.Writer) error {
		_, err := io.Copy(dst, body)
		return err
	})
	var over *http.MaxBytesError
	switch {
	case errors.As(err, &over):
		tooLarge(w, limit)
	case err != nil:
		coordError(w, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	data, ok := readUpload(w, r, maxUploadBytes)
	if !ok {
		return
	}
	out, err := store.DecodeOutput(data)
	if err != nil {
		coordError(w, fmt.Errorf("%w: %v", ErrBadOutput, err))
		return
	}
	if err := c.Complete(sweep, job, lease, out); err != nil {
		coordError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	var req struct {
		StepsDone int `json:"steps_done"`
	}
	if !decodeJSON(w, r, &req, "bad release") {
		return
	}
	if err := c.Release(sweep, job, lease, req.StepsDone); err != nil {
		coordError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	var req struct {
		Error string `json:"error"`
	}
	if !decodeJSON(w, r, &req, "bad fail request") {
		return
	}
	if err := c.Fail(sweep, job, lease, req.Error); err != nil {
		coordError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"workers": c.Workers()})
}

// maxUploadBytes caps the body of a checkpoint PUT and of a completion
// POST. A checkpoint of the paper-scale flow (98x64 cells at 75
// particles per cell, 0.5 M particles) is 31 MiB and a replica output is
// far smaller, so 256 MiB leaves 8x headroom while bounding what one
// request can make the coordinator allocate (a completion, which it
// buffers whole) or write to disk (a checkpoint, which it streams).
const maxUploadBytes = 256 << 20

// readUpload reads a request body of at most limit bytes. A longer one —
// declared by Content-Length or discovered while reading — is refused
// with 413 before any coordinator state is touched, so the sender's lease
// stays as it was. ok is false when the response has been written.
func readUpload(w http.ResponseWriter, r *http.Request, limit int64) (data []byte, ok bool) {
	if r.ContentLength <= limit {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
		if err == nil {
			return data, true
		}
		var over *http.MaxBytesError
		if !errors.As(err, &over) {
			http.Error(w, "bad body", http.StatusBadRequest)
			return nil, false
		}
	}
	tooLarge(w, limit)
	return nil, false
}

// maxJSONBytes caps the body of a poll, heartbeat, release or fail. The
// largest of them is a heartbeat, which carries one engine snapshot (11
// samples): under 2.2 KB, so 64 KiB leaves ~30x headroom.
const maxJSONBytes = 64 << 10

// decodeJSON decodes a JSON request body of at most maxJSONBytes into v.
// A longer one is refused with 413 and any other decode error with 400
// naming what, before any coordinator state is touched. ok is false when
// the response has been written.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, what string) (ok bool) {
	if r.ContentLength > maxJSONBytes {
		tooLarge(w, maxJSONBytes)
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBytes)).Decode(v)
	var over *http.MaxBytesError
	switch {
	case errors.As(err, &over):
		tooLarge(w, maxJSONBytes)
	case err != nil:
		http.Error(w, what, http.StatusBadRequest)
	}
	return err == nil
}

// tooLarge refuses an upload over limit bytes.
func tooLarge(w http.ResponseWriter, limit int64) {
	http.Error(w, fmt.Sprintf("body exceeds the %d-byte upload limit", limit), http.StatusRequestEntityTooLarge)
}

func jobParams(w http.ResponseWriter, r *http.Request) (sweep, job, lease string, ok bool) {
	q := r.URL.Query()
	sweep, job, lease = q.Get("sweep"), q.Get("job"), q.Get("lease")
	if sweep == "" || job == "" || lease == "" {
		http.Error(w, "sweep, job and lease query parameters required", http.StatusBadRequest)
		return "", "", "", false
	}
	return sweep, job, lease, true
}

func coordError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrStaleLease):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, ErrUnknown):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBadOutput):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
