package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"dsmc"
	"dsmc/internal/obs"
	"dsmc/internal/store"
)

// HTTPQueue speaks the coordinator wire protocol. It is a dumb
// transport: retries and backoff live in the Worker, so transient
// network errors and 5xx responses surface as plain errors, while 410,
// 404 and 400 map back to the protocol sentinels ErrStaleLease,
// ErrUnknown and ErrBadOutput (which the worker treats as permanent
// answers, never retried). Requests go through http.DefaultClient; per-call
// deadlines come from the contexts the worker passes in.
type HTTPQueue struct {
	// Base is the coordinator root, e.g. "http://127.0.0.1:8077".
	Base string
}

// do issues one request and returns the response body for 2xx statuses
// (nil for 204), mapping protocol statuses to sentinel errors.
func (q *HTTPQueue) do(ctx context.Context, method, path string, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	return q.send(ctx, method, path, contentType, rd)
}

// send is do for a body read as the request goes out.
func (q *HTTPQueue) send(ctx context.Context, method, path string, contentType string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, q.Base+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil, nil
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return io.ReadAll(resp.Body)
	case resp.StatusCode == http.StatusGone:
		return nil, ErrStaleLease
	case resp.StatusCode == http.StatusNotFound:
		return nil, ErrUnknown
	case resp.StatusCode == http.StatusBadRequest:
		// This client malforms no request, so a 400 is a refused
		// completion; the body is the coordinator's ErrBadOutput text.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		detail := strings.TrimPrefix(string(bytes.TrimSpace(msg)), ErrBadOutput.Error()+": ")
		return nil, fmt.Errorf("%w: %s", ErrBadOutput, detail)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("coord: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
}

func jobQuery(path string, l *Lease) string {
	v := url.Values{}
	v.Set("sweep", l.Sweep)
	v.Set("job", l.Job)
	v.Set("lease", l.LeaseID)
	return path + "?" + v.Encode()
}

func (q *HTTPQueue) Poll(ctx context.Context, workerID string) (*Lease, error) {
	body, _ := json.Marshal(map[string]string{"worker": workerID})
	data, err := q.do(ctx, http.MethodPost, "/coord/v1/poll", "application/json", body)
	if err != nil || data == nil {
		return nil, err
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("coord: bad lease: %w", err)
	}
	return &l, nil
}

// Heartbeat piggybacks a compact snapshot of this process's engine
// instruments, which the coordinator re-emits as dsmc_fleet_* rows under
// the worker's label. Embedded workers send none: their engine families
// are the coordinator process's own.
func (q *HTTPQueue) Heartbeat(ctx context.Context, hb Heartbeat) (string, error) {
	hb.Metrics = obs.Default.Snapshot("dsmc_engine_")
	body, _ := json.Marshal(hb)
	data, err := q.do(ctx, http.MethodPost, "/coord/v1/heartbeat", "application/json", body)
	if err != nil {
		return "", err
	}
	var resp struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return "", fmt.Errorf("coord: bad heartbeat response: %w", err)
	}
	return resp.Status, nil
}

func (q *HTTPQueue) LoadCheckpoint(ctx context.Context, l *Lease) ([]byte, error) {
	return q.do(ctx, http.MethodGet, jobQuery("/coord/v1/checkpoint", l), "", nil)
}

// SaveCheckpoint streams the checkpoint as the request body: write fills
// a pipe the transport drains, so no checkpoint-sized buffer is held on
// either side. It returns only after write has: the job's state must not
// change under it.
func (q *HTTPQueue) SaveCheckpoint(ctx context.Context, l *Lease, write func(io.Writer) error) error {
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		pw.CloseWithError(write(pw))
	}()
	_, err := q.send(ctx, http.MethodPut, jobQuery("/coord/v1/checkpoint", l), "application/octet-stream", pr)
	// A request that ended before reading the whole body leaves write
	// blocked on the pipe; closing the read end releases it.
	pr.CloseWithError(errors.New("coord: checkpoint upload ended"))
	<-done
	return err
}

func (q *HTTPQueue) Complete(ctx context.Context, l *Lease, out *dsmc.ReplicaOutput) error {
	_, err := q.do(ctx, http.MethodPost, jobQuery("/coord/v1/complete", l), "application/octet-stream", store.EncodeOutput(out))
	return err
}

func (q *HTTPQueue) Release(ctx context.Context, l *Lease, stepsDone int) error {
	body, _ := json.Marshal(map[string]int{"steps_done": stepsDone})
	_, err := q.do(ctx, http.MethodPost, jobQuery("/coord/v1/release", l), "application/json", body)
	return err
}

func (q *HTTPQueue) Fail(ctx context.Context, l *Lease, msg string) error {
	body, _ := json.Marshal(map[string]string{"error": msg})
	_, err := q.do(ctx, http.MethodPost, jobQuery("/coord/v1/fail", l), "application/json", body)
	return err
}
