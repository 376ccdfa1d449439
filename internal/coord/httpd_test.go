package coord

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmc"
	"dsmc/internal/frame"
	"dsmc/internal/store"
)

// TestHTTPTransport drives real workers through the wire protocol —
// HTTPQueue against the coordinator's Handler — with checkpoints on
// disk, and checks bit-identity against the in-process run. Then a
// second sweep's job goes by hand through each call the workers made or
// could have made — checkpoint load and save, the workers roster,
// release, fail — and the protocol's error mapping: a stale lease is 410
// → ErrStaleLease, and a done or unknown sweep is 404 → ErrUnknown.
func TestHTTPTransport(t *testing.T) {
	spec := tinySpec()
	want := runSweep(t, spec)

	c := newCoord(t, Config{LeaseTTL: time.Second})
	done := addSweep(t, c, "sw", sweepOf(t, spec))
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	q := &HTTPQueue{Base: ts.URL}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			ID:        []string{"h1", "h2"}[i],
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
	checkResult(t, c, done, want, "the HTTP-distributed sweep")
	cancel()
	wg.Wait()

	bg := context.Background()
	gone := &Lease{Sweep: "sw", Job: "rarefied/r000", LeaseID: "l1"}
	if err := q.SaveCheckpoint(bg, gone, payload([]byte("x"))); !errors.Is(err, ErrUnknown) {
		t.Fatalf("upload to a done sweep: got %v, want ErrUnknown", err)
	}
	missing := &Lease{Sweep: "nope", Job: "rarefied/r000", LeaseID: "l1"}
	if err := q.SaveCheckpoint(bg, missing, payload([]byte("x"))); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown sweep upload: got %v, want ErrUnknown", err)
	}

	spec.WarmSteps++ // other job keys: nothing is a store hit
	addSweep(t, c, "sw2", sweepOf(t, spec))
	l, err := q.Poll(bg, "h3")
	if err != nil || l == nil {
		t.Fatalf("poll: %v, %v", l, err)
	}
	if data, err := q.LoadCheckpoint(bg, l); err != nil || data != nil {
		t.Fatalf("checkpoint before any upload: %q, %v; want none", data, err)
	}
	if err := q.SaveCheckpoint(bg, l, payload([]byte("ckpt"))); err != nil {
		t.Fatal(err)
	}
	if data, err := q.LoadCheckpoint(bg, l); err != nil || string(data) != "ckpt" {
		t.Fatalf("checkpoint after the upload: %q, %v", data, err)
	}

	resp, err := http.Get(ts.URL + "/coord/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var roster struct{ Workers []WorkerStatus }
	err = json.NewDecoder(resp.Body).Decode(&roster)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /coord/v1/workers: %s, %v", resp.Status, err)
	}
	if i := slices.IndexFunc(roster.Workers, func(w WorkerStatus) bool { return w.ID == "h3" }); i < 0 ||
		roster.Workers[i].State != "running" || roster.Workers[i].Sweep != "sw2" || roster.Workers[i].Job != l.Job {
		t.Errorf("workers %+v, want h3 running sw2 %s", roster.Workers, l.Job)
	}

	job := func(stage, state string, steps int) {
		t.Helper()
		if rows, _ := c.Jobs("sw2"); rows[0].Job != l.Job || rows[0].State != state || rows[0].StepsDone != steps {
			t.Errorf("%s: row %+v, want %s %s at step %d", stage, rows[0], l.Job, state, steps)
		}
	}
	if err := q.Release(bg, l, 3); err != nil {
		t.Fatal(err)
	}
	job("released", "queued", 3)
	if err := q.Release(bg, l, 3); !errors.Is(err, ErrStaleLease) {
		t.Errorf("second release: %v, want ErrStaleLease", err)
	}
	if _, err := q.LoadCheckpoint(bg, l); !errors.Is(err, ErrStaleLease) {
		t.Errorf("checkpoint load under a released lease: %v, want ErrStaleLease", err)
	}

	l2, err := q.Poll(bg, "h3")
	if err != nil || l2 == nil || l2.Job != l.Job || !l2.HasCheckpoint {
		t.Fatalf("poll after the release: %+v, %v; want %s with its checkpoint", l2, err, l.Job)
	}
	if err := q.Fail(bg, l2, "boom"); err != nil {
		t.Fatal(err)
	}
	job("failed on attempt 1 of 3", "queued", 3)
	if err := q.Fail(bg, l2, "boom"); !errors.Is(err, ErrStaleLease) {
		t.Errorf("second failure report: %v, want ErrStaleLease", err)
	}
	if err := q.SaveCheckpoint(bg, l2, payload([]byte("x"))); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("upload under a failed lease: got %v, want ErrStaleLease", err)
	}
	bogus := &Lease{Sweep: "sw2", Job: l.Job, LeaseID: "l999999"}
	if err := q.SaveCheckpoint(bg, bogus, payload([]byte("x"))); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("bogus lease upload: got %v, want ErrStaleLease", err)
	}
}

// TestUploadLimit: the two endpoints that buffer a whole body refuse one
// over the limit with 413 — by its declared length before a byte is read,
// or while reading when the length is not declared — and so do the four
// JSON endpoints over theirs; the completion
// endpoint refuses a sealed output frame declaring ~2^64 fields with 400
// before sizing anything from the count, and the refusals leave the lease
// as it was: the same lease then uploads checkpoints and completes, and
// the sweep finishes.
func TestUploadLimit(t *testing.T) {
	c := newCoord(t, Config{LeaseTTL: 30 * time.Second})
	done := addSweep(t, c, "sw", sweepOf(t, tinySpec()))
	h := c.Handler()
	l := mustPoll(t, c, "w1")

	for _, target := range []struct{ method, path string }{
		{http.MethodPut, "/coord/v1/checkpoint"},
		{http.MethodPost, "/coord/v1/complete"},
	} {
		// The body itself is tiny: the declared length alone must refuse it.
		req := httptest.NewRequest(target.method, jobQuery(target.path, l), strings.NewReader("x"))
		req.ContentLength = maxUploadBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s declaring %d bytes: status %d, want 413", target.method, target.path, req.ContentLength, rec.Code)
		}
	}

	// Poll, heartbeat, release and fail decode their JSON bodies: one over
	// maxJSONBytes is refused with 413 whether its length is declared or
	// found while decoding, and a refused release or fail leaves the lease.
	pad := strings.Repeat("x", maxJSONBytes)
	body, _ := json.Marshal(map[string]string{"worker": "w1", "sweep": l.Sweep, "job": l.Job, "lease": l.LeaseID, "error": "x", "pad": pad})
	for _, path := range []string{"/coord/v1/poll", "/coord/v1/heartbeat", jobQuery("/coord/v1/release", l), jobQuery("/coord/v1/fail", l)} {
		for _, declared := range []int64{int64(len(body)), -1} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.ContentLength = declared
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("POST %s of %d bytes declaring %d: status %d, want 413", path, len(body), declared, rec.Code)
			}
		}
	}

	// Undeclared length (chunked): the limit is found while reading.
	for _, tc := range []struct {
		body string
		ok   bool
	}{{"12345678", true}, {"123456789", false}} {
		req := httptest.NewRequest(http.MethodPut, "/", strings.NewReader(tc.body))
		req.ContentLength = -1
		rec := httptest.NewRecorder()
		data, ok := readUpload(rec, req, 8)
		if ok != tc.ok || (ok && string(data) != tc.body) || (!ok && rec.Code != http.StatusRequestEntityTooLarge) {
			t.Errorf("readUpload of %d undeclared bytes, limit 8: ok=%v status %d data %q", len(tc.body), ok, rec.Code, data)
		}
	}

	// A checkpoint streams to its file, so its limit is found while
	// writing: the oversized body leaves neither a checkpoint nor a temp
	// file, and the lease takes the next upload.
	for _, tc := range []struct {
		body string
		code int
		kept string
	}{{"123456789", http.StatusRequestEntityTooLarge, ""}, {"12345678", http.StatusNoContent, "12345678"}} {
		req := httptest.NewRequest(http.MethodPut, jobQuery("/coord/v1/checkpoint", l), strings.NewReader(tc.body))
		req.ContentLength = -1
		rec := httptest.NewRecorder()
		c.putCheckpoint(rec, req, 8)
		data, err := c.LoadCheckpoint(l.Sweep, l.Job, l.LeaseID)
		if rec.Code != tc.code || err != nil || string(data) != tc.kept {
			t.Errorf("checkpoint PUT of %d undeclared bytes, limit 8: status %d, checkpoint %q, %v", len(tc.body), rec.Code, data, err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(c.sweeps[l.Sweep].sweep.Spec.CheckpointDir, "*.tmp")); len(tmps) > 0 {
			t.Errorf("checkpoint PUT of %d undeclared bytes left %v", len(tc.body), tmps)
		}
	}

	// A 56-byte completion body with a valid trailer: the header of a real
	// output frame, a field count of 2^64-1, the three scalars.
	zero := store.EncodeOutput(&store.Output{})
	var buf bytes.Buffer
	w := frame.NewWriter(&buf, binary.LittleEndian.Uint64(zero), uint32(binary.LittleEndian.Uint64(zero[8:])))
	w.U64(math.MaxUint64)
	w.F64(0)
	w.I64(0)
	w.I64(0)
	w.Finish()
	req := httptest.NewRequest(http.MethodPost, jobQuery("/coord/v1/complete", l), bytes.NewReader(buf.Bytes()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("completion declaring 2^64-1 fields: status %d, want 400 (%s)", rec.Code, rec.Body)
	}

	// The refused requests changed nothing: l is still the live lease.
	if status, err := c.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: l.Sweep, Job: l.Job, Lease: l.LeaseID}); err != nil || status != HBOK {
		t.Fatalf("heartbeat after the refused uploads: status %q, err %v", status, err)
	}
	for ; l != nil; l, _ = c.Poll("w1") {
		out := runLeasedJob(t, c, l) // uploads its checkpoints under l
		if err := c.Complete(l.Sweep, l.Job, l.LeaseID, out); err != nil {
			t.Fatalf("complete %s: %v", l.Job, err)
		}
	}
	select {
	case fin := <-done:
		if fin.err != nil {
			t.Fatal(fin.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep never finished after the refused uploads")
	}
}

// TestCompletionShapeRefused: a completion under the live lease whose
// output does not fit the lowered spec — a short column, a long column, a
// missing quantity — is a 400, which the client maps back to
// ErrBadOutput, and changes nothing: the lease still heartbeats ok, the
// same lease then completes with the real output, and the sweep lands on
// the in-process run's bits.
func TestCompletionShapeRefused(t *testing.T) {
	spec := tinySpec()
	spec.Quantities = []dsmc.Quantity{dsmc.Density, dsmc.Temperature}
	want := runSweep(t, spec)

	c := newCoord(t, Config{LeaseTTL: 30 * time.Second})
	done := addSweep(t, c, "sw", sweepOf(t, spec))
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	q := &HTTPQueue{Base: ts.URL}

	l := mustPoll(t, c, "w1")
	out := runLeasedJob(t, c, l)
	reshape := func(edit func(fields map[string][]float64)) *dsmc.ReplicaOutput {
		bad := *out
		bad.Fields = map[string][]float64{}
		for q, col := range out.Fields {
			bad.Fields[q] = col
		}
		edit(bad.Fields)
		return &bad
	}
	density := string(dsmc.Density)
	for _, tc := range []struct {
		name string
		out  *dsmc.ReplicaOutput
	}{
		{"short column", reshape(func(f map[string][]float64) { f[density] = f[density][1:] })},
		{"long column", reshape(func(f map[string][]float64) { f[density] = append(f[density], 0) })},
		{"missing quantity", reshape(func(f map[string][]float64) { delete(f, density) })},
	} {
		if err := q.Complete(context.Background(), l, tc.out); !errors.Is(err, ErrBadOutput) {
			t.Fatalf("%s: completion answered %v, want ErrBadOutput", tc.name, err)
		}
		if status, err := c.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: l.Sweep, Job: l.Job, Lease: l.LeaseID}); err != nil || status != HBOK {
			t.Fatalf("%s: heartbeat after the refusal: status %q, err %v", tc.name, status, err)
		}
	}
	if err := c.Complete(l.Sweep, l.Job, l.LeaseID, reshape(func(f map[string][]float64) { f["extra"] = f[density] })); !errors.Is(err, ErrBadOutput) {
		t.Fatalf("in-process completion with an extra quantity: %v, want ErrBadOutput", err)
	}

	for ; l != nil; l, _ = c.Poll("w1") {
		if err := q.Complete(context.Background(), l, runLeasedJob(t, c, l)); err != nil {
			t.Fatalf("complete %s: %v", l.Job, err)
		}
	}
	checkResult(t, c, done, want, "the sweep after the refused completions")
}
