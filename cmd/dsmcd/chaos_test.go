package main

import (
	"bufio"
	"context"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"dsmc"
	"dsmc/internal/obs"
)

// scrapeMetrics GETs /metrics and parses the exposition with the obs
// package's tiny parser, so every scrape in these tests doubles as a
// format-validity assertion.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics exposition did not parse: %v", err)
	}
	return samples
}

// TestEventsKeepalive: during a quiet phase (one long stepping chunk
// with no progress events) the NDJSON stream must emit keepalive
// records so clients can tell a slow sweep from a dead connection.
func TestEventsKeepalive(t *testing.T) {
	s, err := newServerWith(serverOpts{dataDir: t.TempDir(), workers: 1, keepalive: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	spec := tinySpec()
	spec.Replicas = 1
	spec.SampleSteps = 800
	spec.CheckpointEvery = 5000 // one chunk: no progress events until the end
	id := submit(t, ts, spec)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var keepalives, others, withWorkers int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e dsmc.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Type == "keepalive" {
			if e.Job != "" {
				t.Fatalf("keepalive record carries a job: %q", sc.Text())
			}
			if e.Status == nil {
				t.Fatalf("keepalive record has no status snapshot: %q", sc.Text())
			}
			if e.Status.ActiveJobs < 0 || e.Status.QueueDepth < 0 || e.Status.MaxHeartbeatAgeSec < 0 {
				t.Fatalf("keepalive status out of range: %q", sc.Text())
			}
			if e.Status.Workers > 0 {
				withWorkers++
			}
			keepalives++
		} else {
			others++
		}
	}
	if keepalives == 0 {
		t.Errorf("stream had no keepalive records (%d other events)", others)
	}
	if withWorkers == 0 {
		t.Errorf("no keepalive status ever saw the embedded worker (%d keepalives)", keepalives)
	}
	if st := waitDone(t, ts, id); st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}
}

// TestRecoverRemovesOrphanTmp: a crash in the middle of an atomic write
// leaves a *.tmp orphan; recovery must remove it everywhere in the data
// tree and still serve the sweep cleanly.
func TestRecoverRemovesOrphanTmp(t *testing.T) {
	dir := t.TempDir()
	s1, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.handler())
	id := submit(t, ts1, tinySpec())
	if st := waitDone(t, ts1, id); st.State != stateDone {
		t.Fatalf("first run state %s (%s)", st.State, st.Error)
	}
	ts1.Close()
	s1.close()

	// Plant orphans where the atomic writers put their temp files: the
	// spec's, a job checkpoint's, and a coordinator's checkpoint upload.
	orphans := []string{
		filepath.Join(dir, id, "spec.json.tmp"),
		filepath.Join(dir, id, "ckpt", "job-s000-r000.ckpt.tmp"),
		filepath.Join(dir, id, "ckpt", "job-s000-r001.ckpt.3f2a9c-l000001-1.tmp"),
	}
	for _, p := range orphans {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("torn half-write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.close)
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived recovery (err=%v)", p, err)
		}
	}
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	if st := waitDone(t, ts2, id); st.State != stateDone || !st.Resumed {
		t.Fatalf("recovered sweep state %s resumed=%v", st.State, st.Resumed)
	}
}

// TestChaosWorkerKill is the multi-process end-to-end: a coordinator
// with no embedded workers hands jobs to external `dsmcd -worker`
// processes; the first worker is killed mid-job by the chaos harness
// (hard os.Exit, no release), its lease expires, healthy workers resume
// from the uploaded checkpoint — and the final aggregates hash
// identically to a pool-1 single-process run.
func TestChaosWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "dsmcd-test-bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building worker binary: %v\n%s", err, out)
	}

	spec := tinySpec()
	spec.Replicas = 3
	spec.WarmSteps = 4
	spec.SampleSteps = 60
	spec.CheckpointEvery = 8

	// The reference: the same sweep, single process, pool 1.
	baseSpec := spec
	baseSpec.Pool = 1
	want, err := dsmc.RunSweep(context.Background(), baseSpec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator only — every job runs in a separate worker process.
	s, err := newServerWith(serverOpts{
		dataDir:  t.TempDir(),
		workers:  -1,
		leaseTTL: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	id := submit(t, ts, spec)

	// The chaos worker runs alone first so it deterministically leases a
	// job, checkpoints (every 8 steps), and dies at step 32.
	chaotic := exec.Command(bin, "-worker", "-coord", ts.URL, "-worker-id", "chaotic",
		"-chaos-kill-after-steps", "32")
	if err := chaotic.Start(); err != nil {
		t.Fatal(err)
	}
	crashed := make(chan error, 1)
	go func() { crashed <- chaotic.Wait() }()
	select {
	case err := <-crashed:
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("chaos worker exit: %v, want exit code 2", err)
		}
	case <-time.After(60 * time.Second):
		chaotic.Process.Kill()
		t.Fatal("chaos worker did not crash in time")
	}

	// Mid-chaos scrape: the worker just died and its lease is still
	// ticking toward expiry. The exposition must parse even now, and the
	// lifecycle counters must already show the dispatch that is about to
	// be fenced.
	mid := scrapeMetrics(t, ts.URL)
	if mid["dsmc_coord_lease_grants_total"] < 1 {
		t.Errorf("mid-chaos scrape: lease grants %v, want >= 1", mid["dsmc_coord_lease_grants_total"])
	}

	// Healthy workers finish the sweep, resuming the dead worker's job
	// once its lease expires.
	for _, wid := range []string{"healthy-1", "healthy-2"} {
		w := exec.Command(bin, "-worker", "-coord", ts.URL, "-worker-id", wid)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			w.Process.Kill()
			w.Wait()
		})
	}

	st := waitDone(t, ts, id)
	if st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}

	// Post-recovery scrape: the crash must have left its fingerprints in
	// the coordinator telemetry — the dead worker's lease expired, the
	// job was redispatched (a retry), and every job eventually completed.
	after := scrapeMetrics(t, ts.URL)
	for _, name := range []string{
		"dsmc_coord_lease_expiries_total",
		"dsmc_coord_retries_total",
	} {
		if after[name] < 1 {
			t.Errorf("post-recovery scrape: %s = %v, want >= 1", name, after[name])
		}
	}
	if got := after["dsmc_coord_completions_total"]; got < float64(spec.Replicas) {
		t.Errorf("post-recovery scrape: completions %v, want >= %d", got, spec.Replicas)
	}

	// The event history must show the lost lease being recovered.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lost int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e dsmc.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Type == "job-lost" {
			lost++
		}
	}
	if lost == 0 {
		t.Error("no job-lost event after the worker crash")
	}

	// Bit-identity across process boundaries, a crash, and a resume.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got dsmc.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if g, w := resultHash(t, &got), resultHash(t, want); g != w {
		t.Fatalf("chaos-run aggregate hash %016x != single-process hash %016x", g, w)
	}
}

// resultHash is the FNV-1a hash of a result's canonical JSON encoding
// (encoding/json emits float64s at shortest round-trip precision and
// sorts object keys, so equal hashes mean bit-equal aggregates).
func resultHash(t *testing.T, res *dsmc.SweepResult) uint64 {
	t.Helper()
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}
