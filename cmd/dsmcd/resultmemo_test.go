package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dsmc"
)

// get fetches one path and reads the whole body; etag, when set, makes
// the request conditional.
func get(t *testing.T, url, etag string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// eventLog is a finished sweep's replayed history as "type job" lines.
func eventLog(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var log []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e dsmc.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		log = append(log, e.Type+" "+e.Job)
	}
	return log
}

// TestSweepResultMemoE2E: a sweep whose encoded result the store already
// holds is an index lookup. The resubmit costs one store hit (the result)
// and nothing else — no lease, no publish, which also rules out any job
// decode, aggregation, marshal or write of result bytes — serves the first
// sweep's bytes and ETag from the one store object, and replays the event
// stream the per-job memo path emitted for this spec before the result was
// an artifact. ?quantity= views are artifacts too: built and published by the
// first request for any of them, a verified read afterwards, a 404 from
// the spec alone when the quantity was not sampled.
func TestSweepResultMemoE2E(t *testing.T) {
	dir := t.TempDir()
	s, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	spec := tinySpec()
	spec.Name = "result-memo"
	spec.Points = []dsmc.SweepPoint{{Name: "a"}, {Name: "b", MeanFreePath: f64p(0.5)}}
	spec.Quantities = []dsmc.Quantity{dsmc.Temperature}

	cold := submit(t, ts, spec)
	if st := waitDone(t, ts, cold); st.State != stateDone {
		t.Fatalf("cold sweep state %s (%s)", st.State, st.Error)
	}
	coldResp, coldBody := get(t, ts.URL+"/v1/sweeps/"+cold+"/result", "")
	etag := coldResp.Header.Get("ETag")
	// The ETags this spec's result and views had at the commit before sweep
	// results became artifacts (69b031f): no served byte changed.
	const parentResult = `"1198938e2a1731935d7ebee79cdf9eef8ce3e04f855e4b79780b634d5f512465"`
	parentViews := map[dsmc.Quantity]string{
		dsmc.Temperature: `"cd4f5df819c75a6285ca1a4dabd8505b7a94457e07ac0e117877481f06c4c1cf"`,
		dsmc.Density:     `"fe6e0e2e261eb89d1a59f623f0421fc2744259397009be0d48c017d9a5fafb3f"`,
	}
	if etag != parentResult {
		t.Errorf("cold /result ETag %s, was %s", etag, parentResult)
	}

	delta := func(before, after map[string]float64, name string) float64 { return after[name] - before[name] }
	before := scrapeMetrics(t, ts.URL)
	warm := submit(t, ts, spec)
	if st := waitDone(t, ts, warm); st.State != stateDone {
		t.Fatalf("warm sweep state %s (%s)", st.State, st.Error)
	}
	after := scrapeMetrics(t, ts.URL)
	for name, want := range map[string]float64{
		"dsmc_store_hits_total":         1,
		"dsmc_store_misses_total":       0,
		"dsmc_store_publishes_total":    0,
		"dsmc_coord_lease_grants_total": 0,
		"dsmc_coord_completions_total":  0,
	} {
		if d := delta(before, after, name); d != want {
			t.Errorf("%s during the warm sweep: %v, want %v", name, d, want)
		}
	}

	warmResp, warmBody := get(t, ts.URL+"/v1/sweeps/"+warm+"/result", "")
	if warmResp.StatusCode != http.StatusOK || warmResp.Header.Get("ETag") != etag || !bytes.Equal(warmBody, coldBody) {
		t.Errorf("warm /result: status %d, ETag %s (cold %s), body equal: %v",
			warmResp.StatusCode, warmResp.Header.Get("ETag"), etag, bytes.Equal(warmBody, coldBody))
	}
	if files := filesHolding(t, dir, etag); !slices.Equal(files, []string{resultObject(dir, etag)}) {
		t.Errorf("files holding the result: %v, want only the store object named by its ETag", files)
	}

	// What the per-job memo path emitted for the resubmit of this spec at
	// that commit.
	wantLog := []string{
		"job-started a/r000", "job-done a/r000",
		"job-started a/r001", "job-done a/r001",
		"job-started b/r000", "job-done b/r000",
		"job-started b/r001", "job-done b/r001",
		"job-started a/aggregate", "aggregate-done a/aggregate", "job-done a/aggregate",
		"job-started b/aggregate", "aggregate-done b/aggregate", "job-done b/aggregate",
	}
	if log := eventLog(t, ts.URL, warm); !slices.Equal(log, wantLog) {
		t.Errorf("warm sweep's event stream:\n got %q\nwant %q", log, wantLog)
	}
	if st := waitDone(t, ts, warm); len(st.Jobs) != 6 {
		t.Errorf("warm sweep's status lists %d jobs, want 6 (4 replicas + 2 aggregates)", len(st.Jobs))
	}

	// Views. The expected bytes are the projection of the decoded result
	// encoded as the handler encoded it per request before views were
	// artifacts: indented JSON from an Encoder.
	var res dsmc.SweepResult
	if err := json.Unmarshal(coldBody, &res); err != nil {
		t.Fatal(err)
	}
	for _, q := range []dsmc.Quantity{dsmc.Temperature, dsmc.Density} {
		view := quantityView{Quantity: string(q)}
		for _, p := range res.Points {
			view.Points = append(view.Points, quantityPointView{Name: p.Name, Kind: p.Kind, Field: p.Fields[q]})
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(view); err != nil {
			t.Fatal(err)
		}
		url := ts.URL + "/v1/sweeps/" + warm + "/result?quantity=" + string(q)

		before = scrapeMetrics(t, ts.URL)
		first, firstBody := get(t, url, "")
		mid := scrapeMetrics(t, ts.URL)
		second, secondBody := get(t, url, "")
		after = scrapeMetrics(t, ts.URL)
		for i, r := range []*http.Response{first, second} {
			if r.StatusCode != http.StatusOK || r.Header.Get("ETag") != etagOf(want.Bytes()) {
				t.Errorf("%s view, GET %d: status %d, ETag %s, want 200 and %s", q, i+1, r.StatusCode, r.Header.Get("ETag"), etagOf(want.Bytes()))
			}
		}
		if !bytes.Equal(firstBody, want.Bytes()) || !bytes.Equal(secondBody, want.Bytes()) {
			t.Errorf("%s view: the bodies are not the projection of the result encoded as before", q)
		}
		if first.Header.Get("ETag") != parentViews[q] {
			t.Errorf("%s view: ETag %s, was %s", q, first.Header.Get("ETag"), parentViews[q])
		}
		// The very first view request publishes the views of both sampled
		// quantities; every later one is a verified read.
		wantPublishes, wantHits := 2.0, 0.0
		if q != dsmc.Temperature {
			wantPublishes, wantHits = 0, 1
		}
		if p, h := delta(before, mid, "dsmc_store_publishes_total"), delta(before, mid, "dsmc_store_hits_total"); p != wantPublishes || h != wantHits {
			t.Errorf("%s view, first GET: %v publishes, %v hits; want %v, %v", q, p, h, wantPublishes, wantHits)
		}
		if p, h := delta(mid, after, "dsmc_store_publishes_total"), delta(mid, after, "dsmc_store_hits_total"); p != 0 || h != 1 {
			t.Errorf("%s view, second GET: %v publishes, %v hits; want 0, 1", q, p, h)
		}
		// A matching conditional request is answered from the index: no read.
		cond, condBody := get(t, url, first.Header.Get("ETag"))
		last := scrapeMetrics(t, ts.URL)
		if cond.StatusCode != http.StatusNotModified || len(condBody) != 0 {
			t.Errorf("%s view, conditional GET: status %d, %d-byte body; want a bare 304", q, cond.StatusCode, len(condBody))
		}
		if h, m := delta(after, last, "dsmc_store_hits_total"), delta(after, last, "dsmc_store_misses_total"); h != 0 || m != 0 {
			t.Errorf("%s view, conditional GET: %v store hits, %v misses; want none", q, h, m)
		}
	}

	before = scrapeMetrics(t, ts.URL)
	missing, _ := get(t, ts.URL+"/v1/sweeps/"+warm+"/result?quantity=mach", "")
	after = scrapeMetrics(t, ts.URL)
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unsampled quantity: status %d, want 404", missing.StatusCode)
	}
	if h, m := delta(before, after, "dsmc_store_hits_total"), delta(before, after, "dsmc_store_misses_total"); h != 0 || m != 0 {
		t.Errorf("unsampled quantity: %v store hits, %v misses; want no store read", h, m)
	}
}

// dirNames lists the entries of one directory, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// doneSweepFiles is what a done sweep's directory holds.
var doneSweepFiles = []string{"events.ndjson", "result.ref", "spec.json"}

// waitDoneSweepFiles waits until a done sweep's directory holds only its
// spec, event log and result.ref: the checkpoints go after the client
// can see the sweep done.
func waitDoneSweepFiles(t *testing.T, dir string) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		names := dirNames(t, dir)
		if slices.Equal(names, doneSweepFiles) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s holds %q a minute after the sweep was done, want %q", dir, names, doneSweepFiles)
		}
	}
}

// TestDoneSweepDropsCheckpoints: a sweep that checkpointed its jobs
// removes its ckpt/ once it is done, and so does the recomputation of
// its result after GC evicted every stored object, whose jobs step and
// checkpoint again.
func TestDoneSweepDropsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	spec.CheckpointEvery = 2 // each 8-step job saves at steps 2, 4 and 6
	s, ts, id := doneSweep(t, dir, spec)
	t.Cleanup(s.close)
	defer ts.Close()
	waitDoneSweepFiles(t, filepath.Join(dir, id))

	first, want := fetch(t, http.MethodGet, ts.URL, id, "")
	objects := filepath.Join(dir, "store", "objects")
	for _, name := range dirNames(t, objects) {
		if err := os.Remove(filepath.Join(objects, name)); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := served(t, s, ts.URL, id)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != first.Header.Get("ETag") || !bytes.Equal(body, want) {
		t.Fatalf("after eviction: status %d, ETag %s, body equal %v; want the result again", resp.StatusCode, resp.Header.Get("ETag"), bytes.Equal(body, want))
	}
	if names := dirNames(t, filepath.Join(dir, id)); !slices.Equal(names, doneSweepFiles) {
		t.Errorf("after the recomputation the sweep's directory holds %q, want %q", names, doneSweepFiles)
	}
}

// TestMemoHitMakesNoCheckpointDir: the coordinator creates a sweep's
// checkpoint directory as it registers the jobs, so a resubmitted sweep
// whose result the store holds — it runs no job — leaves only its spec,
// event log and result.ref. The cold sweep ends the same way: it drops
// its checkpoints once it is done.
func TestMemoHitMakesNoCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	s, ts, cold := doneSweep(t, dir, tinySpec())
	t.Cleanup(s.close)
	defer ts.Close()
	waitDoneSweepFiles(t, filepath.Join(dir, cold))
	warm := submit(t, ts, tinySpec())
	if st := waitDone(t, ts, warm); st.State != stateDone {
		t.Fatalf("resubmitted sweep state %s (%s)", st.State, st.Error)
	}
	if names := dirNames(t, filepath.Join(dir, warm)); !slices.Equal(names, doneSweepFiles) {
		t.Errorf("the memo hit's directory holds %q, want %q", names, doneSweepFiles)
	}
}
