package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmc"
)

func f64p(v float64) *float64 { return &v }

// TestStoreMemoE2E: the headline memoization property, end to end.
// Sweep A finishes and populates the result store; sweep B shares half
// its points with A (same indices, same physics) and must complete with
// zero recomputed replicas — the store hit counter accounts for every
// shared job and the lease counter shows only the fresh half was ever
// dispatched — while its aggregate is bit-identical to a cold pool-1
// in-process run. The finished result is then revalidated via its ETag.
func TestStoreMemoE2E(t *testing.T) {
	s, err := newServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	shared := []dsmc.SweepPoint{
		{Name: "shared-0"},
		{Name: "shared-1", MeanFreePath: f64p(0.5)},
	}
	specA := tinySpec()
	specA.Name = "memo-a"
	specA.Points = shared
	idA := submit(t, ts, specA)
	if st := waitDone(t, ts, idA); st.State != stateDone {
		t.Fatalf("sweep A state %s (%s)", st.State, st.Error)
	}

	before := scrapeMetrics(t, ts.URL)

	specB := tinySpec()
	specB.Name = "memo-b"
	specB.Points = append(append([]dsmc.SweepPoint{}, shared...),
		dsmc.SweepPoint{Name: "fresh-0", MeanFreePath: f64p(0.75)},
		dsmc.SweepPoint{Name: "fresh-1", WedgeAngleDeg: f64p(25)},
	)
	idB := submit(t, ts, specB)
	if st := waitDone(t, ts, idB); st.State != stateDone {
		t.Fatalf("sweep B state %s (%s)", st.State, st.Error)
	}

	after := scrapeMetrics(t, ts.URL)
	sharedJobs := float64(len(shared) * specB.Replicas)
	if hits := after["dsmc_store_hits_total"] - before["dsmc_store_hits_total"]; hits != sharedJobs {
		t.Errorf("store hits during sweep B: %v, want %v (every shared replica memoized)", hits, sharedJobs)
	}
	freshJobs := float64(2 * specB.Replicas)
	if grants := after["dsmc_coord_lease_grants_total"] - before["dsmc_coord_lease_grants_total"]; grants != freshJobs {
		t.Errorf("leases granted during sweep B: %v, want %v (only fresh jobs dispatched)", grants, freshJobs)
	}

	// B's served aggregate is bit-identical to a cold pool-1 run.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + idB + "/result")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	cache := resp.Header.Get("Cache-Control")
	var resB dsmc.SweepResult
	err = json.NewDecoder(resp.Body).Decode(&resB)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	cold := specB
	cold.Pool = 1
	coldRes, err := dsmc.RunSweep(context.Background(), cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := resultHash(t, &resB), resultHash(t, coldRes); g != w {
		t.Fatalf("memoized sweep hash %016x != cold pool-1 hash %016x", g, w)
	}

	// The result is an immutable resource: strong ETag, immutable cache
	// policy, and conditional revalidation short-circuits to 304.
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("result ETag %q is not a quoted strong validator", etag)
	}
	if !strings.Contains(cache, "immutable") {
		t.Errorf("result Cache-Control %q is not immutable", cache)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+idB+"/result", nil)
	req.Header.Set("If-None-Match", etag)
	cond, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(cond.Body)
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET with matching ETag: status %d, want 304", cond.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a %d-byte body", len(body))
	}

	// The store listing covers both sweeps' artifacts, and each object
	// is fetchable by content hash with the same immutable semantics.
	resp, err = http.Get(ts.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Artifacts int `json:"artifacts"`
		Bytes     int `json:"bytes"`
		Entries   []struct {
			Key    string `json:"key"`
			SHA256 string `json:"sha256"`
			Size   int    `json:"size"`
			Href   string `json:"href"`
		} `json:"entries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantArtifacts := (len(shared)+2)*specB.Replicas + 2 // A's 4 jobs + B's 4 fresh jobs + each sweep's encoded result
	if listing.Artifacts != wantArtifacts || len(listing.Entries) != wantArtifacts || listing.Bytes <= 0 {
		t.Fatalf("store listing: %d artifacts, %d entries, %d bytes; want %d artifacts",
			listing.Artifacts, len(listing.Entries), listing.Bytes, wantArtifacts)
	}
	e := listing.Entries[0]
	if e.Key == "" || len(e.SHA256) != 64 || e.Size <= 0 {
		t.Fatalf("malformed listing entry %+v", e)
	}
	resp, err = http.Get(ts.URL + e.Href)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(blob) != e.Size {
		t.Fatalf("GET %s: status %d, %d bytes (want %d)", e.Href, resp.StatusCode, len(blob), e.Size)
	}
	if got, want := resp.Header.Get("ETag"), `"`+e.SHA256+`"`; got != want {
		t.Errorf("artifact ETag %q, want %q", got, want)
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+e.Href, nil)
	req.Header.Set("If-None-Match", `W/"`+e.SHA256+`"`)
	cond, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified {
		t.Errorf("conditional artifact GET: status %d, want 304", cond.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/store/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown object: status %d, want 404", resp.StatusCode)
	}
}

// TestStoreQuarantineOnRestart: a restarted server quarantines torn
// store artifacts instead of serving them, keeps sweeping orphaned tmp
// files outside the store, and a resubmitted sweep falls back to
// recomputing the one artifact whose bytes rotted — reproducing the
// original result exactly. The second case rots the sweep's encoded
// result itself: its GET is a 500 that quarantines the object and starts
// recomputing it, which takes the per-job path, every job a store hit,
// and republishes the same bytes for the sweep and a resubmit to serve.
func TestStoreQuarantineOnRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.handler())
	spec := tinySpec()
	id1 := submit(t, ts1, spec)
	if st := waitDone(t, ts1, id1); st.State != stateDone {
		t.Fatalf("first sweep state %s (%s)", st.State, st.Error)
	}
	resp, err := http.Get(ts1.URL + "/v1/sweeps/" + id1 + "/result")
	if err != nil {
		t.Fatal(err)
	}
	etag1 := resp.Header.Get("ETag")
	var res1 dsmc.SweepResult
	err = json.NewDecoder(resp.Body).Decode(&res1)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.close()

	// Crash aftermath: a torn artifact write inside the store, a stray
	// atomic-write orphan outside it, and one finished artifact whose
	// bytes rotted on disk.
	storeDir := filepath.Join(dir, "store")
	torn := filepath.Join(storeDir, "objects", "half-written.tmp")
	if err := os.WriteFile(torn, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "stray.tmp")
	if err := os.WriteFile(stray, []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The victim is a replica output, found through the index.
	rot := func(kind string) (object string) {
		t.Helper()
		keys, err := filepath.Glob(filepath.Join(storeDir, "index", kind+"-*"))
		if err != nil || len(keys) == 0 {
			t.Fatalf("no %s-* key in the store index (err %v)", kind, err)
		}
		sha, err := os.ReadFile(keys[0])
		if err != nil {
			t.Fatal(err)
		}
		object = filepath.Join(storeDir, "objects", strings.TrimSpace(string(sha)))
		data, err := os.ReadFile(object)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(object, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return object
	}
	rot("out")
	resKeys, err := filepath.Glob(filepath.Join(storeDir, "index", "res-*"))
	if err != nil || len(resKeys) != 1 {
		t.Fatalf("res-* keys after one sweep: %v (err %v), want one", resKeys, err)
	}

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.close)
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	// The restart found the sweep's result stored, so the first sweep is
	// done. Its "res" artifact is then rejected as a failed verification
	// would reject it, so the resubmit below takes the per-job path.
	if st := waitDone(t, ts2, id1); st.State != stateDone {
		t.Fatalf("first sweep after the restart: state %s (%s)", st.State, st.Error)
	}
	s2.store.Reject(filepath.Base(resKeys[0]))

	// The torn artifact was quarantined — moved aside, not deleted, and
	// never served — while the stray orphan outside the store was removed.
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn artifact still in objects/: %v", err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "quarantine", "half-written.tmp")); err != nil {
		t.Errorf("torn artifact not in quarantine/: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray tmp outside the store survived recovery: %v", err)
	}

	// Resubmitting the equivalent sweep: the rotted artifact fails
	// integrity verification and is recomputed; the intact one memoizes;
	// the result is bit-identical to the original.
	before := scrapeMetrics(t, ts2.URL)
	id2 := submit(t, ts2, spec)
	if st := waitDone(t, ts2, id2); st.State != stateDone {
		t.Fatalf("resubmitted sweep state %s (%s)", st.State, st.Error)
	}
	after := scrapeMetrics(t, ts2.URL)
	if d := after["dsmc_store_verify_failures_total"] - before["dsmc_store_verify_failures_total"]; d < 1 {
		t.Errorf("verify failures during resubmit: %v, want >= 1", d)
	}
	if d := after["dsmc_store_hits_total"] - before["dsmc_store_hits_total"]; d != 1 {
		t.Errorf("store hits during resubmit: %v, want 1 (the intact artifact)", d)
	}
	if d := after["dsmc_coord_lease_grants_total"] - before["dsmc_coord_lease_grants_total"]; d != 1 {
		t.Errorf("leases during resubmit: %v, want 1 (only the rotted job recomputes)", d)
	}
	resp, err = http.Get(ts2.URL + "/v1/sweeps/" + id2 + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res2 dsmc.SweepResult
	err = json.NewDecoder(resp.Body).Decode(&res2)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := resultHash(t, &res2), resultHash(t, &res1); g != w {
		t.Fatalf("post-corruption result hash %016x != original %016x", g, w)
	}
	if q, _ := filepath.Glob(filepath.Join(storeDir, "quarantine", "*")); len(q) < 2 {
		t.Errorf("quarantine holds %d files, want >= 2 (torn tmp + rotted object)", len(q))
	}

	// Second case: the resubmit republished the encoded result; rot that
	// object. The sweep's verified GET turns into a 500 — never a wrong
	// 200 — and quarantines the object, and the recomputation it starts
	// misses the result, re-assembles it from job hits alone and
	// republishes the original bytes. The verification failure is the
	// GET's: the window counting it starts before the GET.
	resObject := rot("res")
	before = scrapeMetrics(t, ts2.URL)
	if r, _ := fetch(t, http.MethodGet, ts2.URL, id2, ""); r.StatusCode != http.StatusInternalServerError {
		t.Errorf("GET of the sweep whose result object rotted: status %d, want 500", r.StatusCode)
	}
	r2, body2 := served(t, s2, ts2.URL, id2)
	after = scrapeMetrics(t, ts2.URL)
	if r2.StatusCode != http.StatusOK || r2.Header.Get("ETag") != etag1 || etagOf(body2) != etag1 {
		t.Errorf("recomputed result: status %d, ETag %s, body hashes to %s; want 200 and the original %s",
			r2.StatusCode, r2.Header.Get("ETag"), etagOf(body2), etag1)
	}
	for name, want := range map[string]float64{
		"dsmc_store_hits_total":         float64(spec.Replicas), // every job, not the result
		"dsmc_coord_lease_grants_total": 0,
		"dsmc_store_publishes_total":    1, // the result, again
	} {
		if d := after[name] - before[name]; d != want {
			t.Errorf("%s during the GET and the recomputation: %v, want %v", name, d, want)
		}
	}
	if d := after["dsmc_store_verify_failures_total"] - before["dsmc_store_verify_failures_total"]; d < 1 {
		t.Errorf("verify failures during the GET and the recomputation: %v, want >= 1", d)
	}
	// The rejected copy went to quarantine/ under the object's name, the
	// rotted one beside it.
	if q, _ := filepath.Glob(filepath.Join(storeDir, "quarantine", filepath.Base(resObject)+"*")); len(q) != 2 {
		t.Errorf("result objects in quarantine/: %v, want the rejected and the rotted copy", q)
	}
	id3 := submit(t, ts2, spec)
	if st := waitDone(t, ts2, id3); st.State != stateDone {
		t.Fatalf("third sweep state %s (%s)", st.State, st.Error)
	}
	r3, body3 := fetch(t, http.MethodGet, ts2.URL, id3, "")
	if r3.StatusCode != http.StatusOK || r3.Header.Get("ETag") != etag1 || etagOf(body3) != etag1 {
		t.Errorf("resubmitted result: status %d, ETag %s, body hashes to %s; want 200 and the original %s",
			r3.StatusCode, r3.Header.Get("ETag"), etagOf(body3), etag1)
	}
}

// TestResultETagConditional pins the cache semantics of the existing
// result endpoints on their own: strong ETag + immutable Cache-Control
// on 200, If-None-Match revalidation to 304, and stable ETags across
// repeated GETs (the JSON encoding is deterministic).
func TestResultETagConditional(t *testing.T) {
	s, err := newServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	id := submit(t, ts, tinySpec())
	if st := waitDone(t, ts, id); st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}

	for _, path := range []string{
		"/v1/sweeps/" + id + "/result",
		"/v1/sweeps/" + id + "/result?quantity=density",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body1, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || etag == "" {
			t.Fatalf("GET %s: status %d, ETag %q", path, resp.StatusCode, etag)
		}
		if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") || !strings.Contains(cc, "public") {
			t.Errorf("GET %s: Cache-Control %q, want public+immutable", path, cc)
		}

		again, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body2, _ := io.ReadAll(again.Body)
		again.Body.Close()
		if again.Header.Get("ETag") != etag || string(body1) != string(body2) {
			t.Errorf("GET %s: repeated fetch changed ETag or body", path)
		}

		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("If-None-Match", etag)
		cond, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		condBody, _ := io.ReadAll(cond.Body)
		cond.Body.Close()
		if cond.StatusCode != http.StatusNotModified || len(condBody) != 0 {
			t.Errorf("conditional GET %s: status %d, %d-byte body; want bare 304",
				path, cond.StatusCode, len(condBody))
		}
		if cond.Header.Get("ETag") != etag {
			t.Errorf("conditional GET %s: 304 ETag %q != %q", path, cond.Header.Get("ETag"), etag)
		}

		req, _ = http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("If-None-Match", `"different"`)
		miss, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		missBody, _ := io.ReadAll(miss.Body)
		miss.Body.Close()
		if miss.StatusCode != http.StatusOK || len(missBody) == 0 {
			t.Errorf("non-matching If-None-Match on %s: status %d, %d bytes; want full 200",
				path, miss.StatusCode, len(missBody))
		}
	}
}

// objectBytes sums the sizes of the store's object files under dir.
func objectBytes(t *testing.T, dir string) int64 {
	t.Helper()
	objs, err := os.ReadDir(filepath.Join(dir, "store", "objects"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range objs {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestStoreBudgetBoundsResults: the store object is a result's only copy,
// so -store-budget bounds the disk results take. Under a budget of one and
// a half results, three distinct sweeps leave store objects within the
// budget, and no file under the data directory holds an evicted result's
// bytes. An evicted sweep's GET is a 500 that names it and carries no
// validators. A restart under the same budget probes and recomputes
// nothing — every sweep is done from its result.ref — and then each sweep
// serves its original ETag and bytes again, an evicted result recomputed
// when it is read, one at a time, with the store back within the budget
// after each.
func TestStoreBudgetBoundsResults(t *testing.T) {
	specs := make([]dsmc.SweepSpec, 3)
	for i := range specs {
		specs[i] = tinySpec()
		specs[i].Name = fmt.Sprintf("budget-%d", i) // same length, so same size
	}
	res, err := dsmc.RunSweep(context.Background(), specs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	if err := dsmc.WriteSweepResult(&one, res); err != nil {
		t.Fatal(err)
	}
	budget := int64(one.Len()) * 3 / 2
	opts := serverOpts{dataDir: t.TempDir(), workers: 2, storeBudget: budget}
	dir := opts.dataDir

	s, err := newServerWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	ids := make([]string, len(specs))
	etags := make([]string, len(specs))
	bodies := make([][]byte, len(specs))
	for i, spec := range specs {
		ids[i] = submit(t, ts, spec)
		if st := waitDone(t, ts, ids[i]); st.State != stateDone {
			t.Fatalf("%s: state %s (%s)", ids[i], st.State, st.Error)
		}
		resp, body := fetch(t, http.MethodGet, ts.URL, ids[i], "")
		if resp.StatusCode != http.StatusOK || len(body) != one.Len() {
			t.Fatalf("%s just done: GET status %d, %d bytes; want 200 and %d", ids[i], resp.StatusCode, len(body), one.Len())
		}
		etags[i], bodies[i] = resp.Header.Get("ETag"), body
	}
	var evicted []int
	for i := range ids {
		if _, err := os.Stat(resultObject(dir, etags[i])); os.IsNotExist(err) {
			evicted = append(evicted, i)
		}
	}
	n := objectBytes(t, dir)
	t.Logf("budget %d bytes, store objects %d bytes, evicted results of sweeps %v", budget, n, evicted)
	if n > budget {
		t.Errorf("store objects hold %d bytes after three sweeps, budget %d", n, budget)
	}
	if len(evicted) < 2 {
		t.Fatalf("evicted results %v: at most one of three fits the budget", evicted)
	}
	for _, i := range evicted {
		if files := filesHolding(t, dir, etags[i]); len(files) != 0 {
			t.Errorf("%s's result was evicted, but %v still hold its bytes", ids[i], files)
		}
		resp, body := fetch(t, http.MethodGet, ts.URL, ids[i], "")
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), ids[i]) {
			t.Errorf("%s evicted: GET status %d, body %.200q; want a 500 naming it", ids[i], resp.StatusCode, body)
		}
		if resp.Header.Get("ETag") != "" || resp.Header.Get("Cache-Control") != "" {
			t.Errorf("%s evicted: the 500 carries ETag %q, Cache-Control %q", ids[i], resp.Header.Get("ETag"), resp.Header.Get("Cache-Control"))
		}
	}
	recomputed(t, s)
	before := scrapeMetrics(t, ts.URL)
	ts.Close()
	s.close()

	if s, err = newServerWith(opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts = httptest.NewServer(s.handler())
	defer ts.Close()
	after := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"dsmc_store_hits_total", "dsmc_store_misses_total", "dsmc_coord_lease_grants_total", "dsmc_store_publishes_total"} {
		if d := after[name] - before[name]; d != 0 {
			t.Errorf("%s during the restart: %v, want 0", name, d)
		}
	}
	for i, id := range ids {
		if st := waitDone(t, ts, id); st.State != stateDone {
			t.Fatalf("%s after the restart: state %s (%s)", id, st.State, st.Error)
		}
		resp, body := served(t, s, ts.URL, id)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etags[i] || !bytes.Equal(body, bodies[i]) {
			t.Errorf("%s after the restart: status %d, ETag %s (was %s), body equal: %v",
				id, resp.StatusCode, resp.Header.Get("ETag"), etags[i], bytes.Equal(body, bodies[i]))
		}
		if n := objectBytes(t, dir); n > budget {
			t.Errorf("%s served after the restart: store objects hold %d bytes, budget %d", id, n, budget)
		}
	}
}

// TestConcurrentReadsRecompute: readers racing on a result whose object
// is gone all get a 500 or the original bytes, never anything else, and
// the result is recomputed once: one publish, no job dispatched.
func TestConcurrentReadsRecompute(t *testing.T) {
	dir := t.TempDir()
	s, ts, id := doneSweep(t, dir, tinySpec())
	t.Cleanup(s.close)
	defer ts.Close()
	first, want := fetch(t, http.MethodGet, ts.URL, id, "")
	etag := first.Header.Get("ETag")
	if err := os.Remove(resultObject(dir, etag)); err != nil {
		t.Fatal(err)
	}
	before := scrapeMetrics(t, ts.URL)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Error(err)
					return
				case resp.StatusCode == http.StatusOK && resp.Header.Get("ETag") == etag && bytes.Equal(body, want):
					return
				case resp.StatusCode != http.StatusInternalServerError:
					t.Errorf("GET during the recomputation: status %d, ETag %s", resp.StatusCode, resp.Header.Get("ETag"))
					return
				}
			}
			t.Error("the result was not served again within a minute")
		}()
	}
	wg.Wait()
	recomputed(t, s)
	after := scrapeMetrics(t, ts.URL)
	for name, want := range map[string]float64{"dsmc_store_publishes_total": 1, "dsmc_coord_lease_grants_total": 0} {
		if d := after[name] - before[name]; d != want {
			t.Errorf("%s during the concurrent reads: %v, want %v", name, d, want)
		}
	}
}

// TestStoreObject304ReadsNothing: /v1/store/{sha} answers a matching
// If-None-Match with a 304 before it reads or hashes the object, so the
// object's mtime — which every verified read sets — stays as it was; a
// plain GET is a verified read, refreshes it and declares its length.
func TestStoreObject304ReadsNothing(t *testing.T) {
	dir := t.TempDir()
	s, ts, id := doneSweep(t, dir, tinySpec())
	t.Cleanup(s.close)
	defer ts.Close()
	first, want := fetch(t, http.MethodGet, ts.URL, id, "")
	etag := first.Header.Get("ETag")
	path := resultObject(dir, etag)
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	mtime := func() time.Time {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.ModTime()
	}
	url := ts.URL + "/v1/store/" + strings.Trim(etag, `"`)
	for _, inm := range []string{etag, "W/" + etag + `, "other"`, "*"} {
		cond, body := get(t, url, inm)
		if cond.StatusCode != http.StatusNotModified || len(body) != 0 || cond.Header.Get("ETag") != etag {
			t.Errorf("If-None-Match %s: status %d, %d-byte body, ETag %s; want a bare 304 with %s", inm, cond.StatusCode, len(body), cond.Header.Get("ETag"), etag)
		}
		if got := mtime(); !got.Equal(old) {
			t.Errorf("If-None-Match %s: the 304 moved the object's mtime from %v to %v: it read the object", inm, old, got)
		}
	}
	full, body := get(t, url, "")
	if full.StatusCode != http.StatusOK || full.Header.Get("ETag") != etag || !bytes.Equal(body, want) || full.Header.Get("Content-Length") != fmt.Sprint(len(want)) {
		t.Fatalf("plain GET: status %d, ETag %s, Content-Length %s, body equal %v; want 200, %s, %d, true",
			full.StatusCode, full.Header.Get("ETag"), full.Header.Get("Content-Length"), bytes.Equal(body, want), etag, len(want))
	}
	if got := mtime(); !got.After(old) {
		t.Errorf("plain GET left the object's mtime at %v: no verified read", got)
	}
	// An object the store does not hold is a 404 even to a wildcard.
	missing, _ := get(t, ts.URL+"/v1/store/"+strings.Repeat("0", 64), "*")
	if missing.StatusCode != http.StatusNotFound || missing.Header.Get("ETag") != "" {
		t.Errorf("unknown object, If-None-Match *: status %d, ETag %q; want 404 without one", missing.StatusCode, missing.Header.Get("ETag"))
	}
}

// TestRecomputeForgetsItsSweep: every recomputation of a lost result runs
// under a fresh coordinator ID, numbered 1, 2, ... with none skipped — a
// read that finds a rebuild running takes no number — and the
// coordinator drops it once it has finished, as it dropped the submitted
// sweep when that was done, so reads of evicted results leave no sweep
// state behind.
func TestRecomputeForgetsItsSweep(t *testing.T) {
	dir := t.TempDir()
	s, ts, id := doneSweep(t, dir, tinySpec())
	t.Cleanup(s.close)
	defer ts.Close()
	first, want := fetch(t, http.MethodGet, ts.URL, id, "")
	etag := first.Header.Get("ETag")
	const rounds = 3
	for n := 1; n <= rounds; n++ {
		if err := os.Remove(resultObject(dir, etag)); err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			// A read that finds a rebuild running is told to retry.
			s.mu.Lock()
			s.recomputing = true
			s.mu.Unlock()
			if busy, _ := fetch(t, http.MethodGet, ts.URL, id, ""); busy.StatusCode != http.StatusInternalServerError {
				t.Fatalf("a read during a rebuild: status %d, want 500", busy.StatusCode)
			}
			s.mu.Lock()
			s.recomputing = false
			s.mu.Unlock()
		}
		resp, body := served(t, s, ts.URL, id)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag || !bytes.Equal(body, want) {
			t.Fatalf("round %d: status %d, ETag %s, body equal %v; want the result again", n, resp.StatusCode, resp.Header.Get("ETag"), bytes.Equal(body, want))
		}
	}
	// Each round started one rebuild; the reads that found one running
	// took no number.
	s.mu.Lock()
	recomputes := s.recomputes
	s.mu.Unlock()
	if recomputes != rounds {
		t.Fatalf("%d recomputations numbered, want %d: one per rebuild", recomputes, rounds)
	}
	for n := 1; n <= recomputes; n++ {
		if rows, held := s.coord.Jobs(fmt.Sprintf("%s-recompute-%d", id, n)); held {
			t.Errorf("recomputation %d is still held by the coordinator, %d job rows", n, len(rows))
		}
	}
	if rows, held := s.coord.Jobs(id); held {
		t.Errorf("the submitted sweep %s, done, is still held by the coordinator, %d job rows", id, len(rows))
	}
}
