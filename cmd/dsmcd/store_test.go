package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// result itself: the resubmit degrades to the per-job path, every job a
// store hit, and republishes the same bytes.
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
	// The victim is a replica output, found through the index. The sweep's
	// "res" entry is dropped as a GC eviction would drop it (result.json
	// keeps the inode), so the resubmit below takes the per-job path.
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
	if err := os.Remove(resKeys[0]); err != nil {
		t.Fatal(err)
	}

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.close)
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()

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
	// object. result.json of the sweep that linked it is the same inode, so
	// its verified GET turns into a 500 — never a wrong 200 — while a third
	// submit sees the verification failure, re-assembles from job hits
	// alone and republishes the original bytes.
	resObject := rot("res")
	if r, _ := fetch(t, http.MethodGet, ts2.URL, id2, ""); r.StatusCode != http.StatusInternalServerError {
		t.Errorf("GET of the sweep linked to the rotted object: status %d, want 500", r.StatusCode)
	}
	before = scrapeMetrics(t, ts2.URL)
	id3 := submit(t, ts2, spec)
	if st := waitDone(t, ts2, id3); st.State != stateDone {
		t.Fatalf("third sweep state %s (%s)", st.State, st.Error)
	}
	after = scrapeMetrics(t, ts2.URL)
	for name, want := range map[string]float64{
		"dsmc_store_hits_total":         float64(spec.Replicas), // every job, not the result
		"dsmc_coord_lease_grants_total": 0,
		"dsmc_store_publishes_total":    1, // the result, again
	} {
		if d := after[name] - before[name]; d != want {
			t.Errorf("%s during the third sweep: %v, want %v", name, d, want)
		}
	}
	if d := after["dsmc_store_verify_failures_total"] - before["dsmc_store_verify_failures_total"]; d < 1 {
		t.Errorf("verify failures during the third sweep: %v, want >= 1", d)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "quarantine", filepath.Base(resObject))); err != nil {
		t.Errorf("rotted result object not in quarantine/: %v", err)
	}
	r3, body3 := fetch(t, http.MethodGet, ts2.URL, id3, "")
	if r3.StatusCode != http.StatusOK || r3.Header.Get("ETag") != etag1 || etagOf(body3) != etag1 {
		t.Errorf("republished result: status %d, ETag %s, body hashes to %s; want 200 and the original %s",
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
