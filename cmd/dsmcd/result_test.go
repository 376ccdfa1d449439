package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dsmc"
	"dsmc/internal/obs"
)

// raceEnabled reports a build under the race detector (race_test.go).
var raceEnabled bool

// fetch issues one request for a sweep's /result and reads the whole
// response; ifNoneMatch, when set, makes it conditional.
func fetch(t testing.TB, method, base, id, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+"/v1/sweeps/"+id+"/result", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
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

// served fetches a sweep's result until it is no longer a 500 — a lost
// result being recomputed, or waiting its turn — and then waits for the
// recomputation to settle, so the store has been collected.
func served(t testing.TB, s *server, base, id string) (*http.Response, []byte) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, body := fetch(t, http.MethodGet, base, id, "")
		if resp.StatusCode != http.StatusInternalServerError || time.Now().After(deadline) {
			recomputed(t, s)
			return resp, body
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recomputed waits until no lost result is being recomputed.
func recomputed(t testing.TB, s *server) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		s.mu.Lock()
		busy := s.recomputing
		s.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("a result is still being recomputed after a minute")
		}
	}
}

// doneSweep starts a server over dir, runs spec to completion and
// returns the server, its test listener and the sweep's ID.
func doneSweep(t testing.TB, dir string, spec dsmc.SweepSpec) (*server, *httptest.Server, string) {
	t.Helper()
	s, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	id := submit(t, ts, spec)
	if st := waitDone(t, ts, id); st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}
	return s, ts, id
}

// TestResultHeadAndLength: a 200 for /result declares its length instead
// of going out chunked, and HEAD — which the GET route also serves — is
// answered from the retained ETag and size: same headers, no body, and no
// read of the store object (it still answers with the object gone).
func TestResultHeadAndLength(t *testing.T) {
	dir := t.TempDir()
	s, ts, id := doneSweep(t, dir, tinySpec())
	t.Cleanup(s.close)
	defer ts.Close()

	get, body := fetch(t, http.MethodGet, ts.URL, id, "")
	etag := get.Header.Get("ETag")
	if get.StatusCode != http.StatusOK || len(body) == 0 || etag == "" {
		t.Fatalf("GET: status %d, %d bytes, ETag %q", get.StatusCode, len(body), etag)
	}
	if get.ContentLength != int64(len(body)) || len(get.TransferEncoding) != 0 {
		t.Errorf("GET: Content-Length %d, Transfer-Encoding %v; want the body's %d bytes declared",
			get.ContentLength, get.TransferEncoding, len(body))
	}
	if etag != etagOf(body) {
		t.Errorf("GET: ETag %s is not the body's SHA-256 %s", etag, etagOf(body))
	}

	if err := os.Remove(resultObject(dir, etag)); err != nil {
		t.Fatal(err)
	}
	head, headBody := fetch(t, http.MethodHead, ts.URL, id, "")
	if head.StatusCode != http.StatusOK || len(headBody) != 0 {
		t.Fatalf("HEAD: status %d, %d-byte body; want a bare 200", head.StatusCode, len(headBody))
	}
	if got := head.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("HEAD: Content-Length %q, want %d", got, len(body))
	}
	for _, k := range []string{"ETag", "Cache-Control", "Content-Type"} {
		if head.Header.Get(k) != get.Header.Get(k) {
			t.Errorf("HEAD: %s %q, GET had %q", k, head.Header.Get(k), get.Header.Get(k))
		}
	}
	if cond, _ := fetch(t, http.MethodHead, ts.URL, id, etag); cond.StatusCode != http.StatusNotModified {
		t.Errorf("conditional HEAD: status %d, want 304", cond.StatusCode)
	}
}

// etagOf is the strong validator dsmcd serves for body: its SHA-256 in
// hex, quoted.
func etagOf(body []byte) string {
	return fmt.Sprintf("\"%x\"", sha256.Sum256(body))
}

// resultObject is the store object a result with this ETag is.
func resultObject(dir, etag string) string {
	return filepath.Join(dir, "store", "objects", strings.Trim(etag, `"`))
}

// filesHolding lists every regular file under root whose SHA-256 is the
// one etag quotes.
func filesHolding(t testing.TB, root, etag string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		data, err := os.ReadFile(path)
		if err == nil && etagOf(data) == etag {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestResultIntegrity: a result's store object — the only file that holds
// its bytes — is verified against the sweep's ETag on every read. With one
// byte flipped, the tail cut off, or the object gone, a GET is a 500 that
// names the sweep and carries no validator — never a 200 — while a
// conditional GET with the original ETag is still a bare 304 (it reads
// nothing). The failed read quarantines the object and starts recomputing
// the result, which the sweep then serves again. A restart over a
// truncated, missing or changed-digit object (one that still parses)
// reads nothing: the sweep is done from its result.ref, and its first GET
// finds the damage, then a recomputation that dispatches no job — every
// job a store hit — brings back the bytes and ETag served before.
func TestResultIntegrity(t *testing.T) {
	dir := t.TempDir()
	s, ts, id := doneSweep(t, dir, tinySpec())

	first, want := fetch(t, http.MethodGet, ts.URL, id, "")
	etag := first.Header.Get("ETag")
	if first.StatusCode != http.StatusOK || etag != etagOf(want) {
		t.Fatalf("GET before any damage: status %d, ETag %s, body hashes to %s", first.StatusCode, etag, etagOf(want))
	}
	object := resultObject(dir, etag)
	if files := filesHolding(t, dir, etag); !slices.Equal(files, []string{object}) {
		t.Fatalf("files holding the result: %v, want only its store object %s", files, object)
	}
	keys, err := filepath.Glob(filepath.Join(dir, "store", "index", "res-*"))
	if err != nil || len(keys) != 1 {
		t.Fatalf("res-* keys after one sweep: %v (err %v), want one", keys, err)
	}

	flipped := bytes.Clone(want)
	flipped[len(flipped)/2] ^= 0x01
	damage := []struct {
		name  string
		apply func() error
	}{
		{"flipped byte", func() error { return os.WriteFile(object, flipped, 0o644) }},
		{"truncated", func() error { return os.Truncate(object, int64(len(want)/2)) }},
		{"deleted", func() error { return os.Remove(object) }},
	}
	checkDamaged := func(name, base string) {
		t.Helper()
		resp, body := fetch(t, http.MethodGet, base, id, "")
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), id) {
			t.Errorf("%s: GET status %d, body %.200q; want a 500 naming %s", name, resp.StatusCode, body, id)
		}
		if resp.Header.Get("ETag") != "" || resp.Header.Get("Cache-Control") != "" {
			t.Errorf("%s: the 500 carries ETag %q, Cache-Control %q", name, resp.Header.Get("ETag"), resp.Header.Get("Cache-Control"))
		}
		cond, condBody := fetch(t, http.MethodGet, base, id, etag)
		if cond.StatusCode != http.StatusNotModified || len(condBody) != 0 || cond.Header.Get("ETag") != etag {
			t.Errorf("%s: conditional GET status %d, %d-byte body, ETag %q; want a bare 304 with %s",
				name, cond.StatusCode, len(condBody), cond.Header.Get("ETag"), etag)
		}
	}
	for _, d := range damage {
		if err := d.apply(); err != nil {
			t.Fatal(err)
		}
		checkDamaged(d.name, ts.URL)
		if resp, body := served(t, s, ts.URL, id); resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s: GET after the recomputation: status %d", d.name, resp.StatusCode)
		}
	}

	// Restarts. A truncated object and one with a changed digit fail the
	// first GET's verification (quarantined, one failure each); a deleted
	// one leaves a dangling index entry, which the store drops at Open.
	digit := bytes.Clone(want)
	i := len(digit)/2 + bytes.IndexAny(digit[len(digit)/2:], "0123456789")
	digit[i] = '1' + (digit[i]-'0')%9 // another digit, never a leading zero
	if !json.Valid(digit) {
		t.Fatal("the changed digit broke the JSON")
	}
	jobs := float64(tinySpec().Replicas)
	for _, d := range []struct {
		name     string
		apply    func() error
		failures float64 // verification failures of the restart and the GETs
	}{
		{"truncated", damage[1].apply, 1},
		{"deleted", damage[2].apply, 0},
		{"changed digit", func() error { return os.WriteFile(object, digit, 0o644) }, 1},
	} {
		before := scrapeMetrics(t, ts.URL)
		ts.Close()
		s.close()
		if err := d.apply(); err != nil {
			t.Fatal(err)
		}
		if s, err = newServer(dir, 2); err != nil {
			t.Fatal(err)
		}
		ts = httptest.NewServer(s.handler())
		if st := waitDone(t, ts, id); st.State != stateDone || !st.Resumed {
			t.Fatalf("restart over a %s result: state %s (%s), resumed=%v", d.name, st.State, st.Error, st.Resumed)
		}
		if g := scrapeMetrics(t, ts.URL)["dsmc_store_misses_total"] - before["dsmc_store_misses_total"]; g != 0 {
			t.Errorf("restart over a %s result: %v store misses, want 0 (nothing probed)", d.name, g)
		}
		checkDamaged(d.name+" after a restart", ts.URL)
		resp, body := served(t, s, ts.URL, id)
		after := scrapeMetrics(t, ts.URL)
		if g := after["dsmc_coord_lease_grants_total"] - before["dsmc_coord_lease_grants_total"]; g != 0 {
			t.Errorf("restart over a %s result: %v leases granted, want 0 (every job a store hit)", d.name, g)
		}
		// Counters are process-global and survive the restart.
		if g := after["dsmc_store_hits_total"] - before["dsmc_store_hits_total"]; g != jobs {
			t.Errorf("restart over a %s result: %v store hits, want %v (the jobs)", d.name, g, jobs)
		}
		if g := after["dsmc_store_verify_failures_total"] - before["dsmc_store_verify_failures_total"]; g != d.failures {
			t.Errorf("restart over a %s result: %v verification failures, want %v", d.name, g, d.failures)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag || !bytes.Equal(body, want) {
			t.Errorf("restart over a %s result: status %d, ETag %s (was %s), body equal: %v",
				d.name, resp.StatusCode, resp.Header.Get("ETag"), etag, bytes.Equal(body, want))
		}
	}
	ts.Close()
	s.close()
}

// sink is a ResponseWriter that keeps the status and headers and counts
// the body — and, with sum set, hashes it — so a measurement sees the
// handler's allocations and not a recorder's copy of the body.
type sink struct {
	header http.Header
	code   int
	n      int
	sum    hash.Hash
}

func (k *sink) Header() http.Header { return k.header }

func (k *sink) WriteHeader(code int) {
	if k.code == 0 {
		k.code = code
	}
}

func (k *sink) Write(p []byte) (int, error) {
	k.WriteHeader(http.StatusOK)
	k.n += len(p)
	if k.sum != nil {
		k.sum.Write(p)
	}
	return len(p), nil
}

// resultRequests returns a plain and a matching conditional GET for the
// sweep's result, for driving the handler without a network.
func resultRequests(t testing.TB, h http.Handler, id string) (get, cond *http.Request, size int) {
	t.Helper()
	get = httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+id+"/result", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, get)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("GET result of %s: status %d, %d bytes", id, rec.Code, rec.Body.Len())
	}
	cond = httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+id+"/result", nil)
	cond.Header.Set("If-None-Match", rec.Header().Get("ETag"))
	return get, cond, rec.Body.Len()
}

// fourPoints is tinySpec widened to four points: a result four times the
// size, so a cost that scales with the result shows against tinySpec.
func fourPoints() dsmc.SweepSpec {
	spec := tinySpec()
	spec.Name = "four-points"
	spec.Points = []dsmc.SweepPoint{
		{Name: "p0"},
		{Name: "p1", MeanFreePath: f64p(0.5)},
		{Name: "p2", MeanFreePath: f64p(0.75)},
		{Name: "p3", WedgeAngleDeg: f64p(25)},
	}
	return spec
}

// TestResultCostModel pins what serving a finished result costs. A 304
// is a lookup and a string comparison: a handful of allocations, the same
// for a one-point and a four-point sweep. A 200 is one read of the
// store object: the handler allocates less than twice the body, where
// encoding the result per request took several times that.
func TestResultCostModel(t *testing.T) {
	s, ts, small := doneSweep(t, t.TempDir(), tinySpec())
	large := submit(t, ts, fourPoints())
	if st := waitDone(t, ts, large); st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}
	// No listener and no workers from here on: the only allocations in the
	// process are the handler's.
	ts.Close()
	s.close()
	h := s.handler()

	var allocs [2]float64
	var sizes [2]int
	for i, id := range []string{small, large} {
		get, cond, size := resultRequests(t, h, id)
		sizes[i] = size
		allocs[i] = testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, cond)
			if rec.Code != http.StatusNotModified {
				t.Fatalf("conditional GET of %s: status %d", id, rec.Code)
			}
		})

		var m0, m1 runtime.MemStats
		k := &sink{header: http.Header{}}
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(k, get)
		runtime.ReadMemStats(&m1)
		if k.code != http.StatusOK || k.n != size {
			t.Fatalf("GET of %s: status %d, %d bytes, want %d", id, k.code, k.n, size)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 2*uint64(size) {
			t.Errorf("GET of %s allocated %d bytes for a %d-byte body, want < 2x", id, got, size)
		}
	}
	t.Logf("304 allocations %v, result bytes %v", allocs, sizes)
	if sizes[1] < 3*sizes[0] {
		t.Fatalf("result sizes %v: the four-point result is not the larger one this test needs", sizes)
	}
	// The race detector makes sync.Pool drop items at random, so a count
	// may wobble by one or two between measurements; growth with the result
	// would be hundreds.
	if d := allocs[1] - allocs[0]; d > 2 || d < -2 || allocs[1] > 40 {
		t.Errorf("304 allocations: %v for %d bytes, %v for %d bytes; want a small constant", allocs[0], sizes[0], allocs[1], sizes[1])
	}
}

// paperSizeSpec is a sweep with a paper-size result — the paper wedge's
// 98×64 cells, three points, three sampled quantities: over 3 MB encoded
// — at one particle per cell and two steps a phase, so it computes in a
// fraction of a second.
func paperSizeSpec() dsmc.SweepSpec {
	sc := dsmc.PaperWedgeTunnel()
	sc.ParticlesPerCell = 1
	sc.Seed = 11
	ss, err := dsmc.NewScenarioSpec(sc)
	if err != nil {
		panic(err)
	}
	return dsmc.SweepSpec{
		Name:        "paper-size",
		Scenario:    ss,
		Quantities:  []dsmc.Quantity{dsmc.Density, dsmc.Temperature, dsmc.MachNumber},
		Points:      []dsmc.SweepPoint{{Name: "rarefied"}, {Name: "thinner", MeanFreePath: f64p(0.75)}, {Name: "narrower", WedgeAngleDeg: f64p(25)}},
		Replicas:    2,
		WarmSteps:   2,
		SampleSteps: 2,
	}
}

// storeHits reads dsmc_store_hits_total from the handler's /metrics.
func storeHits(t testing.TB, h http.Handler) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := obs.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples["dsmc_store_hits_total"]
}

// TestWarmReadAllocs: once a first request has sized the pooled read
// buffer, a GET of a paper-size result (over 3 MB) and a GET of one of its
// views typically allocate at most 256 KiB — a fixed cost, no copy of the
// object — every body hashes to its ETag, and each view GET is one store
// hit.
func TestWarmReadAllocs(t *testing.T) {
	s, ts, id := doneSweep(t, t.TempDir(), paperSizeSpec())
	// No listener and no workers from here on: the only allocations in the
	// process are the handler's.
	ts.Close()
	s.close()
	h := s.handler()

	const runs, bound = 8, 256 << 10
	for _, tc := range []struct {
		path string
		hits float64 // store hits per request
	}{
		{"/v1/sweeps/" + id + "/result", 0},
		{"/v1/sweeps/" + id + "/result?quantity=temperature", 1},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		serve := func() (*sink, uint64) {
			k := &sink{header: http.Header{}, sum: sha256.New()}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			h.ServeHTTP(k, req)
			runtime.ReadMemStats(&m1)
			if k.code != http.StatusOK || k.header.Get("ETag") != fmt.Sprintf(`"%x"`, k.sum.Sum(nil)) {
				t.Fatalf("GET %s: status %d, ETag %s, body hashes to %x", tc.path, k.code, k.header.Get("ETag"), k.sum.Sum(nil))
			}
			return k, m1.TotalAlloc - m0.TotalAlloc
		}
		first, _ := serve() // sizes the buffer; the first view request also publishes the views
		if tc.hits == 0 && first.n < 3<<20 {
			t.Fatalf("the result is %d bytes, not the 3 MB or more this test needs", first.n)
		}
		hits := storeHits(t, h)
		allocs := make([]uint64, runs)
		for i := range allocs {
			k, d := serve()
			if k.n != first.n {
				t.Fatalf("GET %s: %d bytes, the first was %d", tc.path, k.n, first.n)
			}
			allocs[i] = d
		}
		// A request that runs on another P than the one that put the buffer
		// back can miss the pool and allocate one, and under -race the pool
		// drops a quarter of what it is given. The typical request — the
		// median, under -race the fewest — allocates no buffer.
		slices.Sort(allocs)
		typical := allocs[len(allocs)/2]
		if raceEnabled {
			typical = allocs[0]
		}
		if typical > bound {
			t.Errorf("GET %s of %d bytes: typical allocation %d bytes (all %v), want <= 256 KiB", tc.path, first.n, typical, allocs)
		}
		if d := storeHits(t, h) - hits; d != tc.hits*runs {
			t.Errorf("GET %s: %v store hits over %d requests, want %v", tc.path, d, runs, tc.hits*runs)
		}
		t.Logf("GET %s: %d bytes, allocated %v", tc.path, first.n, allocs)
	}
}

// benchResult times one request per iteration against a finished
// four-point sweep, handler only (no listener, no workers).
func benchResult(b *testing.B, conditional bool) {
	s, ts, id := doneSweep(b, b.TempDir(), fourPoints())
	ts.Close()
	s.close()
	h := s.handler()
	req, cond, size := resultRequests(b, h, id)
	want := http.StatusOK
	if conditional {
		req, want = cond, http.StatusNotModified
	} else {
		b.SetBytes(int64(size))
	}
	b.ReportAllocs()
	for b.Loop() {
		k := &sink{header: http.Header{}}
		h.ServeHTTP(k, req)
		if k.code != want {
			b.Fatalf("status %d, want %d", k.code, want)
		}
	}
}

// BenchmarkResultGet: GET /result to the last byte — one verified read of
// the store object (B/op is about the body's size, MB/s the read+hash rate).
func BenchmarkResultGet(b *testing.B) { benchResult(b, false) }

// BenchmarkResult304: the same request revalidated with its ETag — no
// I/O, no encoding, independent of the result's size.
func BenchmarkResult304(b *testing.B) { benchResult(b, true) }
