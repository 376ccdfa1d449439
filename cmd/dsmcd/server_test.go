package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dsmc"
)

// quantityView is the JSON shape of GET /v1/sweeps/{id}/result?quantity=q
// that dsmc.WriteQuantityView writes: the tests decode views into it, and
// encode it with encoding/json as the views' oracle.
type quantityView struct {
	Quantity string              `json:"quantity"`
	Points   []quantityPointView `json:"points"`
}

type quantityPointView struct {
	Name  string          `json:"name"`
	Kind  string          `json:"kind,omitempty"`
	Field dsmc.FieldStats `json:"field"`
}

// newServer is a server over dataDir with pool embedded workers and
// every other option at its default.
func newServer(dataDir string, pool int) (*server, error) {
	return newServerWith(serverOpts{dataDir: dataDir, workers: pool})
}

func tinyWedge() dsmc.WedgeTunnel2D {
	cfg := dsmc.PaperWedgeTunnel()
	cfg.GridNX, cfg.GridNY = 48, 24
	cfg.Wedge = dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30}
	cfg.ParticlesPerCell = 3
	cfg.Seed = 7
	return cfg
}

func tinySpec() dsmc.SweepSpec { return tinySpecOver(tinyWedge()) }

func tinySpecOver(base dsmc.WedgeTunnel2D) dsmc.SweepSpec {
	ss, err := dsmc.NewScenarioSpec(base)
	if err != nil {
		panic(err)
	}
	return dsmc.SweepSpec{
		Name:     "smoke",
		Scenario: ss,
		Points: []dsmc.SweepPoint{
			{Name: "rarefied"},
		},
		Replicas:    2,
		WarmSteps:   4,
		SampleSteps: 4,
	}
}

// legacySpecJSON is tinySpec as builds before the scenario-only API
// wrote it, with the base as a flat "base" object: the wire and spec.json
// format that was removed together with the shim.
func legacySpecJSON(ckptDir string) []byte {
	return []byte(fmt.Sprintf(`{"name":"smoke","base":{"GridNX":48,"GridNY":24,`+
		`"Wedge":{"LeadX":10,"Base":12,"AngleDeg":30},"Mach":4,"ThermalSpeed":0.125,`+
		`"MeanFreePath":0.5,"ParticlesPerCell":3,"Model":"maxwell","Backend":0,`+
		`"PhysProcs":0,"Precision":"","Workers":0,"Seed":7},"points":[{"name":"rarefied"}],`+
		`"replicas":2,"warm_steps":4,"sample_steps":4,"pool":2,"checkpoint_dir":%q}`, ckptDir))
}

func submit(t testing.TB, ts *httptest.Server, spec dsmc.SweepSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	id := out["id"]
	base := "/v1/sweeps/" + id
	if id == "" || !maps.Equal(out, map[string]string{"id": id, "status": base, "events": base + "/events", "result": base + "/result"}) {
		t.Fatalf("submit replied %v, want an id and its status, events and result links", out)
	}
	return id
}

func waitDone(t testing.TB, ts *httptest.Server, id string) statusView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st statusView
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == stateDone || st.State == stateFailed {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return statusView{}
}

// TestServerLifecycle: submit → status → events → result, end to end.
func TestServerLifecycle(t *testing.T) {
	s, err := newServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	id := submit(t, ts, tinySpec())
	st := waitDone(t, ts, id)
	if st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}
	if len(st.Jobs) != 3 { // 2 replicas + 1 aggregate
		t.Errorf("status lists %d jobs, want 3", len(st.Jobs))
	}
	if base := "/v1/sweeps/" + id; !maps.Equal(st.Links, map[string]string{"events": base + "/events", "result": base + "/result"}) {
		t.Errorf("status links %v, want events and result only", st.Links)
	}
	if resp, _ := get(t, ts.URL+"/v1/sweeps/"+id+"/trace", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /trace: %s, want 404", resp.Status)
	}

	// Events: finished sweep streams its full history and closes.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var lines, progress int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e dsmc.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
		if e.Type == "job-progress" {
			progress++
		}
	}
	if lines == 0 || progress == 0 {
		t.Errorf("event stream had %d lines, %d progress events", lines, progress)
	}

	// Result: aggregated stats for the one point.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res dsmc.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Replicas != 2 {
		t.Fatalf("result %+v, want 1 point of 2 replicas", res)
	}
	if res.Points[0].NFlow.Mean <= 0 {
		t.Error("aggregated flow count not positive")
	}
}

// TestServerValidation: malformed and invalid submissions 400 with a
// diagnostic; unknown sweeps 404; premature result fetch 409.
func TestServerValidation(t *testing.T) {
	s, err := newServer(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	var reply string // body of the latest post
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		reply = string(buf)
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", code)
	}
	if code := post(`{"unknown_field": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	bad := tinyWedge()
	bad.Precision = "float16"
	raw, _ := json.Marshal(tinySpecOver(bad))
	if code := post(string(raw)); code != http.StatusBadRequest {
		t.Errorf("invalid precision: status %d", code)
	}
	noReplicas := tinySpec()
	noReplicas.Replicas = 0
	raw, _ = json.Marshal(noReplicas)
	if code := post(string(raw)); code != http.StatusBadRequest {
		t.Errorf("zero replicas: status %d", code)
	}
	withDir := tinySpec()
	withDir.CheckpointDir = "/tmp/evil"
	raw, _ = json.Marshal(withDir)
	if code := post(string(raw)); code != http.StatusBadRequest {
		t.Errorf("client checkpoint dir: status %d", code)
	}
	withStore := tinySpec()
	withStore.ResultStoreDir = "/tmp/evil-store"
	raw, _ = json.Marshal(withStore)
	if code := post(string(raw)); code != http.StatusBadRequest {
		t.Errorf("client result store dir: status %d", code)
	}

	// The deleted SortTile/SpatialRegions knobs are unknown fields like any
	// other, rejected by name in the scenario params; so is the whole
	// "base" object of the removed flat format.
	for _, c := range []struct {
		body  []byte
		field string
	}{
		{specWithField(t, tinySpec(), []string{"scenario", "params"}, "SortTile", 64), "SortTile"},
		{specWithField(t, tinySpec(), []string{"scenario", "params"}, "SpatialRegions", true), "SpatialRegions"},
		{legacySpecJSON(""), `unknown field \"base\"`}, // as quoted inside the JSON reply
	} {
		if code := post(string(c.body)); code != http.StatusBadRequest || !strings.Contains(reply, c.field) {
			t.Errorf("%s: status %d, reply %q; want 400 naming the field", c.field, code, reply)
		}
	}
	// Nothing above was queued or left a trace in the data directory.
	s.mu.Lock()
	queued := len(s.sweeps)
	s.mu.Unlock()
	if dirs, _ := filepath.Glob(filepath.Join(s.dataDir, "sw-*")); queued != 0 || len(dirs) != 0 {
		t.Errorf("rejected submissions left %d sweeps registered and %v on disk", queued, dirs)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/sw-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: status %d", resp.StatusCode)
	}
}

// TestServerScenarioSweep: a spec with a first-class 3D scenario base,
// multi-quantity sampling and per-point grid-shape overrides runs end to
// end; the result carries per-point field shapes, and the quantity
// endpoint serves any sampled quantity (404 for unsampled ones).
func TestServerScenarioSweep(t *testing.T) {
	s, err := newServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ss, err := dsmc.NewScenarioSpec(dsmc.ShockTube3D{
		GridNX: 24, GridNY: 4, GridNZ: 4,
		ThermalSpeed: 0.125, PistonSpeed: 0.131,
		ParticlesPerCell: 3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, ts, dsmc.SweepSpec{
		Name:       "tube",
		Scenario:   ss,
		Quantities: []dsmc.Quantity{dsmc.Density, dsmc.Temperature},
		Points: []dsmc.SweepPoint{
			{Name: "short"},
			{Name: "long", GridNX: iptr(32)},
		},
		Replicas:    1,
		WarmSteps:   3,
		SampleSteps: 3,
	})
	if st := waitDone(t, ts, id); st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res dsmc.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	wantNX := []int{24, 32}
	for p := range res.Points {
		fs, ok := res.Points[p].Fields[dsmc.Temperature]
		if !ok {
			t.Fatalf("point %d missing temperature aggregate", p)
		}
		if fs.NX != wantNX[p] || fs.NZ != 4 || len(fs.Mean) != wantNX[p]*16 {
			t.Errorf("point %d temperature shape %dx%dx%d (%d cells), want NX %d",
				p, fs.NX, fs.NY, fs.NZ, len(fs.Mean), wantNX[p])
		}
	}

	// The quantity endpoint serves any sampled quantity per point...
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/result?quantity=temperature")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantity endpoint status %d", resp.StatusCode)
	}
	var qv quantityView
	if err := json.NewDecoder(resp.Body).Decode(&qv); err != nil {
		t.Fatal(err)
	}
	if qv.Quantity != "temperature" || len(qv.Points) != 2 {
		t.Fatalf("quantity view %+v", qv)
	}
	if qv.Points[1].Field.NX != 32 || len(qv.Points[1].Field.Mean) != 32*16 {
		t.Errorf("quantity view shape %d (%d cells)", qv.Points[1].Field.NX, len(qv.Points[1].Field.Mean))
	}

	// ...and 404s for quantities the sweep never sampled.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/result?quantity=mach")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unsampled quantity: status %d, want 404", resp.StatusCode)
	}
}

func iptr(v int) *int { return &v }

// TestServerRecovery: a new server over an existing data directory
// serves finished sweeps and their results without re-running them — the
// same bytes under the same ETag as before the restart, because both
// processes serve the result's store object and tag it with its hash —
// reports the same submission time, and replays the same event history,
// read from the sweep's log.
func TestServerRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.handler())
	id := submit(t, ts1, tinySpec())
	st := waitDone(t, ts1, id)
	if st.State != stateDone {
		t.Fatalf("first run state %s", st.State)
	}
	pre, preBody := fetch(t, http.MethodGet, ts1.URL, id, "")
	_, preEvents := get(t, ts1.URL+"/v1/sweeps/"+id+"/events", "")
	ts1.Close()
	if pre.StatusCode != http.StatusOK || pre.Header.Get("ETag") == "" {
		t.Fatalf("first run result: status %d, ETag %q", pre.StatusCode, pre.Header.Get("ETag"))
	}

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	st2 := waitDone(t, ts2, id)
	if st2.State != stateDone || !st2.Resumed {
		t.Fatalf("recovered sweep state %s resumed=%v", st2.State, st2.Resumed)
	}
	if !st2.Submitted.Equal(st.Submitted) {
		t.Errorf("recovered sweep submitted at %v, was %v", st2.Submitted, st.Submitted)
	}
	post, postBody := fetch(t, http.MethodGet, ts2.URL, id, "")
	if post.StatusCode != http.StatusOK || post.Header.Get("ETag") != pre.Header.Get("ETag") || !bytes.Equal(postBody, preBody) {
		t.Fatalf("recovered result: status %d, ETag %s (was %s), body equal: %v",
			post.StatusCode, post.Header.Get("ETag"), pre.Header.Get("ETag"), bytes.Equal(postBody, preBody))
	}
	var res dsmc.SweepResult
	if err := json.Unmarshal(postBody, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("recovered result has %d points", len(res.Points))
	}
	if cond, _ := fetch(t, http.MethodGet, ts2.URL, id, pre.Header.Get("ETag")); cond.StatusCode != http.StatusNotModified {
		t.Errorf("pre-restart ETag against the recovered server: status %d, want 304", cond.StatusCode)
	}
	if _, postEvents := get(t, ts2.URL+"/v1/sweeps/"+id+"/events", ""); len(preEvents) == 0 || !bytes.Equal(postEvents, preEvents) {
		t.Errorf("recovered /events: %d bytes, want the %d bytes served before the restart", len(postEvents), len(preEvents))
	}
}

// TestListSweeps: GET /v1/sweeps lists every sweep the server knows,
// sorted by ID, with its status and links and without job rows.
func TestListSweeps(t *testing.T) {
	s, err := newServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	list := func() []statusView {
		t.Helper()
		resp, body := get(t, ts.URL+"/v1/sweeps", "")
		var v struct {
			Sweeps []statusView `json:"sweeps"`
		}
		if err := json.Unmarshal(body, &v); err != nil || resp.StatusCode != http.StatusOK || v.Sweeps == nil {
			t.Fatalf("GET /v1/sweeps: status %d, %v: %s", resp.StatusCode, err, body)
		}
		return v.Sweeps
	}
	if got := list(); len(got) != 0 {
		t.Fatalf("a new server lists %d sweeps", len(got))
	}
	spec := tinySpec()
	ids := []string{submit(t, ts, spec)}
	spec.Replicas = 3
	ids = append(ids, submit(t, ts, spec))
	for _, id := range ids {
		waitDone(t, ts, id)
	}
	got := list()
	if len(got) != 2 {
		t.Fatalf("listed %d sweeps, want 2", len(got))
	}
	for i, v := range got {
		if v.ID != ids[i] || v.State != stateDone || v.Name != "smoke" || v.Replicas != 2+i || v.Points != 1 ||
			v.Jobs != nil || v.Links["result"] != "/v1/sweeps/"+ids[i]+"/result" {
			t.Errorf("listed sweep %d: %+v, want %s done with %d replicas and no job rows", i, v, ids[i], 2+i)
		}
	}
}

// TestDoneSweepRows: a done sweep's job rows in GET /v1/sweeps/{id} are
// the same bytes whether it ran in this process, was a memo hit, or was
// recovered done after a restart — every replica and aggregate done, in
// job order, with no steps and no error — since the coordinator holds
// none of them.
func TestDoneSweepRows(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	mfp := 0.75
	spec.Points = append(spec.Points, dsmc.SweepPoint{Name: "dense", MeanFreePath: &mfp})
	rows := func(ts *httptest.Server, id string) string {
		t.Helper()
		if st := waitDone(t, ts, id); st.State != stateDone {
			t.Fatalf("%s: state %s (%s)", id, st.State, st.Error)
		}
		_, body := get(t, ts.URL+"/v1/sweeps/"+id, "")
		var v struct{ Jobs json.RawMessage }
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return string(v.Jobs)
	}
	s1, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.handler())
	ran := submit(t, ts1, spec)
	inProcess := rows(ts1, ran)
	memoHit := rows(ts1, submit(t, ts1, spec))
	ts1.Close()
	s1.close()

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.close)
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	recovered := rows(ts2, ran)

	const want = `[{"job":"dense/aggregate","state":"done"},{"job":"dense/r000","state":"done"},{"job":"dense/r001","state":"done"},` +
		`{"job":"rarefied/aggregate","state":"done"},{"job":"rarefied/r000","state":"done"},{"job":"rarefied/r001","state":"done"}]`
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(inProcess)); err != nil || compact.String() != want {
		t.Errorf("rows of the sweep run in this process: %s, want %s", inProcess, want)
	}
	for origin, got := range map[string]string{"a memo hit": memoHit, "recovered done": recovered} {
		if got != inProcess {
			t.Errorf("rows of %s: %s, want the bytes of the sweep run in this process: %s", origin, got, inProcess)
		}
	}
}

// TestResultRefTorn: result.ref is written unsynced, so a crash can lose
// or tear it. A restart reads a torn ref as none and resumes the sweep,
// whose one probe finds the result in the store: the same ETag and bytes,
// no job dispatched, and the whole ref written again.
func TestResultRefTorn(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, id := doneSweep(t, dir, tinySpec())
	pre, preBody := fetch(t, http.MethodGet, ts1.URL, id, "")
	before := scrapeMetrics(t, ts1.URL)
	ts1.Close()
	s1.close()
	ref := filepath.Join(dir, id, "result.ref")
	whole, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ref, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.close)
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	if st := waitDone(t, ts2, id); st.State != stateDone {
		t.Fatalf("sweep with a torn result.ref after the restart: state %s (%s)", st.State, st.Error)
	}
	after := scrapeMetrics(t, ts2.URL)
	for name, want := range map[string]float64{"dsmc_store_hits_total": 1, "dsmc_coord_lease_grants_total": 0} {
		if d := after[name] - before[name]; d != want {
			t.Errorf("%s during the restart: %v, want %v", name, d, want)
		}
	}
	post, postBody := fetch(t, http.MethodGet, ts2.URL, id, "")
	if post.StatusCode != http.StatusOK || post.Header.Get("ETag") != pre.Header.Get("ETag") || !bytes.Equal(postBody, preBody) {
		t.Errorf("after the restart: status %d, ETag %s (was %s), body equal: %v",
			post.StatusCode, post.Header.Get("ETag"), pre.Header.Get("ETag"), bytes.Equal(postBody, preBody))
	}
	if got, err := os.ReadFile(ref); err != nil || !bytes.Equal(got, whole) {
		t.Errorf("result.ref after the restart: %q (%v), want %q", got, err, whole)
	}
}

// TestEventLogTornLine: the event log's append is not synced, so a crash
// can leave a torn last line. The restart cuts the log back to its last
// newline: every /events line parses, and the stream is the one served
// before the crash.
func TestEventLogTornLine(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, id := doneSweep(t, dir, tinySpec())
	_, pre := get(t, ts1.URL+"/v1/sweeps/"+id+"/events", "")
	ts1.Close()
	s1.close()
	f, err := os.OpenFile(filepath.Join(dir, id, "events.ndjson"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"job-progress","job":"rarefied/r0`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.close)
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	waitDone(t, ts2, id)
	_, post := get(t, ts2.URL+"/v1/sweeps/"+id+"/events", "")
	for _, line := range bytes.SplitAfter(post, []byte("\n")) {
		if len(line) > 0 && (!json.Valid(line) || line[len(line)-1] != '\n') {
			t.Errorf("/events served a partial line %q", line)
		}
	}
	if len(pre) == 0 || !bytes.Equal(post, pre) {
		t.Errorf("/events after the torn append: %d bytes, want the %d bytes served before it", len(post), len(pre))
	}
}

// TestRegisterReadsLogTail: registering a sweep finds its event log's
// torn last line by reading back from the end, so a 4 MB log costs the
// start-up no more than a small one: under 64 KiB allocated, and the log
// is cut back to its whole lines.
func TestRegisterReadsLogTail(t *testing.T) {
	dir := t.TempDir()
	s, err := newServer(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	const id = "sw-000001"
	if err := os.Mkdir(filepath.Join(dir, id), 0o755); err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"type":"job-progress","job":"rarefied/r000","scenario":"rarefied","steps_done":4,"steps_total":8}` + "\n")
	whole := bytes.Repeat(line, 4<<20/len(line)+1)
	torn := `{"type":"job-progress","job":"rarefied/r0`
	if err := os.WriteFile(s.eventsPath(id), append(whole, torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := s.register(id, tinySpec(), true)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 64<<10 {
		t.Errorf("registering over a %d-byte log allocated %d bytes, want < 64 KiB", len(whole), got)
	}
	if r.logSize != int64(len(whole)) || r.logFile == nil {
		t.Fatalf("registered log of %d whole bytes (open %v), want %d", r.logSize, r.logFile != nil, len(whole))
	}
	if fi, err := os.Stat(s.eventsPath(id)); err != nil || fi.Size() != int64(len(whole)) {
		t.Fatalf("log on disk after the cut: %v, %v; want %d bytes", fi, err, len(whole))
	}
	r.finish("", 0, errors.New("test over"))
}

// specWithField marshals spec and sets one extra field in the JSON object
// at path — a field the SweepSpec types do not have.
func specWithField(t testing.TB, spec dsmc.SweepSpec, path []string, field string, value any) []byte {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var root map[string]any
	if err := json.Unmarshal(raw, &root); err != nil {
		t.Fatal(err)
	}
	obj := root
	for _, k := range path {
		obj = obj[k].(map[string]any)
	}
	obj[field] = value
	if raw, err = json.Marshal(root); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRecoveryStaleSpec: a data directory whose spec.json files carry
// fields this build does not know — the flat "base" object, a deleted
// knob in the scenario params. A finished sweep whose spec.json is of the
// "base" form keeps its result.ref and serves the same bytes under the
// same ETag; once its store object is gone, its GET is a 500 saying it
// cannot be recomputed. An unfinished one ends failed with the field
// named; the server starts regardless and an unfinished sweep with a
// clean spec resumes and completes.
func TestRecoveryStaleSpec(t *testing.T) {
	dir := t.TempDir()
	_, ts1, done := doneSweep(t, dir, tinySpec())
	pre, preBody := fetch(t, http.MethodGet, ts1.URL, done, "")
	ts1.Close()
	persist := func(id string, spec []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, id, "ckpt"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, "spec.json"), spec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unfinished := func(id string, spec dsmc.SweepSpec) dsmc.SweepSpec {
		spec.Pool = 2
		spec.CheckpointDir = filepath.Join(dir, id, "ckpt")
		return spec
	}
	persist(done, legacySpecJSON(filepath.Join(dir, done, "ckpt")))
	persist("sw-000002", legacySpecJSON(filepath.Join(dir, "sw-000002", "ckpt")))
	persist("sw-000003", specWithField(t, unfinished("sw-000003", tinySpec()), []string{"scenario", "params"}, "SortTile", 64))
	clean, err := json.Marshal(unfinished("sw-000004", tinySpec()))
	if err != nil {
		t.Fatal(err)
	}
	persist("sw-000004", clean)

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatalf("server did not start over the stale directory: %v", err)
	}
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()

	post, postBody := fetch(t, http.MethodGet, ts2.URL, done, "")
	if post.StatusCode != http.StatusOK || post.Header.Get("ETag") != pre.Header.Get("ETag") || !bytes.Equal(postBody, preBody) {
		t.Errorf("finished sweep: status %d, ETag %s (was %s), body equal: %v",
			post.StatusCode, post.Header.Get("ETag"), pre.Header.Get("ETag"), bytes.Equal(postBody, preBody))
	}
	for id, field := range map[string]string{"sw-000002": `unknown field "base"`, "sw-000003": "SortTile"} {
		if st := waitDone(t, ts2, id); st.State != stateFailed || !strings.Contains(st.Error, field) {
			t.Errorf("%s: state %s, error %q; want failed naming %s", id, st.State, st.Error, field)
		}
	}
	if st := waitDone(t, ts2, "sw-000004"); st.State != stateDone {
		t.Errorf("clean unfinished sweep: state %s (%s), want done", st.State, st.Error)
	}
	if err := os.Remove(resultObject(dir, pre.Header.Get("ETag"))); err != nil {
		t.Fatal(err)
	}
	if resp, body := fetch(t, http.MethodGet, ts2.URL, done, ""); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "cannot be recomputed") {
		t.Errorf("flat-base sweep with its result gone: GET status %d, body %.300q; want a 500 saying it cannot be recomputed", resp.StatusCode, body)
	}
}

// TestRecoverySpecNotJSON: a spec.json that is not JSON — torn by a disk
// fault, or edited by hand — does not keep the server from starting, and
// its sweep is not skipped: it is listed failed, the error naming the file
// and what the decoder found.
func TestRecoverySpecNotJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sw-000003"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sw-000003", "spec.json"), []byte(`{"name":"torn","replicas":2,`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(dir, 1)
	if err != nil {
		t.Fatalf("server did not start over the torn spec: %v", err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	st := waitDone(t, ts, "sw-000003")
	if st.State != stateFailed || !strings.Contains(st.Error, "spec.json") || !strings.Contains(st.Error, "unexpected EOF") {
		t.Errorf("sweep with a torn spec.json: state %s, error %q; want failed naming spec.json and the EOF", st.State, st.Error)
	}
}
