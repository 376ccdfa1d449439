package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dsmc"
)

// benchShapedSpec is a sweep of the gated benchmark's shape: the paper
// wedge at 8 particles per cell, a rarefied and a near-continuum point,
// two replicas, three quantities.
func benchShapedSpec(t testing.TB) []byte {
	sc := dsmc.PaperWedgeTunnel()
	sc.ParticlesPerCell = 8
	sc.Seed = 1988*1_000_003 + 1
	ss, err := dsmc.NewScenarioSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	collideAll := 0.0
	return mustJSON(t, dsmc.SweepSpec{
		Name:            "bench-1",
		Scenario:        ss,
		Quantities:      []dsmc.Quantity{dsmc.Density, dsmc.Temperature, dsmc.MachNumber},
		Points:          []dsmc.SweepPoint{{Name: "rarefied"}, {Name: "near-continuum", MeanFreePath: &collideAll}},
		Replicas:        2,
		WarmSteps:       25,
		SampleSteps:     25,
		CheckpointEvery: 10,
	})
}

// tubeSpec is a 3D shock-tube sweep with a per-point grid override.
func tubeSpec(t testing.TB) []byte {
	ss, err := dsmc.NewScenarioSpec(dsmc.ShockTube3D{
		GridNX: 24, GridNY: 4, GridNZ: 4,
		ThermalSpeed: 0.125, PistonSpeed: 0.131,
		ParticlesPerCell: 3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, dsmc.SweepSpec{
		Name:        "tube",
		Scenario:    ss,
		Quantities:  []dsmc.Quantity{dsmc.Density, dsmc.Temperature},
		Points:      []dsmc.SweepPoint{{Name: "short"}, {Name: "long", GridNX: iptr(32)}},
		Replicas:    1,
		WarmSteps:   3,
		SampleSteps: 3,
	})
}

func mustJSON(t testing.TB, v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// trailingBodies are a valid spec followed by bytes that are not
// whitespace: junk, and a second object that would change the sweep if
// it were read.
func trailingBodies(spec []byte) []string {
	return []string{
		string(spec) + ` garbage{{`,
		string(spec) + ` {"replicas":99}`,
	}
}

// TestSubmitTrailingBytes: a submission with anything but whitespace
// after the spec object is a 400 that consumes no sweep ID and leaves
// nothing on disk; trailing whitespace is accepted.
func TestSubmitTrailingBytes(t *testing.T) {
	s, err := newServer(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	spec := mustJSON(t, tinySpec())

	s.mu.Lock()
	next := s.nextID
	s.mu.Unlock()
	for _, body := range trailingBodies(spec) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", body[len(spec):], resp.StatusCode)
		}
	}
	s.mu.Lock()
	queued, after := len(s.sweeps), s.nextID
	s.mu.Unlock()
	if dirs, _ := filepath.Glob(filepath.Join(s.dataDir, "sw-*")); after != next || queued != 0 || len(dirs) != 0 {
		t.Errorf("refused submissions moved the next ID %d -> %d, registered %d sweeps and left %v on disk", next, after, queued, dirs)
	}
	if _, err := decodeSpec(bytes.NewReader(append(spec, " \n\t\r\n"...))); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
}

// FuzzDecodeSpec drives the submission path's two steps, decodeSpec and
// dsmc.NewSweep, on arbitrary bodies. Neither may panic. Together they
// allocate at most 4 KiB per input byte plus 4 MiB: a point's lowering
// is about 4.3 KB at any grid size, a job about 450 B, and a sweep at
// most 4096 jobs. An accepted spec, marshalled and decoded again, lowers
// to the same ResultKey. Run it with
//
//	go test ./cmd/dsmcd -run '^$' -fuzz FuzzDecodeSpec -fuzztime 30s
func FuzzDecodeSpec(f *testing.F) {
	wedge := benchShapedSpec(f)
	f.Add(wedge)
	f.Add(tubeSpec(f))
	for _, body := range trailingBodies(wedge) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec, err := decodeSpec(bytes.NewReader(body))
		var sw *dsmc.Sweep
		if err == nil {
			sw, err = dsmc.NewSweep(spec)
		}
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<10*len(body)+4<<20); n > limit {
			t.Fatalf("%d-byte body allocated %d bytes, limit %d", len(body), n, limit)
		}
		if err != nil {
			return
		}
		again, err := decodeSpec(bytes.NewReader(mustJSON(t, spec)))
		if err != nil {
			t.Fatalf("re-marshalled spec does not decode: %v", err)
		}
		sw2, err := dsmc.NewSweep(again)
		if err != nil {
			t.Fatalf("re-marshalled spec does not lower: %v", err)
		}
		if sw2.ResultKey != sw.ResultKey {
			t.Fatalf("re-marshalled spec lowers to %s, was %s", sw2.ResultKey, sw.ResultKey)
		}
	})
}
