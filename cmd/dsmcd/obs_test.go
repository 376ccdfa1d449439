package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dsmc"
	"dsmc/internal/coord"
)

// TestMetricsEndpoint: after a sweep runs through embedded workers,
// GET /metrics must serve parseable Prometheus text covering every
// telemetry layer — engine phase histograms, coordinator lifecycle
// counters and queue gauges, the result store, and per-worker heartbeat
// ages — and no dsmc_fleet_* copy of this process's engine families.
func TestMetricsEndpoint(t *testing.T) {
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

	samples := scrapeMetrics(t, ts.URL)

	// Engine layer: one histogram child per pipeline phase, counting
	// every step taken by the embedded workers' simulations.
	for _, phase := range dsmc.StepPhases {
		key := fmt.Sprintf("dsmc_engine_phase_seconds_count{phase=%q}", phase)
		if samples[key] < 1 {
			t.Errorf("%s = %v, want >= 1", key, samples[key])
		}
	}
	if samples["dsmc_engine_steps_total"] < 1 {
		t.Errorf("dsmc_engine_steps_total = %v, want >= 1", samples["dsmc_engine_steps_total"])
	}

	// Coordinator layer: the sweep's two replica jobs were leased and
	// completed; the queue drained.
	for name, min := range map[string]float64{
		"dsmc_coord_lease_grants_total": 2,
		"dsmc_coord_completions_total":  2,
		"dsmc_coord_heartbeats_total":   1,
		"dsmc_coord_job_seconds_count":  2,
		"dsmc_coord_workers":            1,
	} {
		if samples[name] < min {
			t.Errorf("%s = %v, want >= %v", name, samples[name], min)
		}
	}
	if got, ok := samples["dsmc_coord_queue_depth"]; !ok || got != 0 {
		t.Errorf("dsmc_coord_queue_depth = %v (present=%v), want 0 after completion", got, ok)
	}

	// Result-store layer: the sweep's two replica outputs were published
	// (their dispatch-time lookups missed a cold store), and the instance
	// gauges report the artifacts on disk. Counters are process-global, so
	// the floor is this sweep's contribution.
	for name, min := range map[string]float64{
		"dsmc_store_publishes_total": 2,
		"dsmc_store_misses_total":    2,
		"dsmc_store_artifacts":       2,
		"dsmc_store_bytes":           1,
	} {
		if samples[name] < min {
			t.Errorf("%s = %v, want >= %v", name, samples[name], min)
		}
	}
	for _, name := range []string{"dsmc_store_hits_total", "dsmc_store_verify_failures_total", "dsmc_store_evictions_total"} {
		if _, ok := samples[name]; !ok {
			t.Errorf("%s missing from the scrape (registered counters must render at zero)", name)
		}
	}

	// Fleet layer: a heartbeat age per worker. Embedded workers re-emit no
	// engine snapshot: theirs is this process's registry, scraped above.
	var ages int
	var fleet []string
	for key := range samples {
		if strings.HasPrefix(key, "dsmc_coord_worker_heartbeat_age_seconds{worker=") {
			ages++
		}
		if strings.HasPrefix(key, "dsmc_fleet_") {
			fleet = append(fleet, key)
		}
	}
	if ages == 0 {
		t.Error("no per-worker heartbeat-age rows in the scrape")
	}
	if len(fleet) > 0 {
		t.Errorf("embedded workers re-emitted %d dsmc_fleet_* rows, such as %s", len(fleet), fleet[0])
	}
}

// TestFleetRowsAreExternalWorkers: a worker that reaches the coordinator
// over HTTP has its engine snapshot re-emitted as dsmc_fleet_* rows
// under its own label, and only it: the server runs no embedded worker.
func TestFleetRowsAreExternalWorkers(t *testing.T) {
	s, err := newServer(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	w := coord.NewWorker(coord.WorkerConfig{ID: "ext-1", Queue: &coord.HTTPQueue{Base: ts.URL}, PollEvery: 10 * time.Millisecond})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-stopped
	}()

	id := submit(t, ts, tinySpec())
	if st := waitDone(t, ts, id); st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}
	var rows int
	for key := range scrapeMetrics(t, ts.URL) {
		if strings.HasPrefix(key, "dsmc_fleet_") {
			if !strings.Contains(key, `{worker="ext-1"`) {
				t.Errorf("fleet row %s is not the HTTP worker's", key)
			}
			rows++
		}
	}
	if rows == 0 {
		t.Error("no dsmc_fleet_* rows: the HTTP worker's snapshot was not re-emitted")
	}
}
