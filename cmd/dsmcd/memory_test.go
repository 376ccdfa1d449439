//go:build !race

package main

import (
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestFinishedSweepRetention: a finished sweep keeps its spec, state,
// result ETag and size in memory, and neither its job rows nor its event
// history, so the heap dsmcd retains per sweep does not grow with the
// sweep's jobs. 500 memo-hit sweeps at 2 replicas and again at 16: the
// retention per sweep at 16 is at most 1.25× the 2-replica figure plus
// 256 B. Not under -race, whose shadow memory distorts the heap.
func TestFinishedSweepRetention(t *testing.T) {
	const sweeps = 500
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	retained := func(replicas int) float64 {
		s, err := newServer(t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		ts := httptest.NewServer(s.handler())
		defer ts.Close()
		spec := tinySpec()
		spec.Replicas = replicas
		// The cold sweep stores the result; the first hit warms the
		// server's and the client's pools.
		for range 2 {
			if st := waitDone(t, ts, submit(t, ts, spec)); st.State != stateDone {
				t.Fatalf("%d replicas: sweep state %s (%s)", replicas, st.State, st.Error)
			}
		}
		before := heap()
		var id string
		for range sweeps {
			id = submit(t, ts, spec)
			get(t, ts.URL+"/v1/sweeps/"+id+"/events", "") // ends when the sweep has finished
		}
		after := heap()
		if st := waitDone(t, ts, id); st.State != stateDone || len(st.Jobs) != replicas+1 {
			t.Fatalf("%d replicas: last sweep state %s with %d job rows", replicas, st.State, len(st.Jobs))
		}
		return (float64(after) - float64(before)) / sweeps
	}
	two, sixteen := retained(2), retained(16)
	t.Logf("heap retained per finished sweep: %.0f B at 2 replicas, %.0f B at 16", two, sixteen)
	if sixteen > 1.25*two+256 {
		t.Errorf("retention per sweep at 16 replicas %.0f B, over 1.25 × %.0f B + 256 B at 2", sixteen, two)
	}
}
