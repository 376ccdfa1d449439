//go:build !race

package main

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"dsmc"
)

// TestFinishedSweepRetention: a finished sweep keeps its spec, state,
// result ETag and size in memory, and neither its job rows, its event
// history nor the coordinator's table, leases and spec, so the heap dsmcd
// retains per sweep does not grow with the sweep's jobs. Three kinds of
// sweep run at 2 replicas and again at 16, and for each the retention per
// sweep at 16 is at most 1.25× the 2-replica figure plus an allowance:
// 500 memo hits, which the coordinator never holds, and 100 renamed
// sweeps, whose result is a miss and every job a store hit, which the
// coordinator registers, finishes and drops, each with 256 B; then 12
// cold sweeps, each on its own seed, which must each have left the
// coordinator, with 256 B for each of the 14 more jobs, because every job
// a cold sweep runs leaves one entry in the store's in-memory index. Not
// under -race, whose shadow memory distorts the heap.
func TestFinishedSweepRetention(t *testing.T) {
	const hits, renamed, colds = 500, 100, 12
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	type retention struct{ hit, renamed, cold float64 }
	retained := func(replicas int) (r retention) {
		s, err := newServer(t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		ts := httptest.NewServer(s.handler())
		defer ts.Close()
		spec := tinySpec()
		spec.Replicas = replicas
		// The cold sweep stores the jobs' outputs and the result; the first
		// hit warms the server's and the client's pools.
		for range 2 {
			if st := waitDone(t, ts, submit(t, ts, spec)); st.State != stateDone {
				t.Fatalf("%d replicas: sweep state %s (%s)", replicas, st.State, st.Error)
			}
		}
		// n sweeps of spec(i), each waited for: the heap they leave per
		// sweep, and their IDs.
		perSweep := func(n int, spec func(i int) dsmc.SweepSpec) (float64, []string) {
			before := heap()
			ids := make([]string, n)
			for i := range n {
				ids[i] = submit(t, ts, spec(i))
				get(t, ts.URL+"/v1/sweeps/"+ids[i]+"/events", "") // ends when the sweep has finished
			}
			after := heap()
			if st := waitDone(t, ts, ids[n-1]); st.State != stateDone || len(st.Jobs) != replicas+1 {
				t.Fatalf("%d replicas: last sweep state %s with %d job rows", replicas, st.State, len(st.Jobs))
			}
			return (float64(after) - float64(before)) / float64(n), ids
		}
		r.hit, _ = perSweep(hits, func(int) dsmc.SweepSpec { return spec })
		r.renamed, _ = perSweep(renamed, func(i int) dsmc.SweepSpec {
			sp := spec
			sp.Name = fmt.Sprintf("renamed-%d", i) // a new result key over the same job keys
			return sp
		})
		var ids []string
		r.cold, ids = perSweep(colds, func(i int) dsmc.SweepSpec {
			w := tinyWedge()
			w.Seed = uint64(100 + i)
			sp := tinySpecOver(w)
			sp.Replicas = replicas
			return sp
		})
		for _, id := range ids {
			if rows, held := s.coord.Jobs(id); held {
				t.Errorf("%d replicas: cold sweep %s, done, is held by the coordinator, %d job rows", replicas, id, len(rows))
			}
		}
		return r
	}
	two, sixteen := retained(2), retained(16)
	for _, k := range []struct {
		kind                string
		two, sixteen, slack float64
	}{
		{"memo-hit", two.hit, sixteen.hit, 256},
		{"renamed", two.renamed, sixteen.renamed, 256},
		{"cold", two.cold, sixteen.cold, (16 - 2) * 256},
	} {
		t.Logf("heap retained per %s sweep: %.0f B at 2 replicas, %.0f B at 16", k.kind, k.two, k.sixteen)
		if k.sixteen > 1.25*k.two+k.slack {
			t.Errorf("retention per %s sweep at 16 replicas %.0f B, over 1.25 × %.0f B + %.0f B at 2", k.kind, k.sixteen, k.two, k.slack)
		}
	}
}
