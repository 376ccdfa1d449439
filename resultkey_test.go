package dsmc_test

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"dsmc"
)

// TestSweepResultKeyCoverage is the fence around serving a stored result
// for a new submission: a false hit would serve the wrong science under a
// valid ETag. Flipping, alone, any input the encoded result depends on must
// change the key; flipping what only steers execution must not, or warm
// sweeps would miss for no reason.
func TestSweepResultKeyCoverage(t *testing.T) {
	base := func() dsmc.SweepSpec {
		spec := memoSweepSpec("")
		spec.Quantities = []dsmc.Quantity{dsmc.Density, dsmc.Temperature}
		return spec
	}
	key := func(spec dsmc.SweepSpec) string {
		t.Helper()
		sw, err := dsmc.NewSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		return sw.ResultKey
	}
	want := key(base())
	if !strings.HasPrefix(want, "res-") {
		t.Fatalf("key %q is not of the res kind", want)
	}
	if got := key(base()); got != want {
		t.Fatalf("the identical spec derived %q, then %q", want, got)
	}

	// wedge edits the decoded base scenario and re-encodes it.
	wedge := func(edit func(*dsmc.WedgeTunnel2D)) func(*dsmc.SweepSpec) {
		return func(s *dsmc.SweepSpec) {
			sc, err := s.BaseScenario()
			if err != nil {
				t.Fatal(err)
			}
			w := sc.(dsmc.WedgeTunnel2D)
			edit(&w)
			s.Scenario = specOf(w)
		}
	}
	cases := []struct {
		name    string
		mutate  func(*dsmc.SweepSpec)
		changes bool
	}{
		{"sweep name", func(s *dsmc.SweepSpec) { s.Name = "memo2" }, true},
		{"point name", func(s *dsmc.SweepSpec) { s.Points[1].Name = "thin" }, true},
		{"point parameter", func(s *dsmc.SweepSpec) { s.Points[1].MeanFreePath = f64(0.6) }, true},
		{"point gains a parameter", func(s *dsmc.SweepSpec) { s.Points[0].WedgeAngleDeg = f64(25) }, true},
		{"base parameter", wedge(func(w *dsmc.WedgeTunnel2D) { w.Mach = 5 }), true},
		{"grid shape", wedge(func(w *dsmc.WedgeTunnel2D) { w.GridNY = 26 }), true},
		{"precision", wedge(func(w *dsmc.WedgeTunnel2D) { w.Precision = dsmc.Float32 }), true},
		// The kind slug follows from the physics through the public API (no
		// wedge means the empty tunnel), so it cannot be flipped alone; the
		// key hashes it anyway because the result prints it.
		{"kind", func(s *dsmc.SweepSpec) { s.Scenario = specOf(smallEmptyTunnel()) }, true},
		{"replica count", func(s *dsmc.SweepSpec) { s.Replicas = 3 }, true},
		{"quantity added", func(s *dsmc.SweepSpec) { s.Quantities = append(s.Quantities, dsmc.MachNumber) }, true},
		{"quantity removed", func(s *dsmc.SweepSpec) { s.Quantities = s.Quantities[:1] }, true},
		{"master seed", wedge(func(w *dsmc.WedgeTunnel2D) { w.Seed++ }), true},
		{"warm steps", func(s *dsmc.SweepSpec) { s.WarmSteps++ }, true},
		{"sample steps", func(s *dsmc.SweepSpec) { s.SampleSteps++ }, true},
		{"point order", func(s *dsmc.SweepSpec) { s.Points[0], s.Points[1] = s.Points[1], s.Points[0] }, true},
		{"point dropped", func(s *dsmc.SweepSpec) { s.Points = s.Points[:1] }, true},

		{"pool", func(s *dsmc.SweepSpec) { s.Pool = 7 }, false},
		{"workers", wedge(func(w *dsmc.WedgeTunnel2D) { w.Workers = 2 }), false},
		{"checkpoint placement", func(s *dsmc.SweepSpec) { s.CheckpointDir, s.CheckpointEvery = t.TempDir(), 3 }, false},
		{"store placement", func(s *dsmc.SweepSpec) { s.ResultStoreDir = t.TempDir() }, false},
		// The key hashes the lowered plans, not the wire bytes of the base.
		{"scenario params re-indented", func(s *dsmc.SweepSpec) {
			var buf bytes.Buffer
			if err := json.Indent(&buf, s.Scenario.Params, "", "\t"); err != nil {
				t.Fatal(err)
			}
			s.Scenario = &dsmc.ScenarioSpec{Kind: s.Scenario.Kind, Params: buf.Bytes()}
		}, false},
	}
	seen := map[string]string{want: "the base spec"}
	for _, c := range cases {
		spec := base()
		c.mutate(&spec)
		got := key(spec)
		if changed := got != want; changed != c.changes {
			t.Errorf("%s: key changed: %v, want %v (%s)", c.name, changed, c.changes, got)
		}
		if prev, dup := seen[got]; dup && c.changes {
			t.Errorf("%s: key %s collides with %s", c.name, got, prev)
		}
		seen[got] = c.name
	}
}

// TestSweepKeysPinned holds the literal store keys of memoSweepSpec —
// the result key and every job's output key — so no refactor of the
// lowering can rotate a key and silently orphan a store's artifacts.
// Recorded when the trajectory fingerprint became a walk over the
// lowered scenario that starts with run.PhysicsEpoch; they change again
// only with the physics epoch or the fingerprint's definition.
func TestSweepKeysPinned(t *testing.T) {
	sw, err := dsmc.NewSweep(memoSweepSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	if want := "res-cc8dc71b486f8370-0000000000000007-p002-r002"; sw.ResultKey != want {
		t.Errorf("result key %s, want %s", sw.ResultKey, want)
	}
	want := [][2]string{
		{"near-continuum/r000", "out-2cd77d9ca65732f3-0000000000000007-p000-r000"},
		{"near-continuum/r001", "out-2cd77d9ca65732f3-0000000000000007-p000-r001"},
		{"rarefied/r000", "out-3df4fe6d5df14b90-0000000000000007-p001-r000"},
		{"rarefied/r001", "out-3df4fe6d5df14b90-0000000000000007-p001-r001"},
	}
	if len(sw.Jobs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(sw.Jobs), len(want))
	}
	for i, j := range sw.Jobs {
		if got := [2]string{j.ID, j.StoreKey}; got != want[i] {
			t.Errorf("job %d: %v, want %v", i, got, want[i])
		}
	}
}

// TestSweepLoweringAllocs: lowering a sweep costs O(points), not
// O(cells) — no per-cell table is built at submit, however large the
// grid. The spec has the benchmark's shape: the paper wedge, two points,
// two replicas, three quantities.
func TestSweepLoweringAllocs(t *testing.T) {
	const budget = 64 << 10
	for _, n := range [][2]int{{98, 64}, {1000, 1000}} {
		sc := dsmc.PaperWedgeTunnel()
		sc.GridNX, sc.GridNY = n[0], n[1]
		spec := dsmc.SweepSpec{
			Name:       "allocs",
			Scenario:   specOf(sc),
			Quantities: []dsmc.Quantity{dsmc.Density, dsmc.Temperature, dsmc.MachNumber},
			Points:     []dsmc.SweepPoint{{Name: "rarefied"}, {Name: "near-continuum", MeanFreePath: f64(0)}},
			Replicas:   2, WarmSteps: 10, SampleSteps: 10,
		}
		// The least of a few tries: TotalAlloc is process-wide.
		least := uint64(1 << 63)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := dsmc.NewSweep(spec); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > budget {
			t.Errorf("%d×%d: lowering allocated %d bytes, want at most %d", n[0], n[1], least, budget)
		}
		t.Logf("%d×%d: %d bytes", n[0], n[1], least)
	}
}

// TestSweepJobCap: a spec whose points × replicas exceeds the job cap is
// refused before any point is lowered, whatever the replica count (a few
// bytes of JSON used to allocate the whole job list), and one at the cap
// is accepted.
func TestSweepJobCap(t *testing.T) {
	spec := dsmc.SweepSpec{
		Scenario: specOf(dsmc.PaperWedgeTunnel()),
		Points:   []dsmc.SweepPoint{{Name: "a"}, {Name: "b"}},
		Replicas: 2048, SampleSteps: 1,
	}
	sw, err := dsmc.NewSweep(spec)
	if err != nil || len(sw.Jobs) != 4096 {
		t.Fatalf("4096 jobs: err %v", err)
	}
	for _, replicas := range []int{2049, 1 << 40, math.MaxInt} {
		spec.Replicas = replicas
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := dsmc.NewSweep(spec)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds 4096 jobs") {
			t.Errorf("%d replicas: err %v, want the job cap", replicas, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%d replicas: refusing allocated %d bytes", replicas, n)
		}
	}
	// More points than the cap is refused before any is lowered, also
	// when the replica count is itself invalid.
	spec.Points = make([]dsmc.SweepPoint, 4097)
	for _, replicas := range []int{1, 0} {
		spec.Replicas = replicas
		if _, err := dsmc.NewSweep(spec); err == nil || !strings.Contains(err.Error(), "exceeds 4096 jobs") {
			t.Errorf("4097 points, %d replicas: err %v, want the job cap", replicas, err)
		}
	}
}
