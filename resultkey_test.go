package dsmc_test

import (
	"bytes"
	"encoding/json"
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
		k, err := dsmc.SweepResultKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		return k
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
