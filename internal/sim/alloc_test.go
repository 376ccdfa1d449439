package sim

import (
	"bytes"
	"math"
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/kernel"
)

// allocConfig crosses par's serial cutoff in both shard dimensions so the
// zero-allocation guarantee is checked on the concurrent dispatch path,
// not just the serial fallback.
func allocConfig() Config {
	cfg := DefaultConfig(1)
	cfg.NPerCell = 2
	cfg.Seed = 17
	cfg.Workers = 4
	return cfg
}

// testStepAllocationFree: a steady-state Step must perform zero heap
// allocations in either storage precision — the sort scatters into the
// pre-allocated shadow store, all shard closures are prebuilt, per-worker
// scratch is pre-sized, and the reservoir is capacity-bounded.
func testStepAllocationFree[F kernel.Float](t *testing.T, workers int) {
	t.Helper()
	cfg := allocConfig()
	cfg.Workers = workers
	s, err := NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Past the initial transient: several plunger cycles, exit lists and
	// pick buffers at their steady sizes.
	s.Run(40)
	// The measured window must itself contain a plunger refill: the
	// appends and their cell indexing are part of the steady state.
	refills := 0
	step := func() {
		if stepRefilled(s) {
			refills++
		}
	}
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Errorf("steady-state Step allocates %.2f times per call, want 0", avg)
	}
	if refills == 0 {
		t.Error("the measured steps refilled the plunger void 0 times, want at least one")
	}
}

func TestStepAllocationFree(t *testing.T)       { testStepAllocationFree[float64](t, 4) }
func TestStepAllocationFreeSerial(t *testing.T) { testStepAllocationFree[float64](t, 1) }

// The float32 instantiation runs the same engine, so the guarantee must
// carry over unchanged.
func TestStepAllocationFreeFloat32(t *testing.T)       { testStepAllocationFree[float32](t, 4) }
func TestStepAllocationFreeFloat32Serial(t *testing.T) { testStepAllocationFree[float32](t, 1) }

// stepRefilled advances one step and reports whether it withdrew the
// plunger and refilled the void.
func stepRefilled[F kernel.Float](s *SimOf[F]) bool {
	px := s.dom.plungerX
	s.Step()
	return s.dom.plungerX < px
}

// checkCellMajor asserts the layout every post-sort sweep relies on: the
// store is physically cell-major (Cell non-decreasing, spans matching
// CellStart) and every cell index is the grid cell of the position as
// stored — which since the move pass took over cell indexing is the
// domain's contract, not something the sort recomputes.
func checkCellMajor[F kernel.Float](t *testing.T, s *SimOf[F]) {
	t.Helper()
	st, cellStart := s.Store(), s.CellStart()
	n := st.Len()
	if got := int(cellStart[len(cellStart)-1]); got != n {
		t.Fatalf("step %d: cellStart covers %d particles, store holds %d", s.StepCount(), got, n)
	}
	for i := 0; i < n; i++ {
		c := st.Cell[i]
		if want := int32(s.grid.CellOf(float64(st.X[i]), float64(st.Y[i]))); c != want {
			t.Fatalf("step %d: particle %d carries cell %d, position says %d", s.StepCount(), i, c, want)
		}
		if i > 0 && c < st.Cell[i-1] {
			t.Fatalf("step %d: Cell not non-decreasing at %d: %d after %d", s.StepCount(), i, c, st.Cell[i-1])
		}
		if i < int(cellStart[c]) || i >= int(cellStart[c+1]) {
			t.Fatalf("step %d: particle %d (cell %d) outside span [%d, %d)",
				s.StepCount(), i, c, cellStart[c], cellStart[c+1])
		}
	}
}

// testCellCurrency checks the invariant after every step of runs that
// exercise each way a particle enters, leaves or jumps in the store —
// downstream exits (RemoveSwap), plunger refills (Append), wall and body
// reflections, and a restore into a fresh simulation mid-run — across
// worker counts. Each seed brings its own boundary variant: the paper's
// tunnel, diffuse walls, two bodies.
func testCellCurrency[F kernel.Float](t *testing.T) {
	variants := []struct {
		seed   uint64
		mutate func(*Config)
	}{
		{7, func(*Config) {}},
		{1988, func(c *Config) { c.Wall = geom.DiffuseState{Model: geom.DiffuseIsothermal, WallCm: c.Free.Cm} }},
		{424242, func(c *Config) { c.Wedge2 = &geom.Wedge{LeadX: 28, Base: 8, Angle: 20 * math.Pi / 180} }},
	}
	for _, v := range variants {
		for _, workers := range []int{1, 3} {
			cfg := smallConfig()
			cfg.Seed, cfg.Workers = v.seed, workers
			v.mutate(&cfg)
			s, err := NewOf[F](cfg)
			if err != nil {
				t.Fatal(err)
			}
			refills, exits := 0, 0
			for step := 0; step < 30; step++ {
				if step == 14 {
					var buf bytes.Buffer
					if err := s.WriteCheckpoint(&buf); err != nil {
						t.Fatal(err)
					}
					if s, err = NewOf[F](cfg); err != nil {
						t.Fatal(err)
					}
					if err := s.ReadCheckpoint(&buf); err != nil {
						t.Fatal(err)
					}
				}
				if stepRefilled(s) {
					refills++
				}
				for _, ex := range s.dom.exits {
					exits += len(ex)
				}
				checkCellMajor(t, s)
			}
			if refills == 0 || exits == 0 {
				t.Fatalf("seed %d: run saw %d refills and %d exits, want both", v.seed, refills, exits)
			}
		}
	}
}

func TestCellMajorInvariant(t *testing.T)        { testCellCurrency[float64](t) }
func TestCellMajorInvariantFloat32(t *testing.T) { testCellCurrency[float32](t) }
