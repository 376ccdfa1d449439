package sim3

import (
	"bytes"
	"testing"

	"dsmc/internal/kernel"
)

// testStepAllocationFree3D: the 3D backend's steady-state Step must also
// be allocation-free in either storage precision; the config crosses
// par's serial cutoff in both shard dimensions (2560 cells, ~20k
// particles) so the concurrent dispatch path is the one measured.
func testStepAllocationFree3D[F kernel.Float](t *testing.T) {
	t.Helper()
	cfg := detConfig()
	cfg.Workers = 4
	s, err := NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	if avg := testing.AllocsPerRun(20, s.Step); avg != 0 {
		t.Errorf("steady-state Step allocates %.2f times per call, want 0", avg)
	}
}

func TestStepAllocationFree3D(t *testing.T)        { testStepAllocationFree3D[float64](t) }
func TestStepAllocationFree3DFloat32(t *testing.T) { testStepAllocationFree3D[float32](t) }

// testCellCurrency3D: after every step — piston and wall reflections, a
// restore into a fresh simulation mid-run, any worker count — the 3D
// store must be physically cell-major (Cell non-decreasing, spans
// matching CellStart) and each cell index the grid cell of the position
// as stored: the move pass owns cell indexing, the sort only reads the
// column.
func testCellCurrency3D[F kernel.Float](t *testing.T) {
	for _, seed := range []uint64{21, 99, 31337} {
		for _, workers := range []int{1, 3} {
			cfg := tubeConfig()
			cfg.NX = 24
			cfg.Seed, cfg.Workers = seed, workers
			s, err := NewOf[F](cfg)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 12; step++ {
				if step == 6 {
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
				s.Step()
				st, cellStart := s.Store(), s.CellStart()
				n := st.Len()
				if got := int(cellStart[len(cellStart)-1]); got != n {
					t.Fatalf("step %d: cellStart covers %d particles, store holds %d", step, got, n)
				}
				for i := 0; i < n; i++ {
					c := st.Cell[i]
					if want := int32(s.grid.CellOf(float64(st.X[i]), float64(st.Y[i]), float64(st.Z[i]))); c != want {
						t.Fatalf("step %d: particle %d carries cell %d, position says %d", step, i, c, want)
					}
					if i > 0 && c < st.Cell[i-1] {
						t.Fatalf("step %d: Cell not non-decreasing at %d", step, i)
					}
					if i < int(cellStart[c]) || i >= int(cellStart[c+1]) {
						t.Fatalf("step %d: particle %d (cell %d) outside its span", step, i, c)
					}
				}
			}
		}
	}
}

func TestCellMajorInvariant3D(t *testing.T)        { testCellCurrency3D[float64](t) }
func TestCellMajorInvariant3DFloat32(t *testing.T) { testCellCurrency3D[float32](t) }
