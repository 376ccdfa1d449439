package dsmc

import (
	"math"
	"testing"

	"dsmc/internal/grid"
)

// wallField is a 14×8 density field behind a wedge whose base ends at
// x = 5, so the wall profile runs over columns 6 to 12: the first column
// behind the back face to the one before the exit column. Those columns
// hold prof[ix-6] in the four wall rows the profile averages; every other
// cell holds 64, which would show in any value that read it.
func wallField(prof []float64) *Field {
	const nx, ny, x0 = 14, 8, 6
	f := &Field{
		NX: nx, NY: ny, NZ: 1,
		Quantity: Density,
		Data:     make([]float64, nx*ny),
		grid:     grid.New(nx, ny),
		wedge:    &WedgeSpec{LeadX: 2, Base: 3, AngleDeg: 30},
	}
	for iy := range ny {
		for ix := range nx {
			v := 64.0
			if iy < 4 && ix >= x0 && ix < nx-1 {
				v = prof[ix-x0]
			}
			f.Data[f.grid.Index(ix, iy)] = v
		}
	}
	return f
}

// TestWakeMetrics pins the three wake readings on a wall profile set by
// hand, with dyadic values so every sum and quotient is exact:
//   - recovery: the exit level is (1.75+2.25)/2 = 2, half of it 1, first
//     crossed between columns 9 (0.75) and 10 (1.75) a quarter of the way,
//     so x = 6 + 3 + 0.25 + 0.5 = 9.75 (cell centres);
//   - steepness: the largest 3-cell rise, (1.75-0.25)/3 = 0.5;
//   - base density: the mean of the first six columns, 5.25/6 = 0.875.
//
// Without a wedge each reading is NaN.
func TestWakeMetrics(t *testing.T) {
	f := wallField([]float64{0.25, 0.25, 0.5, 0.75, 1.75, 1.75, 2.25})
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"WakeRecoveryX", f.WakeRecoveryX(), 9.75},
		{"WakeSteepness", f.WakeSteepness(), 0.5},
		{"WakeBaseDensity", f.WakeBaseDensity(), 0.875},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	f.wedge = nil
	for name, got := range map[string]float64{
		"WakeRecoveryX":   f.WakeRecoveryX(),
		"WakeSteepness":   f.WakeSteepness(),
		"WakeBaseDensity": f.WakeBaseDensity(),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s without a wedge = %v, want NaN", name, got)
		}
	}
}
