package particle

import (
	"math"
	"testing"

	"dsmc/internal/collide"
	"dsmc/internal/rng"
)

func TestStoreAppendAndAccess(t *testing.T) {
	s := NewStore[float64](4)
	v := collide.State5{1, 2, 3, 4, 5}
	i := s.Append(0.5, 0.25, v)
	if i != 0 || s.Len() != 1 {
		t.Fatalf("Append returned %d, len %d", i, s.Len())
	}
	if s.Vel(0) != v {
		t.Errorf("Vel = %v", s.Vel(0))
	}
	if s.X[0] != 0.5 || s.Y[0] != 0.25 {
		t.Errorf("position not stored")
	}
}

func TestStoreCapacityLimit(t *testing.T) {
	s := NewStore[float64](2)
	s.Append(0, 0, collide.State5{})
	s.Append(0, 0, collide.State5{})
	if s.Append(0, 0, collide.State5{}) != -1 {
		t.Errorf("full store must refuse particles")
	}
	if s.Cap() != 2 {
		t.Errorf("Cap = %d", s.Cap())
	}
}

func TestRemoveSwap(t *testing.T) {
	s := NewStore[float64](3)
	s.Append(1, 1, collide.State5{1, 0, 0, 0, 0})
	s.Append(2, 2, collide.State5{2, 0, 0, 0, 0})
	s.Append(3, 3, collide.State5{3, 0, 0, 0, 0})
	s.RemoveSwap(0)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.X[0] != 3 || s.U[0] != 3 {
		t.Errorf("last particle must fill the hole: x=%v u=%v", s.X[0], s.U[0])
	}
	// Removing the final particle needs no copy.
	s.RemoveSwap(1)
	if s.Len() != 1 || s.X[0] != 3 {
		t.Errorf("tail removal wrong")
	}
}

func TestSetVel(t *testing.T) {
	s := NewStore[float64](1)
	s.Append(0, 0, collide.State5{})
	want := collide.State5{9, 8, 7, 6, 5}
	s.SetVel(0, want)
	if s.Vel(0) != want {
		t.Errorf("SetVel/Vel round trip")
	}
}

func TestTotalEnergyMomentum(t *testing.T) {
	s := NewStore[float64](2)
	s.Append(0, 0, collide.State5{1, 2, 3, 4, 5})
	s.Append(0, 0, collide.State5{-1, -2, -3, 0, 0})
	wantE := float64(1+4+9+16+25) + float64(1+4+9)
	if got := s.TotalEnergy(); math.Abs(got-wantE) > 1e-12 {
		t.Errorf("TotalEnergy = %v, want %v", got, wantE)
	}
	var px, py, pz float64
	for i := range s.Len() {
		v := s.Vel(i)
		px, py, pz = px+v[0], py+v[1], pz+v[2]
	}
	if px != 0 || py != 0 || pz != 0 {
		t.Errorf("momentum should cancel: %v %v %v", px, py, pz)
	}
}

func TestInitFreestreamRespectsRegionAndMoments(t *testing.T) {
	s := NewStore[float64](60000)
	r := rng.NewStream(1)
	const sigma = 0.1
	const drift = 0.4
	placed := s.InitFreestream(50000, 10, 10, drift, sigma,
		func(x, y float64) bool { return x > 5 }, &r)
	if placed != 50000 {
		t.Fatalf("placed %d", placed)
	}
	var sumU, sumX float64
	for i := 0; i < s.Len(); i++ {
		if s.X[i] <= 5 {
			t.Fatalf("particle outside region at x=%v", s.X[i])
		}
		sumU += s.U[i]
		sumX += s.X[i]
	}
	if math.Abs(sumU/float64(s.Len())-drift) > 0.005 {
		t.Errorf("mean u = %v, want %v", sumU/float64(s.Len()), drift)
	}
	if math.Abs(sumX/float64(s.Len())-7.5) > 0.05 {
		t.Errorf("mean x = %v, want 7.5", sumX/float64(s.Len()))
	}
}

func TestInitFreestreamStopsAtCapacity(t *testing.T) {
	s := NewStore[float64](10)
	r := rng.NewStream(2)
	placed := s.InitFreestream(100, 1, 1, 0, 0.1, func(x, y float64) bool { return true }, &r)
	if placed != 10 || s.Len() != 10 {
		t.Errorf("placed %d, len %d", placed, s.Len())
	}
}

func TestReservoirDepositWithdraw(t *testing.T) {
	rv := NewReservoir(10, 0.2)
	r := rng.NewStream(3)
	rv.DepositN(3, &r)
	if rv.Len() != 3 {
		t.Fatalf("Len = %d", rv.Len())
	}
	_, ok := rv.Withdraw()
	if !ok || rv.Len() != 2 {
		t.Errorf("Withdraw failed")
	}
	rv.Withdraw()
	rv.Withdraw()
	if _, ok := rv.Withdraw(); ok {
		t.Errorf("empty reservoir must report false")
	}
}

// TestReservoirRelaxesRectangularToGaussian is the paper's reservoir
// mechanism: rectangular velocities (kurtosis 1.8) relax to the correct
// Gaussian distribution (kurtosis 3) after a few steps of collisions with
// other reservoir particles.
func TestReservoirRelaxesRectangularToGaussian(t *testing.T) {
	rv := NewReservoir(20000, 0.3)
	r := rng.NewStream(4)
	rv.DepositN(20000, &r)
	_, v0, k0 := rv.Moments()
	if math.Abs(k0-1.8) > 0.05 {
		t.Fatalf("initial kurtosis %v, want 1.8 (rectangular)", k0)
	}
	for step := 0; step < 12; step++ {
		rv.Relax(&r)
	}
	mean, v1, k1 := rv.Moments()
	if math.Abs(k1-3.0) > 0.1 {
		t.Errorf("relaxed kurtosis %v, want 3 (Gaussian)", k1)
	}
	if math.Abs(mean) > 0.01 {
		t.Errorf("thermal-frame mean %v, want 0", mean)
	}
	// Energy (variance) must be preserved by the relaxation.
	if math.Abs(v1-v0)/v0 > 1e-9 {
		t.Errorf("variance changed: %v -> %v", v0, v1)
	}
}

func TestReservoirRelaxEmptyAndSingle(t *testing.T) {
	rv := NewReservoir(4, 0.1)
	r := rng.NewStream(5)
	rv.Relax(&r) // empty: no-op
	rv.Deposit(&r)
	rv.Relax(&r) // single particle: no pair, no-op
	if rv.Len() != 1 {
		t.Errorf("Len = %d", rv.Len())
	}
}

// TestEvibColumnOptional: a store has no Evib column until AddEvib, and
// Append, Swap and RemoveSwap work on either shape — carrying the energy
// with the record when there is a column, touching nothing otherwise.
func TestEvibColumnOptional(t *testing.T) {
	for _, newStore := range []func(int) *Store[float64]{NewStore[float64], NewStore3[float64]} {
		s := newStore(4)
		if s.Evib != nil {
			t.Fatal("a new store carries an Evib column")
		}
		for k := 1; k <= 3; k++ {
			s.Append(float64(k), float64(k), collide.State5{float64(k)})
		}
		s.Swap(0, 2)
		s.RemoveSwap(0) // record 3 (swapped to the front) leaves; record 1 (now last) fills the hole
		if s.Len() != 2 || s.X[0] != 1 || s.U[0] != 1 || s.X[1] != 2 {
			t.Fatalf("column-less store after Swap+RemoveSwap: len %d, X %v, U %v", s.Len(), s.X[:2], s.U[:2])
		}
		if s.Evib != nil {
			t.Fatal("Append/Swap/RemoveSwap grew an Evib column")
		}

		s.AddEvib()
		if len(s.Evib) != s.Cap() {
			t.Fatalf("AddEvib: column length %d, capacity %d", len(s.Evib), s.Cap())
		}
		s.Evib[0], s.Evib[1] = 0.5, 0.25
		s.Evib[2] = 9 // stale slot: Append must zero it
		col := &s.Evib[0]
		s.AddEvib() // idempotent: keeps the column and its contents
		if &s.Evib[0] != col || s.Evib[0] != 0.5 {
			t.Fatal("second AddEvib replaced the column")
		}
		if i := s.Append(3, 3, collide.State5{3}); s.Evib[i] != 0 {
			t.Errorf("Append left vibrational energy %v in the new record", s.Evib[i])
		}
		s.Swap(0, 1)
		if s.Evib[0] != 0.25 || s.Evib[1] != 0.5 || s.X[0] != 2 {
			t.Errorf("Swap did not carry Evib with the record: %v", s.Evib[:2])
		}
		s.RemoveSwap(0)
		if s.Len() != 2 || s.X[0] != 3 || s.Evib[0] != 0 || s.Evib[1] != 0.5 {
			t.Errorf("RemoveSwap did not carry Evib with the record: X %v Evib %v", s.X[:2], s.Evib[:2])
		}
	}
}
