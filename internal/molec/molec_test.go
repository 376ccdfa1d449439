package molec

import (
	"math"
	"testing"
)

func TestMaxwellSelectionFactorIsUnity(t *testing.T) {
	m := Maxwell()
	if m.GExp != 0 {
		t.Errorf("Maxwell GExp = %v, want 0 (eq. 8: P/P∞ = n/n∞)", m.GExp)
	}
	for _, g := range []float64{0.1, 1, 10} {
		if m.GFactor(g) != 1 {
			t.Errorf("Maxwell GFactor(%v) = %v", g, m.GFactor(g))
		}
	}
}

func TestPowerLawReducesToMaxwell(t *testing.T) {
	if got := PowerLaw(4).GExp; got != 0 {
		t.Errorf("alpha=4 GExp = %v, want 0", got)
	}
}

func TestHardSphereExponent(t *testing.T) {
	if HardSphere().GExp != 1 {
		t.Errorf("hard sphere GExp = %v, want 1 (P ∝ n·g)", HardSphere().GExp)
	}
	if got := HardSphere().GFactor(2); got != 2 {
		t.Errorf("hard sphere GFactor(2) = %v", got)
	}
}

func TestVHSLimits(t *testing.T) {
	if VHS(0.5).GExp != 1 {
		t.Errorf("VHS(0.5) must be a hard sphere")
	}
	if VHS(1).GExp != 0 {
		t.Errorf("VHS(1) must be a Maxwell molecule")
	}
}

func TestVHSPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for omega out of range")
		}
	}()
	VHS(0.3)
}

func TestPowerLawPanicsBelowMaxwell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for alpha < 4")
		}
	}()
	PowerLaw(2)
}

func TestGamma(t *testing.T) {
	if got := Maxwell().Gamma(); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("diatomic gamma = %v, want 7/5", got)
	}
	if got := (Model{}).Gamma(); math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("monatomic gamma = %v, want 5/3", got)
	}
}

func TestGFactorZeroSpeed(t *testing.T) {
	if HardSphere().GFactor(0) != 0 {
		t.Errorf("zero relative speed must give zero factor for g-dependent models")
	}
}

func TestGFactorFractionalAlpha(t *testing.T) {
	m := PowerLaw(8) // GExp = 1/2
	if math.Abs(m.GFactor(4)-2) > 1e-12 {
		t.Errorf("alpha=8 GFactor(4) = %v, want 2", m.GFactor(4))
	}
}
