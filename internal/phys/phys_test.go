package phys

import (
	"math"
	"testing"
	"testing/quick"
)

const deg = math.Pi / 180

// TestPaperValidationCase reproduces the two theory numbers the paper uses
// to validate the code: for Mach 4 flow over a 30° wedge, the shock angle
// is 45° and the Rankine–Hugoniot density rise is 3.7.
func TestPaperValidationCase(t *testing.T) {
	beta, err := ObliqueShockBeta(4, 30*deg, GammaDiatomic)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta/deg-45) > 0.3 {
		t.Errorf("shock angle = %.2f°, paper quotes 45°", beta/deg)
	}
	ratio := RHDensityRatio(NormalMach(4, beta), GammaDiatomic)
	if math.Abs(ratio-3.7) > 0.05 {
		t.Errorf("density ratio = %.3f, paper quotes 3.7", ratio)
	}
}

func TestMachAngle(t *testing.T) {
	if math.Abs(MachAngle(2)-30*deg) > 1e-12 {
		t.Errorf("MachAngle(2) = %v", MachAngle(2)/deg)
	}
}

func TestObliqueShockLimits(t *testing.T) {
	// θ → 0 gives β → Mach angle.
	beta, err := ObliqueShockBeta(3, 0.0001*deg, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta-MachAngle(3)) > 0.01 {
		t.Errorf("zero-deflection shock angle %v should approach Mach angle %v", beta/deg, MachAngle(3)/deg)
	}
	// Excessive deflection detaches.
	if _, err := ObliqueShockBeta(2, 40*deg, 1.4); err != ErrDetachedShock {
		t.Errorf("expected detached shock error, got %v", err)
	}
	// Subsonic is rejected.
	if _, err := ObliqueShockBeta(0.8, 10*deg, 1.4); err == nil {
		t.Errorf("expected error for subsonic flow")
	}
}

func TestObliqueShockConsistency(t *testing.T) {
	// β solved from θ must reproduce θ through the direct relation.
	f := func(mSeed, thSeed uint8) bool {
		m := 1.5 + float64(mSeed%60)/10      // 1.5..7.4
		th := (1 + float64(thSeed%25)) * deg // 1..25°
		beta, err := ObliqueShockBeta(m, th, 1.4)
		if err != nil {
			return true // detached: nothing to check
		}
		return math.Abs(thetaFromBeta(m, beta, 1.4)-th) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRHNormalShockTable(t *testing.T) {
	// Classic normal-shock table values, γ=1.4.
	cases := []struct{ m, rho, p float64 }{
		{1, 1, 1},
		{2, 2.6667, 4.5},
		{3, 3.8571, 10.3333},
		{5, 5.0, 29.0},
	}
	for _, c := range cases {
		if got := RHDensityRatio(c.m, 1.4); math.Abs(got-c.rho) > 2e-4*c.rho {
			t.Errorf("RHDensityRatio(%v) = %v, want %v", c.m, got, c.rho)
		}
		if got := RHPressureRatio(c.m, 1.4); math.Abs(got-c.p) > 2e-4*c.p {
			t.Errorf("RHPressureRatio(%v) = %v, want %v", c.m, got, c.p)
		}
	}
}

func TestRHDensityRatioLimit(t *testing.T) {
	// Strong-shock limit is (γ+1)/(γ-1) = 6 for γ = 1.4.
	if got := RHDensityRatio(1000, 1.4); math.Abs(got-6) > 0.001 {
		t.Errorf("strong shock density ratio = %v, want 6", got)
	}
}

func TestRHTemperatureIsPressureOverDensity(t *testing.T) {
	f := func(seed uint8) bool {
		m := 1.1 + float64(seed)/32
		tr := RHTemperatureRatio(m, 1.4)
		return math.Abs(tr-RHPressureRatio(m, 1.4)/RHDensityRatio(m, 1.4)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreestreamDerivedQuantities(t *testing.T) {
	f := Freestream{Mach: 4, Cm: 0.125, Lambda: 0.5, Gamma: GammaDiatomic}
	if math.Abs(f.SoundSpeed()-0.125*math.Sqrt(0.7)) > 1e-12 {
		t.Errorf("SoundSpeed = %v", f.SoundSpeed())
	}
	if math.Abs(f.Velocity()-4*f.SoundSpeed()) > 1e-12 {
		t.Errorf("Velocity")
	}
	if math.Abs(f.MeanSpeed()-2/math.SqrtPi*0.125) > 1e-12 {
		t.Errorf("MeanSpeed")
	}
	if math.Abs(f.ComponentSigma()-0.125/math.Sqrt2) > 1e-12 {
		t.Errorf("ComponentSigma")
	}
}

func TestSelectionPInf(t *testing.T) {
	f := Freestream{Mach: 4, Cm: 0.125, Lambda: 0.5, Gamma: GammaDiatomic}
	want := f.MeanSpeed() / 0.5
	if got := f.SelectionPInf(); math.Abs(got-want) > 1e-12 {
		t.Errorf("SelectionPInf = %v, want %v", got, want)
	}
	// Near-continuum: every candidate collides.
	nc := Freestream{Mach: 4, Cm: 0.125, Lambda: 0, Gamma: GammaDiatomic}
	if nc.SelectionPInf() != 1 {
		t.Errorf("near-continuum P must be 1")
	}
	if err := nc.ValidateTimeStep(); err != nil {
		t.Errorf("near-continuum exempt from time-step constraint: %v", err)
	}
}

func TestValidateTimeStep(t *testing.T) {
	ok := Freestream{Mach: 4, Cm: 0.125, Lambda: 0.5, Gamma: GammaDiatomic}
	if err := ok.ValidateTimeStep(); err != nil {
		t.Errorf("cm=0.125, λ=0.5 satisfies Δt ≤ t_c/3: %v", err)
	}
	bad := Freestream{Mach: 4, Cm: 0.5, Lambda: 0.5, Gamma: GammaDiatomic}
	if err := bad.ValidateTimeStep(); err != ErrTimeStepTooLarge {
		t.Errorf("cm=0.5, λ=0.5 violates the constraint, got %v", err)
	}
}
