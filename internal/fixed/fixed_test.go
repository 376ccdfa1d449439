package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.1415926, -127.75, 255.999, -255.999}
	for _, f := range cases {
		x := FromFloat(f)
		if got := x.Float(); math.Abs(got-f) > 1.0/(1<<FracBits) {
			t.Errorf("round trip %v -> %v, err %g", f, got, got-f)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(1e9) != Max {
		t.Errorf("positive overflow must saturate to Max")
	}
	if FromFloat(-1e9) != Min {
		t.Errorf("negative overflow must saturate to Min")
	}
}

func TestFromInt(t *testing.T) {
	if FromInt(3) != 3<<FracBits {
		t.Errorf("FromInt(3) = %v", FromInt(3))
	}
	if FromInt(1000) != Max {
		t.Errorf("FromInt(1000) must saturate")
	}
	if FromInt(-1000) != Min {
		t.Errorf("FromInt(-1000) must saturate")
	}
	if FromInt(-5).Float() != -5 {
		t.Errorf("FromInt(-5) = %v", FromInt(-5).Float())
	}
}

func TestIntTruncatesDownward(t *testing.T) {
	if FromFloat(3.75).Int() != 3 {
		t.Errorf("Int(3.75) = %d", FromFloat(3.75).Int())
	}
	if FromFloat(-0.25).Int() != -1 {
		t.Errorf("Int(-0.25) = %d, want -1 (floor semantics)", FromFloat(-0.25).Int())
	}
}

func TestAddSubProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Fix(a)/4, Fix(b)/4 // keep clear of saturation
		return Add(x, y) == x+y && Sub(x, y) == x-y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSaturates(t *testing.T) {
	if Add(Max, FromInt(1)) != Max {
		t.Errorf("Add overflow must saturate")
	}
	if Sub(Min, FromInt(1)) != Min {
		t.Errorf("Sub underflow must saturate")
	}
}

func TestMulMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := rng.Float64()*20 - 10
		b := rng.Float64()*20 - 10
		got := Mul(FromFloat(a), FromFloat(b)).Float()
		if math.Abs(got-a*b) > 4.0/(1<<FracBits)*math.Max(1, math.Abs(a)+math.Abs(b)) {
			t.Fatalf("Mul(%g,%g) = %g, want %g", a, b, got, a*b)
		}
	}
}

// TestHalfStochasticUnbiased verifies the paper's claim: adding 0 or 1 with
// uniform probability after the truncating division by 2 achieves correct
// rounding in the statistical sense, i.e. E[HalfStochastic(x)] = x/2.
func TestHalfStochasticUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, x := range []Fix{1, 3, -1, -3, 12345, -98765, FromInt(1) + 1} {
		const n = 200000
		var sum int64
		for i := 0; i < n; i++ {
			sum += int64(HalfStochastic(x, uint32(rng.Int63()&1)))
		}
		mean := float64(sum) / n
		want := float64(x) / 2
		if math.Abs(mean-want) > 0.01 {
			t.Errorf("E[HalfStochastic(%d)] = %v, want %v", x, mean, want)
		}
	}
}

func TestHalfStochasticEvenExact(t *testing.T) {
	// Even inputs need no dither; both random bits must give the exact half.
	for _, x := range []Fix{0, 2, -4, 1 << 20} {
		if HalfStochastic(x, 0) != x/2 || HalfStochastic(x, 1) != x/2 {
			t.Errorf("HalfStochastic(%d) not exact on even input", x)
		}
	}
}

// TestConsistentTruncationLosesEnergy demonstrates the failure mode the paper
// describes: repeated truncating halving is biased low, while the stochastic
// version is not. This is the stagnation-region energy-loss mechanism.
func TestConsistentTruncationLosesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 50000
	var truncSum, stochSum, exactSum float64
	for i := 0; i < n; i++ {
		x := Fix(rng.Int31n(1000) + 1)
		truncSum += float64(x >> 1) // the bit-serial shift, floor(x/2)
		stochSum += float64(HalfStochastic(x, uint32(rng.Int63()&1)))
		exactSum += float64(x) / 2
	}
	truncBias := (exactSum - truncSum) / n
	stochBias := math.Abs(exactSum-stochSum) / n
	if truncBias < 0.2 {
		t.Errorf("expected consistent truncation to be biased low by ~0.25 LSB, got %v", truncBias)
	}
	if stochBias > 0.05 {
		t.Errorf("stochastic rounding should be unbiased, residual %v", stochBias)
	}
}

func TestDirtyBits(t *testing.T) {
	x := Fix(0b101101101)
	if DirtyBits(x, 3) != 0b110 {
		t.Errorf("DirtyBits skips the lowest bit: got %b", DirtyBits(x, 3))
	}
	if DirtyBits(x, 23) >= 1<<23 {
		t.Errorf("DirtyBits must mask to n bits")
	}
}

func TestScaleNeg(t *testing.T) {
	if Scale(FromInt(1), 3) != 3*FromInt(1) {
		t.Errorf("Scale")
	}
	if Scale(Max, 2) != Max {
		t.Errorf("Scale must saturate")
	}
	if Neg(FromInt(-3)) != FromInt(3) {
		t.Errorf("Neg")
	}
	if Neg(Min) != Max {
		t.Errorf("Neg of Min must saturate to Max")
	}
}
