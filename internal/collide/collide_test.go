package collide

import (
	"math"
	"testing"
	"testing/quick"

	"dsmc/internal/molec"
	"dsmc/internal/rng"
)

func randomPair(r *rng.Stream) (State5, State5) {
	var a, b State5
	for i := range a {
		a[i] = r.Gaussian(0, 1)
		b[i] = r.Gaussian(0.5, 1)
	}
	return a, b
}

// TestCollideConservesInvariants is the central correctness property:
// eq. 18 of the paper guarantees momentum and energy conservation for any
// permutation and sign assignment, and the float64 construction is exact
// up to rounding.
func TestCollideConservesInvariants(t *testing.T) {
	r := rng.NewStream(1)
	for i := 0; i < 5000; i++ {
		a, b := randomPair(&r)
		momBefore, eBefore := Invariants(&a, &b)
		perm := rng.RandomPerm5(&r)
		Collide(&a, &b, perm, r.Uint32())
		momAfter, eAfter := Invariants(&a, &b)
		for k := 0; k < 3; k++ {
			if math.Abs(momAfter[k]-momBefore[k]) > 1e-12 {
				t.Fatalf("momentum[%d] drift %g", k, momAfter[k]-momBefore[k])
			}
		}
		if math.Abs(eAfter-eBefore) > 1e-12*math.Max(1, eBefore) {
			t.Fatalf("energy drift %g", eAfter-eBefore)
		}
	}
}

func TestCollideIdentityPermNoSigns(t *testing.T) {
	// Identity permutation with no sign flips must leave the pair unchanged.
	r := rng.NewStream(2)
	a, b := randomPair(&r)
	a0, b0 := a, b
	Collide(&a, &b, rng.IdentityPerm5, 0)
	for i := 0; i < 5; i++ {
		if math.Abs(a[i]-a0[i]) > 1e-15 || math.Abs(b[i]-b0[i]) > 1e-15 {
			t.Fatalf("identity collision changed the state")
		}
	}
}

func TestCollideSignFlipSwapsPair(t *testing.T) {
	// Identity permutation with all five signs flipped exchanges the two
	// particles' states (a gains -rel/2 instead of +rel/2).
	r := rng.NewStream(3)
	a, b := randomPair(&r)
	a0, b0 := a, b
	Collide(&a, &b, rng.IdentityPerm5, 0x1f)
	for i := 0; i < 5; i++ {
		if math.Abs(a[i]-b0[i]) > 1e-15 || math.Abs(b[i]-a0[i]) > 1e-15 {
			t.Fatalf("full sign flip must swap the pair")
		}
	}
}

func TestRelMeanReconstructRoundTrip(t *testing.T) {
	f := func(a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 float64) bool {
		clamp := func(x float64) float64 { return math.Mod(x, 100) }
		a := State5{clamp(a0), clamp(a1), clamp(a2), clamp(a3), clamp(a4)}
		b := State5{clamp(b0), clamp(b1), clamp(b2), clamp(b3), clamp(b4)}
		rel, mean := RelMean(&a, &b)
		var a2v, b2v State5
		Reconstruct(&a2v, &b2v, &rel, &mean)
		for i := 0; i < 5; i++ {
			if math.Abs(a2v[i]-a[i]) > 1e-12 || math.Abs(b2v[i]-b[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransRelSpeed(t *testing.T) {
	a := State5{3, 0, 0, 9, 9}
	b := State5{0, 4, 0, -9, -9}
	if got := TransRelSpeed(&a, &b); math.Abs(got-5) > 1e-12 {
		t.Errorf("g = %v, want 5 (rotational components must not enter)", got)
	}
}

func TestRuleMaxwellDensityScaling(t *testing.T) {
	rule := Rule{Model: molec.Maxwell(), PInf: 0.25, NInf: 30, GInf: 1}
	// Freestream cell: P = PInf.
	if got := rule.Prob(30, 1, 2.5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("freestream P = %v, want 0.25", got)
	}
	// Double density doubles P (eq. 8).
	if got := rule.Prob(60, 1, 0.1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("doubled density P = %v, want 0.5", got)
	}
	// Fractional cell volume raises the density (the paper's special
	// allowance for wedge-cut cells).
	if got := rule.Prob(30, 0.5, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half-volume cell P = %v, want 0.5", got)
	}
}

func TestRuleHardSphereSpeedScaling(t *testing.T) {
	rule := Rule{Model: molec.HardSphere(), PInf: 0.1, NInf: 10, GInf: 2}
	if got := rule.Prob(10, 1, 4); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("hard-sphere P = %v, want 0.2 (g/g∞ = 2)", got)
	}
}

func TestRuleClampsToUnity(t *testing.T) {
	rule := Rule{Model: molec.Maxwell(), PInf: 0.5, NInf: 10, GInf: 1}
	if got := rule.Prob(1000, 1, 1); got != 1 {
		t.Errorf("P must clamp to 1, got %v", got)
	}
}

func TestRuleNearContinuumCollideAll(t *testing.T) {
	rule := Rule{Model: molec.Maxwell(), CollideAll: true}
	if rule.Prob(2, 1, 0.001) != 1 {
		t.Errorf("near-continuum mode must collide every candidate")
	}
}

func TestRuleDegenerateCells(t *testing.T) {
	rule := Rule{Model: molec.Maxwell(), PInf: 0.25, NInf: 30, GInf: 1}
	if rule.Prob(0, 1, 1) != 0 {
		t.Errorf("empty cell must not collide")
	}
	if rule.Prob(10, 0, 1) != 0 {
		t.Errorf("zero-volume cell must not collide")
	}
}

func TestVibExchangeConserves(t *testing.T) {
	r := rng.NewStream(8)
	for i := 0; i < 2000; i++ {
		eTr := r.Float64() * 3
		eA := r.Float64()
		eB := r.Float64()
		nTr, nA, nB := VibExchange(eTr, eA, eB, 1, &r)
		if math.Abs((nTr+nA+nB)-(eTr+eA+eB)) > 1e-12 {
			t.Fatalf("vibrational exchange must conserve energy")
		}
		if nTr < 0 || nA < 0 || nB < 0 {
			t.Fatalf("negative energy after exchange")
		}
	}
}

func TestVibExchangeRespectsZVib(t *testing.T) {
	r := rng.NewStream(9)
	unchanged := 0
	const n = 10000
	for i := 0; i < n; i++ {
		_, nA, _ := VibExchange(1, 0.3, 0.3, 5, &r)
		if nA == 0.3 {
			unchanged++
		}
	}
	// With zVib = 5 about 80% of collisions skip the exchange.
	if f := float64(unchanged) / n; math.Abs(f-0.8) > 0.02 {
		t.Errorf("exchange skip fraction = %v, want 0.8", f)
	}
}

// TestCollideRandomizesDirections: after many collisions of an initially
// anisotropic ensemble, the translational components must share energy
// (the permutation mixes components), demonstrating why the permutation
// mechanism thermalises the gas.
func TestCollideRandomizesDirections(t *testing.T) {
	r := rng.NewStream(10)
	const n = 4000
	parts := make([]State5, n)
	for i := range parts {
		parts[i][0] = r.Gaussian(0, 2) // all energy in x initially
	}
	var e [5]float64
	for step := 0; step < 300; step++ {
		for i := 0; i+1 < n; i += 2 {
			j := i + 1 + r.Intn(n-i-1)
			perm := rng.RandomPerm5(&r)
			Collide(&parts[i], &parts[j], perm, r.Uint32())
		}
		if step >= 100 { // time-average the equilibrated tail
			for i := range parts {
				for k := 0; k < 5; k++ {
					e[k] += parts[i][k] * parts[i][k]
				}
			}
		}
	}
	mean := (e[0] + e[1] + e[2] + e[3] + e[4]) / 5
	for k := 0; k < 5; k++ {
		if math.Abs(e[k]-mean)/mean > 0.05 {
			t.Errorf("component %d energy %v deviates from equipartition %v", k, e[k], mean)
		}
	}
}

// probRef is Rule.Prob as it stood before the per-cell entry point: the
// whole rule evaluated for one candidate pair. Kept verbatim as the
// oracle CellProb and the rewritten Prob must reproduce bit for bit.
func probRef(r Rule, cellCount int, cellVolume, g float64) float64 {
	if r.CollideAll {
		return 1
	}
	if cellVolume <= 0 || cellCount <= 0 {
		return 0
	}
	n := float64(cellCount) / cellVolume
	p := r.PInf * (n / r.NInf) * r.Model.GFactor(g/r.GInf)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// TestCellProbMatchesPerPairRule: for every model, over random cells
// including the degenerate ones (no volume, no population) and the clamp
// at 1, the per-cell path — CellProb, completed per pair the way the
// engine's select loops complete it — is the parent's per-pair rule bit
// for bit, and so is Prob.
func TestCellProbMatchesPerPairRule(t *testing.T) {
	rules := []Rule{
		{Model: molec.Maxwell(), PInf: 0.25, NInf: 30, GInf: 1.3},
		{Model: molec.Maxwell(), PInf: 0.25, NInf: 30, GInf: 1.3, CollideAll: true},
		{Model: molec.HardSphere(), PInf: 0.25, NInf: 30, GInf: 1.3},
		{Model: molec.VHS(0.75), PInf: 0.4, NInf: 8, GInf: 0.7},
		{Model: molec.PowerLaw(8), PInf: 0.1, NInf: 4, GInf: 2.1},
		{Model: molec.Maxwell(), PInf: 0, NInf: 0, GInf: 1},           // 0·Inf: NaN passes through
		{Model: molec.HardSphere(), PInf: -0.25, NInf: 30, GInf: 1.3}, // negative product clamps to 0
	}
	r := rng.NewStream(2024)
	for ri, rule := range rules {
		wantWhole := rule.CollideAll || rule.Model.GExp == 0
		for trial := 0; trial < 20000; trial++ {
			count := r.Intn(400) - 20 // some <= 0
			vol := 1.5*r.Float64() - 0.1
			switch trial % 16 {
			case 0:
				vol = 0
			case 1:
				vol = 1
			case 2:
				vol = 1e-6 // saturates the clamp
			}
			g := 6 * r.Float64()
			if trial%32 == 3 {
				g = 0
			}
			want := math.Float64bits(probRef(rule, count, vol, g))
			if got := math.Float64bits(rule.Prob(count, vol, g)); got != want {
				t.Fatalf("rule %d: Prob(%d, %v, %v) = %#x, reference %#x", ri, count, vol, g, got, want)
			}
			p, whole := rule.CellProb(count, vol)
			if degenerate := vol <= 0 || count <= 0; whole != (wantWhole || degenerate) {
				t.Fatalf("rule %d: CellProb(%d, %v) whole = %v", ri, count, vol, whole)
			}
			if !whole {
				// The select loops compare the product unclamped: it must
				// skip the draw exactly where the rule saturates, and accept
				// a draw exactly where the clamped probability would.
				pp := p * rule.Model.GFactor(g/rule.GInf)
				ref := math.Float64frombits(want)
				u := r.Float64()
				if (pp >= 1) != (ref == 1) || (u < pp) != (u < ref) && ref != 1 {
					t.Fatalf("rule %d: unclamped %v decides differently from %v at u = %v", ri, pp, ref, u)
				}
				p = clamp01(pp)
			}
			if got := math.Float64bits(p); got != want {
				t.Fatalf("rule %d: per-cell path (%d, %v, %v) = %#x, reference %#x", ri, count, vol, g, got, want)
			}
		}
	}
}

// RelMean decomposes a candidate pair into relative and mean components:
// mean[i] = (a[i]+b[i])/2, rel[i] = a[i]-b[i] (eqs. 12–15). It was
// Collide's first pass; with Reconstruct it is the reference's frame.
func RelMean(a, b *State5) (rel, mean State5) {
	for i := 0; i < 5; i++ {
		rel[i] = a[i] - b[i]
		mean[i] = (a[i] + b[i]) / 2
	}
	return rel, mean
}

// Reconstruct forms the post-collision particle states from the permuted
// relative components and the (unchanged) mean: a' = mean + rel'/2,
// b' = mean − rel'/2. It was Collide's last pass until Collide folded it
// in; it stays here as the other half of the reference.
func Reconstruct(a, b *State5, rel, mean *State5) {
	for i := 0; i < 5; i++ {
		h := rel[i] / 2
		a[i] = mean[i] + h
		b[i] = mean[i] - h
	}
}

// collideRef is Collide as it stood before the sign flip went branch-free
// and the three passes were folded into one: the reference the rewrite
// must reproduce bit for bit.
func collideRef(a, b *State5, perm rng.Perm5, signs uint32) {
	rel, mean := RelMean(a, b)
	var newRel State5
	for i, j := range perm {
		v := rel[j]
		if signs>>uint(i)&1 == 1 {
			v = -v
		}
		newRel[i] = v
	}
	Reconstruct(a, b, &newRel, &mean)
}

// TestCollideMatchesBranchingReference: all 120 permutations × all 32
// sign masks, over random states salted with the values where "flip the
// sign bit" and "negate" could conceivably part ways — signed zeros,
// subnormals, infinities, NaNs with a payload — agree with the reference
// in every bit of every component, the sign and payload of NaN results
// included.
func TestCollideMatchesBranchingReference(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3e-310,
		math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.NaN(), math.Float64frombits(0x7ff8000000abcdef), math.Float64frombits(0xfff4000000000001),
	}
	r := rng.NewStream(1989)
	for _, perm := range rng.Perm5Table() {
		for signs := uint32(0); signs < 32; signs++ {
			for trial := 0; trial < 12; trial++ {
				a, b := randomPair(&r)
				// Trial 0 is all-finite; later trials plant 1–3 specials.
				for k := 0; k < trial%4; k++ {
					v := special[r.Intn(len(special))]
					if r.Intn(2) == 0 {
						a[r.Intn(5)] = v
					} else {
						b[r.Intn(5)] = v
					}
				}
				// Bits above the five used must be ignored.
				mask := signs | uint32(trial)<<5
				wa, wb := a, b
				collideRef(&wa, &wb, perm, mask)
				ga, gb := a, b
				Collide(&ga, &gb, perm, mask)
				for i, j := range perm {
					// When two NaNs meet in one commutative add — both inputs
					// of the mean, or the mean and the permuted relative
					// component — the result's sign and payload are those of
					// whichever operand the compiler happened to put first
					// (x86 returns the first source), which the language does
					// not fix: there, and only there, NaN-ness is compared.
					nan := math.IsNaN
					if nan(a[i]) && nan(b[i]) || nan(a[i]+b[i]) && nan(a[j]-b[j]) {
						if !nan(ga[i]) || !nan(gb[i]) || !nan(wa[i]) || !nan(wb[i]) {
							t.Fatalf("perm %v signs %#x on a=%v b=%v: component %d = (%v, %v), reference (%v, %v)",
								perm, mask, a, b, i, ga[i], gb[i], wa[i], wb[i])
						}
						continue
					}
					if math.Float64bits(ga[i]) != math.Float64bits(wa[i]) || math.Float64bits(gb[i]) != math.Float64bits(wb[i]) {
						t.Fatalf("perm %v signs %#x on a=%v b=%v: component %d = (%#x, %#x), reference (%#x, %#x)",
							perm, mask, a, b, i,
							math.Float64bits(ga[i]), math.Float64bits(gb[i]),
							math.Float64bits(wa[i]), math.Float64bits(wb[i]))
					}
				}
			}
		}
	}
}

// referenceCollide is Collide as it stood before it was unrolled: one
// loop over perm on copies of both states. The straight-line Collide
// must reproduce it bit for bit (TestCollideMatchesLoopReference).
func referenceCollide(a, b *State5, perm rng.Perm5, signs uint32) {
	a0, b0 := *a, *b
	for i, j := range perm {
		rel := a0[j] - b0[j]
		mean := (a0[i] + b0[i]) / 2
		flip := uint64(signs>>uint(i)&1) << 63
		h := math.Float64frombits(math.Float64bits(rel)^flip) / 2
		a[i] = mean + h
		b[i] = mean - h
	}
}

// hardComponent draws a velocity component that is, in turn, a signed
// zero, a subnormal, a magnitude near 1e300 or a standard normal.
func hardComponent(r *rng.Stream) float64 {
	sign := math.Float64frombits(uint64(r.Bit()) << 63)
	switch r.Intn(6) {
	case 0:
		return sign
	case 1:
		return math.Copysign(math.Float64frombits(r.Uint64()&(1<<52-1)|1), sign)
	case 2:
		return math.Copysign((1+r.Float64())*1e300, sign)
	default:
		return r.Normal()
	}
}

// TestCollideMatchesLoopReference: all 120 permutations × all 32 sign
// masks (with junk above the five used bits), over pairs mixing signed
// zeros, subnormals, magnitudes near 1e300 and random normals, the
// straight-line Collide equals the loop it replaced in every bit.
func TestCollideMatchesLoopReference(t *testing.T) {
	r := rng.NewStream(34)
	for _, perm := range rng.Perm5Table() {
		for signs := uint32(0); signs < 32; signs++ {
			for trial := 0; trial < 16; trial++ {
				var a, b State5
				for i := range a {
					a[i], b[i] = hardComponent(&r), hardComponent(&r)
				}
				mask := signs | r.Uint32()<<5
				wa, wb := a, b
				referenceCollide(&wa, &wb, perm, mask)
				ga, gb := a, b
				Collide(&ga, &gb, perm, mask)
				for i := range ga {
					if math.Float64bits(ga[i]) != math.Float64bits(wa[i]) || math.Float64bits(gb[i]) != math.Float64bits(wb[i]) {
						t.Fatalf("perm %v signs %#x on a=%v b=%v: component %d = (%v, %v), reference (%v, %v)",
							perm, mask, a, b, i, ga[i], gb[i], wa[i], wb[i])
					}
				}
			}
		}
	}
}
