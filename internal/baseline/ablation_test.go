package baseline

import (
	"math"
	"testing"

	"dsmc/internal/collide"
	"dsmc/internal/molec"
	"dsmc/internal/rng"
	"dsmc/internal/stats"
)

// TestAblationFixedPairingCorrelates demonstrates the failure mode the
// paper's sort randomisation prevents: "it is important that candidate
// partners change between time steps otherwise the situation arises where
// the same partners collide repeatedly leading to correlated velocity
// distributions."
//
// With the pairing frozen, each pair equilibrates only on its own energy
// shell: partner velocities become correlated and the ensemble never
// reaches the Gaussian (kurtosis 3). With the paper's per-step reshuffle
// the same scheme Maxwellises.
func TestAblationFixedPairingCorrelates(t *testing.T) {
	rule := collide.Rule{Model: molec.Maxwell(), CollideAll: true}
	const n = 20000
	const steps = 30

	// Frozen pairing.
	r1 := rng.NewStream(5)
	frozen := RectangularEnsemble(n, 0.25, &r1)
	RelaxFixedPairing(NewBM(), frozen, 1, rule, steps, &r1)
	// Correlation of the translational speed magnitude between partners.
	speed := func(v *collide.State5) float64 {
		return math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
	}
	var xs, ys []float64
	for i := 0; i+1 < n; i += 2 {
		xs = append(xs, speed(&frozen[i]))
		ys = append(ys, speed(&frozen[i+1]))
	}
	frozenCorr := stats.PairCorrelation(xs, ys)

	// Reshuffled pairing (the paper's behaviour).
	r2 := rng.NewStream(5)
	mixed := RectangularEnsemble(n, 0.25, &r2)
	Relax(NewBM(), mixed, 1, rule, steps, &r2)
	xs, ys = xs[:0], ys[:0]
	for i := 0; i+1 < n; i += 2 {
		xs = append(xs, speed(&mixed[i]))
		ys = append(ys, speed(&mixed[i+1]))
	}
	mixedCorr := stats.PairCorrelation(xs, ys)

	// Frozen pairs share a fixed energy budget, so partner speeds become
	// anti-correlated (one fast, the other slow) — the correlated velocity
	// distribution the paper warns about.
	if frozenCorr > -0.15 {
		t.Errorf("frozen pairing should anti-correlate partner speeds, got r = %v", frozenCorr)
	}
	if math.Abs(mixedCorr) > 0.05 {
		t.Errorf("reshuffled pairing must decorrelate partners, got r = %v", mixedCorr)
	}

	// And the frozen ensemble's velocity distribution is wrong: each pool
	// component stays pinned to its pair shell. Compare kurtosis.
	frozenKurt := MeasureMoments(frozen).Kurtosis
	mixedKurt := MeasureMoments(mixed).Kurtosis
	if math.Abs(mixedKurt-3) > 0.1 {
		t.Errorf("reshuffled relaxation must reach kurtosis 3, got %v", mixedKurt)
	}
	if math.Abs(frozenKurt-3) < 2*math.Abs(mixedKurt-3) {
		t.Errorf("frozen pairing should visibly miss the Gaussian: frozen %v vs mixed %v",
			frozenKurt, mixedKurt)
	}
}

// TestAblationKSConfirmsMaxwellisation uses the Kolmogorov–Smirnov test
// to confirm that the reshuffled relaxation produces a bona fide
// Maxwellian speed distribution while the frozen one is rejected.
func TestAblationKSConfirmsMaxwellisation(t *testing.T) {
	rule := collide.Rule{Model: molec.Maxwell(), CollideAll: true}
	const n = 20000
	const sigma = 0.25
	cm := sigma * math.Sqrt2

	speeds := func(parts []collide.State5) []float64 {
		out := make([]float64, len(parts))
		for i := range parts {
			out[i] = math.Sqrt(parts[i][0]*parts[i][0] + parts[i][1]*parts[i][1] + parts[i][2]*parts[i][2])
		}
		return out
	}

	r := rng.NewStream(9)
	mixed := RectangularEnsemble(n, sigma, &r)
	Relax(NewBM(), mixed, 1, rule, 30, &r)
	d := stats.KolmogorovSmirnov(speeds(mixed), stats.MaxwellSpeedCDF(cm))
	if d > 1.5*stats.KSCritical999(n) {
		t.Errorf("relaxed speeds fail the Maxwell KS test: D = %v", d)
	}

	r2 := rng.NewStream(9)
	frozen := RectangularEnsemble(n, sigma, &r2)
	RelaxFixedPairing(NewBM(), frozen, 1, rule, 30, &r2)
	dFrozen := stats.KolmogorovSmirnov(speeds(frozen), stats.MaxwellSpeedCDF(cm))
	if dFrozen < 3*stats.KSCritical999(n) {
		t.Errorf("frozen pairing should be rejected by the KS test: D = %v", dFrozen)
	}
}
