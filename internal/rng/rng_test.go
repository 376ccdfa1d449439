package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamsIndependence(t *testing.T) {
	ss := Streams(42, 4)
	a, b := ss[0].Uint64(), ss[1].Uint64()
	if a == b {
		t.Errorf("adjacent streams produced identical first output")
	}
}

func TestStreamsDeterministic(t *testing.T) {
	s1 := Streams(7, 3)
	s2 := Streams(7, 3)
	for i := range s1 {
		if s1[i].Uint64() != s2[i].Uint64() {
			t.Errorf("stream %d not reproducible", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewStream(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewStream(2)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[r.Intn(5)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(5) biased: count[%d] = %d", v, c)
		}
	}
}

func TestBit(t *testing.T) {
	r := NewStream(3)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		b := r.Bit()
		if b > 1 {
			t.Fatalf("Bit returned %d", b)
		}
		ones += int(b)
	}
	if math.Abs(float64(ones)/n-0.5) > 0.01 {
		t.Errorf("Bit bias: %v", float64(ones)/n)
	}
}

func TestRectMoments(t *testing.T) {
	r := NewStream(4)
	const sigma = 2.5
	const n = 400000
	var sum, sum2, sum4 float64
	for i := 0; i < n; i++ {
		x := r.Rect(sigma)
		sum += x
		sum2 += x * x
		sum4 += x * x * x * x
	}
	mean := sum / n
	variance := sum2 / n
	kurt := (sum4 / n) / (variance * variance)
	if math.Abs(mean) > 0.02 {
		t.Errorf("Rect mean = %v", mean)
	}
	if math.Abs(variance-sigma*sigma) > 0.1 {
		t.Errorf("Rect variance = %v, want %v", variance, sigma*sigma)
	}
	// Uniform distribution kurtosis is 9/5; this is what distinguishes the
	// reservoir's rectangular velocities from a relaxed Gaussian (kurt 3).
	if math.Abs(kurt-1.8) > 0.05 {
		t.Errorf("Rect kurtosis = %v, want 1.8", kurt)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewStream(5)
	const n = 400000
	var sum, sum2, sum3, sum4 float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sum2 += x * x
		sum3 += x * x * x
		sum4 += x * x * x * x
	}
	if math.Abs(sum/n) > 0.01 {
		t.Errorf("Normal mean = %v", sum/n)
	}
	if math.Abs(sum2/n-1) > 0.02 {
		t.Errorf("Normal variance = %v", sum2/n)
	}
	if math.Abs(sum3/n) > 0.03 {
		t.Errorf("Normal skewness = %v", sum3/n)
	}
	if math.Abs(sum4/n-3) > 0.08 {
		t.Errorf("Normal kurtosis = %v", sum4/n)
	}
}

func TestGaussian(t *testing.T) {
	r := NewStream(6)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.Gaussian(3, 0.5)
		sum += x
		sum2 += (x - 3) * (x - 3)
	}
	if math.Abs(sum/n-3) > 0.01 {
		t.Errorf("Gaussian mean = %v", sum/n)
	}
	if math.Abs(sum2/n-0.25) > 0.01 {
		t.Errorf("Gaussian variance = %v", sum2/n)
	}
}

func TestPerm5Table(t *testing.T) {
	table := Perm5Table()
	if len(table) != 120 {
		t.Fatalf("table has %d entries, want 120", len(table))
	}
	seen := map[Perm5]bool{}
	for _, p := range table {
		if !p.Valid() {
			t.Errorf("invalid table entry %v", p)
		}
		if seen[p] {
			t.Errorf("duplicate table entry %v", p)
		}
		seen[p] = true
	}
}

func TestPerm5PackRoundTrip(t *testing.T) {
	for _, p := range Perm5Table() {
		if got := UnpackPerm5(p.Pack()); got != p {
			t.Errorf("pack round trip: %v -> %v", p, got)
		}
	}
}

func TestUnpackInvalidFallsBackToIdentity(t *testing.T) {
	// 0 packs to {0,0,0,0,0}, which is not a permutation.
	if UnpackPerm5(0) != IdentityPerm5 {
		t.Errorf("invalid packed value must decode to identity")
	}
}

func TestTransposePreservesValidity(t *testing.T) {
	f := func(j, k uint8) bool {
		p := Perm5{2, 0, 4, 1, 3}
		q := p.Transpose(int(j%5), int(k%5))
		return q.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTranspositionMixing verifies the Aldous–Diaconis claim quoted in the
// paper: repeated random top-transpositions converge to the uniform
// distribution over S5. After many transpositions the chi-square statistic
// over all 120 permutations should be consistent with uniformity.
func TestTranspositionMixing(t *testing.T) {
	r := NewStream(9)
	counts := map[Perm5]int{}
	const walkers = 6000
	const steps = 40 // well beyond n log n ~ 10
	for w := 0; w < walkers; w++ {
		p := IdentityPerm5
		for s := 0; s < steps; s++ {
			p = p.RandomTransposition(&r)
		}
		counts[p]++
	}
	if len(counts) < 110 {
		t.Fatalf("random walk visited only %d/120 permutations", len(counts))
	}
	expect := float64(walkers) / 120
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 119 dof, p=0.001 critical value ~ 173.
	if chi2 > 173 {
		t.Errorf("transposition walk not uniform: chi2 = %v", chi2)
	}
}

// TestRandomPerm5FromTable: the constant-modulus draw is the row the
// variable-modulus table[Intn(len(table))] drew, and consumes one word.
func TestRandomPerm5FromTable(t *testing.T) {
	table := Perm5Table()
	r, twin := NewStream(10), NewStream(10)
	for i := 0; i < 100000; i++ {
		got := RandomPerm5(&r)
		if want := table[twin.Intn(len(table))]; got != want {
			t.Fatalf("draw %d: RandomPerm5 = %v, table[Intn] = %v", i, got, want)
		}
	}
	if r.Uint64() != twin.Uint64() {
		t.Fatalf("RandomPerm5 consumed a different number of words")
	}
}

// streamAt is the three-round splitmix chain over (seed, epoch, lane)
// that keyed every per-cell stream before it was split into KeyAt and
// Key.At: the oracle the split must reproduce bit for bit.
func streamAt(seed, epoch, lane uint64) Stream {
	st := seed
	st = splitmix64(&st) ^ epoch
	st = splitmix64(&st) ^ lane
	return Stream{s: splitmix64(&st) | 1}
}

// TestKeyAtMatchesThreeMixFormula: a key made once and applied to a lane
// yields the stream of the three-round formula, over random coordinates
// and the edge words.
func TestKeyAtMatchesThreeMixFormula(t *testing.T) {
	r := NewStream(49)
	coords := [][3]uint64{{0, 0, 0}, {^uint64(0), ^uint64(0), ^uint64(0)}, {1988, 42, 7}}
	for i := 0; i < 10000; i++ {
		coords = append(coords, [3]uint64{r.Uint64(), r.Uint64(), r.Uint64()})
	}
	for _, c := range coords {
		got, want := KeyAt(c[0], c[1]).At(c[2]), streamAt(c[0], c[1], c[2])
		if got != want {
			t.Fatalf("KeyAt(%d, %d).At(%d) = %+v, want %+v", c[0], c[1], c[2], got, want)
		}
	}
}

func TestStreamAtDeterministic(t *testing.T) {
	a := KeyAt(1988, 42).At(7)
	b := KeyAt(1988, 42).At(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same coordinate diverged at draw %d", i)
		}
	}
}

func TestStreamAtDistinctCoordinates(t *testing.T) {
	base := KeyAt(1988, 42).At(7)
	first := base.Uint64()
	for _, other := range []Stream{
		KeyAt(1989, 42).At(7), // different seed
		KeyAt(1988, 43).At(7), // different epoch
		KeyAt(1988, 42).At(8), // different lane
		KeyAt(1988, 7).At(42), // epoch/lane swapped
	} {
		o := other
		if o.Uint64() == first {
			t.Fatalf("distinct coordinate produced identical first draw")
		}
	}
}

// TestStreamAtLaneMoments: per-lane streams at a fixed epoch must be
// statistically well-behaved in aggregate (the collide phase draws one
// stream per cell per step).
func TestStreamAtLaneMoments(t *testing.T) {
	const lanes = 4096
	var sum, sumSq float64
	for lane := uint64(0); lane < lanes; lane++ {
		r := KeyAt(3, 11).At(lane)
		u := r.Float64()
		sum += u
		sumSq += u * u
	}
	mean := sum / lanes
	if mean < 0.47 || mean > 0.53 {
		t.Errorf("first-draw mean over lanes = %v, want ~0.5", mean)
	}
	variance := sumSq/lanes - mean*mean
	if variance < 1.0/12-0.01 || variance > 1.0/12+0.01 {
		t.Errorf("first-draw variance over lanes = %v, want ~1/12", variance)
	}
}

func TestStreamAtZeroSeedValid(t *testing.T) {
	r := KeyAt(0, 0).At(0)
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 50 {
		t.Errorf("zero-coordinate stream repeated values early: %d distinct of 50", len(seen))
	}
}

func TestStreamStateRoundTrip(t *testing.T) {
	r := NewStream(42)
	r.Normal() // leave a Box–Muller spare cached
	saved := r.State()
	cont := r
	var restored Stream
	restored.SetState(saved)
	for i := 0; i < 100; i++ {
		a, b := cont.Gaussian(0, 1), restored.Gaussian(0, 1)
		if a != b {
			t.Fatalf("draw %d diverged after state restore: %v vs %v", i, a, b)
		}
	}
}

func TestJobSeedDistinct(t *testing.T) {
	const jobs = 1 << 14
	seen := make(map[uint64]uint64, jobs)
	for j := uint64(0); j < jobs; j++ {
		s := JobSeed(1988, j)
		if prev, dup := seen[s]; dup {
			t.Fatalf("jobs %d and %d derived equal seed %#x", prev, j, s)
		}
		seen[s] = j
	}
}

func TestJobSeedDeterministicAndMasterSeparated(t *testing.T) {
	if JobSeed(7, 3) != JobSeed(7, 3) {
		t.Error("JobSeed is not deterministic")
	}
	if JobSeed(7, 3) == JobSeed(8, 3) {
		t.Error("distinct masters derived equal job seeds")
	}
}
