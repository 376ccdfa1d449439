package run

import "math"

// ScalarStats is a Welford mean/variance pair with its normal-theory
// 95% confidence half-width. N is the number of finite samples merged
// (replicas whose measurement was NaN — e.g. no shock front found — are
// excluded and counted in Dropped).
type ScalarStats struct {
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	CI95     float64 `json:"ci95"`
	N        int     `json:"n"`
	Dropped  int     `json:"dropped,omitempty"`
}

// FieldStats carries per-cell statistics across replicas.
type FieldStats struct {
	Mean     []float64 `json:"mean"`
	Variance []float64 `json:"variance"`
	CI95     []float64 `json:"ci95"`
}

// Aggregate is the fan-in result of one scenario's replicas: per-cell
// statistics for every requested quantity, keyed by quantity slug.
type Aggregate struct {
	Scenario      string                `json:"scenario"`
	Replicas      int                   `json:"replicas"`
	Fields        map[string]FieldStats `json:"fields"`
	ShockAngleDeg ScalarStats           `json:"shock_angle_deg"`
	Collisions    ScalarStats           `json:"collisions"`
	NFlow         ScalarStats           `json:"nflow"`
}

// welford is the textbook single-pass mean/M2 accumulator. Merging
// replicas strictly in index order makes every aggregate bit-identical
// regardless of pool size or completion order — the executor hands the
// fan-in the full result slice, never a stream.
type welford struct {
	n    int
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// ci95 is the normal-approximation 95% half-width of the mean; zero for
// fewer than two samples. (With the small replica counts of a typical
// ensemble this understates the Student-t interval slightly; it is a
// consistent, distribution-free-of-tables convention.)
func (w *welford) ci95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * math.Sqrt(w.variance()/float64(w.n))
}

func (w *welford) scalar(dropped int) ScalarStats {
	return ScalarStats{Mean: w.mean, Variance: w.variance(), CI95: w.ci95(), N: w.n, Dropped: dropped}
}

// aggregate fans in one scenario's replica results, merging in replica-
// index order (per quantity, so every field's statistics are bit-
// identical for any pool size). results must be fully populated (the
// executor guarantees it: a point's fan-in runs after its last replica).
func aggregate(scenario string, quantities []string, results []*ReplicaResult) *Aggregate {
	agg := &Aggregate{Scenario: scenario, Replicas: len(results), Fields: map[string]FieldStats{}}
	if len(results) == 0 {
		return agg
	}
	for _, q := range quantities {
		cells := len(results[0].Fields[q])
		field := make([]welford, cells)
		for _, r := range results {
			col := r.Fields[q]
			for c := 0; c < cells; c++ {
				field[c].add(col[c])
			}
		}
		fs := FieldStats{
			Mean:     make([]float64, cells),
			Variance: make([]float64, cells),
			CI95:     make([]float64, cells),
		}
		for c := 0; c < cells; c++ {
			fs.Mean[c] = field[c].mean
			fs.Variance[c] = field[c].variance()
			fs.CI95[c] = field[c].ci95()
		}
		agg.Fields[q] = fs
	}
	var angle, colls, nflow welford
	angleDropped := 0
	for _, r := range results {
		if math.IsNaN(r.ShockAngleDeg) {
			angleDropped++
		} else {
			angle.add(r.ShockAngleDeg)
		}
		colls.add(float64(r.Collisions))
		nflow.add(float64(r.NFlow))
	}
	agg.ShockAngleDeg = angle.scalar(angleDropped)
	agg.Collisions = colls.scalar(0)
	agg.NFlow = nflow.scalar(0)
	return agg
}
