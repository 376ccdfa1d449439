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

// The fan-in is Welford's single-pass mean and M2 update, run for each
// (quantity, cell) and each scalar over a point's replicas strictly in
// replica-index order — a left fold, so folding a point's outputs one at
// a time as its done prefix extends (the Table does) gives the bits a
// merge of the whole slice would, for any pool size and completion
// order. The fold state is the Aggregate itself: a column's Variance,
// and a scalar's, holds M2 until finish turns it into the variance and
// fills CI95.

// welfordAdd folds the n-th sample x into a running mean and M2.
func welfordAdd(n int, mean, m2 *float64, x float64) {
	d := x - *mean
	*mean += d / float64(n)
	*m2 += d * (x - *mean)
}

// spread turns the M2 of n samples into their sample variance and the
// normal-approximation 95% half-width of their mean; both are zero for
// fewer than two samples. (With the small replica counts of a typical
// ensemble this understates the Student-t interval slightly; it is a
// consistent, distribution-free-of-tables convention.)
func spread(n int, m2 float64) (variance, ci95 float64) {
	if n < 2 {
		return 0, 0
	}
	variance = m2 / float64(n-1)
	return variance, 1.96 * math.Sqrt(variance/float64(n))
}

func (s *ScalarStats) add(x float64) {
	s.N++
	welfordAdd(s.N, &s.Mean, &s.Variance, x)
}

func (s *ScalarStats) finish() { s.Variance, s.CI95 = spread(s.N, s.Variance) }

// add folds the next replica's output of the point into its aggregate.
// The first output sizes each quantity's columns; a nil output (a job
// done without one: Table.Satisfy) folds nothing. It assumes the shape
// Table.Check holds an output to: every quantity present, each column of
// the point's cell count. The coordinator's completions and stored
// outputs are checked before they get here; Run's own jobs produce that
// shape.
func (a *Aggregate) add(quantities []string, out *ReplicaResult) {
	if out == nil {
		return
	}
	a.Replicas++
	for _, q := range quantities {
		col := out.Fields[q]
		fs, ok := a.Fields[q]
		if !ok {
			n := len(col)
			fs = FieldStats{Mean: make([]float64, n), Variance: make([]float64, n), CI95: make([]float64, n)}
			a.Fields[q] = fs
		}
		for c := range fs.Mean {
			welfordAdd(a.Replicas, &fs.Mean[c], &fs.Variance[c], col[c])
		}
	}
	if math.IsNaN(out.ShockAngleDeg) {
		a.ShockAngleDeg.Dropped++
	} else {
		a.ShockAngleDeg.add(out.ShockAngleDeg)
	}
	a.Collisions.add(float64(out.Collisions))
	a.NFlow.add(float64(out.NFlow))
}

// finish completes a point's fold once its last replica is in.
func (a *Aggregate) finish(quantities []string) {
	for _, q := range quantities {
		fs := a.Fields[q]
		for c, m2 := range fs.Variance {
			fs.Variance[c], fs.CI95[c] = spread(a.Replicas, m2)
		}
	}
	a.ShockAngleDeg.finish()
	a.Collisions.finish()
	a.NFlow.finish()
}
