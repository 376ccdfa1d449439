package engine

import (
	"math"
	"testing"

	"dsmc/internal/collide"
	"dsmc/internal/kernel"
	"dsmc/internal/molec"
	"dsmc/internal/rng"
)

// oracleWhole and oracleSpeeds are the two append loops selColSplitShard
// ran before its pick loops went branch-free, kept as they were: the
// cell-constant probability's switch, and the speed-dependent rule's
// accept-or-draw.
func oracleWhole(picks []kernel.Pick, r *rng.Stream, lo, npairs int, c int32, p float64) []kernel.Pick {
	switch {
	case p >= 1:
		for k := 0; k < npairs; k++ {
			picks = append(picks, kernel.Pick{A: int32(lo + 2*k), C: c})
		}
	case p > 0:
		for k := 0; k < npairs; k++ {
			if r.Float64() < p {
				picks = append(picks, kernel.Pick{A: int32(lo + 2*k), C: c})
			}
		}
	}
	return picks
}

func oracleSpeeds(picks []kernel.Pick, r *rng.Stream, lo int, c int32, p float64, g []float64, rule *collide.Rule) []kernel.Pick {
	for k := range g {
		pp := p * rule.Model.GFactor(g[k]/rule.GInf)
		if pp >= 1 || r.Float64() < pp {
			picks = append(picks, kernel.Pick{A: int32(lo + 2*k), C: c})
		}
	}
	return picks
}

// pickProbs are the probabilities every path must get right: zero, the
// smallest that draws, a fair coin, the largest below one, one, above
// one, and NaN (which draws and rejects where the rule is per pair).
var pickProbs = []float64{0, 1e-300, 0.5, 1 - 0x1p-53, 1, 1.5, math.NaN()}

// checkPicks runs one step's cells through pickWhole and pickSpeeds and
// their oracles: a cell's pair count, its probability (one of pickProbs,
// or p) and its speeds come from seed. After every cell the picks and the
// select stream's state must be the oracle's, and no slot past the one
// after the last pick kept may have been written. The buffer starts with
// room for four picks, so a large cell grows it.
func checkPicks(t *testing.T, seed uint64, p float64, cells, maxPairs int) {
	t.Helper()
	src := rng.NewStream(seed)
	rule := collide.Rule{Model: molec.VHS(0.75), GInf: 1}
	sentinel := kernel.Pick{A: -7, C: -7}
	var gotW, wantW, gotS, wantS []kernel.Pick
	gotW, gotS = make([]kernel.Pick, 0, 4), make([]kernel.Pick, 0, 4)
	lo := 0
	for c := int32(0); c < int32(cells); c++ {
		npairs := src.Intn(maxPairs + 1)
		pc := p
		if k := src.Intn(len(pickProbs) + 1); k < len(pickProbs) {
			pc = pickProbs[k]
		}
		g := make([]float64, npairs)
		for k := range g {
			switch src.Intn(4) {
			case 0:
				g[k] = rule.GInf // factor 1: pp is pc itself
			case 1:
				g[k] = 0 // factor 0
			default:
				g[k] = 3 * src.Float64()
			}
		}
		key := rng.KeyAt(seed, uint64(c))
		for _, path := range []struct {
			name      string
			got, want *[]kernel.Pick
			run       func(got, want []kernel.Pick, r, o *rng.Stream) ([]kernel.Pick, []kernel.Pick)
		}{
			{"whole", &gotW, &wantW, func(got, want []kernel.Pick, r, o *rng.Stream) ([]kernel.Pick, []kernel.Pick) {
				return pickWhole(got, r, lo, npairs, c, pc), oracleWhole(want, o, lo, npairs, c, pc)
			}},
			{"speeds", &gotS, &wantS, func(got, want []kernel.Pick, r, o *rng.Stream) ([]kernel.Pick, []kernel.Pick) {
				return pickSpeeds(got, r, lo, c, pc, g, &rule), oracleSpeeds(want, o, lo, c, pc, g, &rule)
			}},
		} {
			got := reservePicks(*path.got, npairs)
			spare := got[len(got):cap(got)]
			for i := range spare {
				spare[i] = sentinel
			}
			r, o := key.At(uint64(c)), key.At(uint64(c))
			got, want := path.run(got, *path.want, &r, &o)
			if len(got) != len(want) {
				t.Fatalf("%s: cell %d (%d pairs, p %v): %d picks, oracle %d", path.name, c, npairs, pc, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: cell %d (%d pairs, p %v): pick %d is %v, oracle %v", path.name, c, npairs, pc, i, got[i], want[i])
				}
			}
			if r.State() != o.State() {
				t.Fatalf("%s: cell %d (%d pairs, p %v): stream state %+v, oracle %+v", path.name, c, npairs, pc, r.State(), o.State())
			}
			for i, pk := range got[len(got):cap(got)] {
				if i > 0 && pk != sentinel {
					t.Fatalf("%s: cell %d (%d pairs, p %v): slot %d past the last pick written", path.name, c, npairs, pc, i)
				}
			}
			*path.got, *path.want = got, want
		}
		lo += 2*npairs + src.Intn(2)
	}
}

// FuzzSelectPicks holds the branch-free pick loops to the append loops
// they replaced (oracleWhole, oracleSpeeds): the same picks, the same
// stream state after every cell, the cell-constant path and the
// speed-dependent one, at every probability in pickProbs and at the
// fuzzed one, with cells that outgrow the buffer.
func FuzzSelectPicks(f *testing.F) {
	for i, p := range pickProbs {
		f.Add(uint64(i), p, uint8(12), uint16(40))
	}
	f.Add(uint64(99), 0.3, uint8(3), uint16(1000)) // cells far larger than the buffer's room
	f.Fuzz(func(t *testing.T, seed uint64, p float64, cells uint8, maxPairs uint16) {
		checkPicks(t, seed, p, int(cells), int(maxPairs%2048))
	})
}
