package main

import (
	"fmt"
	"os"
	"time"

	"dsmc/internal/baseline"
	"dsmc/internal/cm"
	"dsmc/internal/collide"
	"dsmc/internal/molec"
	"dsmc/internal/particle"
	"dsmc/internal/report"
	"dsmc/internal/rng"
)

// relax compares the collision-partner selection schemes the paper
// discusses — McDonald–Baganoff (the paper's), Bird's time counter,
// Nanbu's scheme, and Ploss's O(N) reformulation — on a homogeneous
// relaxation problem: a rectangular (uniform) velocity distribution with
// kurtosis 1.8 must relax to a Gaussian with kurtosis 3.0, conserving the
// cell's energy. Then it shows the reservoir doing exactly that:
// particles removed through the downstream boundary are re-velocitied
// with a rectangular distribution (a Gaussian would need transcendental
// functions), and collisions among themselves relax them within a few
// steps — "useful work from these otherwise idle processors".
func (h *harness) relax() error {
	const (
		n     = 4000
		steps = 20
	)
	rule := collide.Rule{Model: molec.Maxwell(), PInf: 0.5, NInf: n, GInf: 1}
	table := report.NewTable(
		"Rectangular -> Gaussian relaxation (kurtosis 1.8 -> 3.0)",
		"scheme", "kurt(0)", fmt.Sprintf("kurt(%d)", steps),
		"energy drift %", "collisions", "time")
	for _, scheme := range []baseline.Scheme{
		baseline.NewBM(), baseline.NewBirdTC(), baseline.Nanbu{}, baseline.Ploss{},
	} {
		r := rng.NewStream(h.seed)
		parts := baseline.RectangularEnsemble(n, 0.25, &r)
		m0 := baseline.MeasureMoments(parts)
		t0 := time.Now()
		collisions := baseline.Relax(scheme, parts, 1, rule, steps, &r)
		dt := time.Since(t0)
		m1 := baseline.MeasureMoments(parts)
		drift := 100 * (m1.Energy - m0.Energy) / m0.Energy
		table.AddRow(scheme.Name(), m0.Kurtosis, m1.Kurtosis, drift, collisions, dt)
	}
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nnote: Nanbu and Ploss conserve energy only in the mean (the paper's")
	fmt.Println("criticism); McDonald–Baganoff and Bird conserve it in every collision.")

	fmt.Println("\nreservoir relaxation: rectangular -> Gaussian")
	r := rng.NewStream(h.seed)
	res := particle.NewReservoir(50000, 0.25)
	res.DepositN(50000, &r)
	for step := 0; step <= 10; step++ {
		_, variance, kurt := res.Moments()
		fmt.Printf("  step %2d: kurtosis %.3f (1.8 = rectangular, 3.0 = Gaussian), variance %.5f\n",
			step, kurt, variance)
		res.Relax(&r)
	}
	return nil
}

// cmdemo exercises the Connection Machine substrate directly: virtual
// processors, segmented scans, the rank sort, and the cost model — the
// primitives (Hillis & Steele's "data parallel algorithms") from which
// the particle simulation is built.
func cmdemo() error {
	// A machine of 8 physical processors running 32 virtual processors:
	// VP ratio 4, as if 32 particles lived on an 8-processor CM.
	m := cm.New(8, 32)
	fmt.Printf("machine: %d physical processors, %d virtual, VP ratio %d\n\n",
		m.P(), m.VPs(), m.VPR())

	// Particles in cells: a tiny version of the simulation's sort-based
	// cell grouping. Keys are cell indices.
	keys := m.NewField()
	copy(keys, []int32{3, 1, 0, 2, 1, 3, 0, 2, 1, 0, 3, 2, 0, 1, 2, 3,
		0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	perm := m.SortPerm(keys)
	sorted := m.NewField()
	m.Gather(sorted, keys, perm)
	fmt.Printf("cell keys:  %v\n", keys)
	fmt.Printf("sorted:     %v\n", sorted)

	// Segment starts where the cell changes; segmented scan numbers the
	// particles within each cell (the even/odd pairing key).
	seg := make([]bool, m.VPs())
	for i := range seg {
		seg[i] = i == 0 || sorted[i] != sorted[i-1]
	}
	ones, rank, count := m.NewField(), m.NewField(), m.NewField()
	m.Fill(ones, 1)
	m.SegPlusScan(rank, ones, seg, true)
	m.SegBroadcastSum(count, ones, seg)
	fmt.Printf("rank-in-cell: %v\n", rank)
	fmt.Printf("cell count:   %v (the density the selection rule uses)\n", count)

	// The cost model: the same work at two VP ratios.
	fmt.Println()
	for _, vps := range []int{8, 64} {
		mm := cm.New(8, vps)
		f := mm.NewField()
		mm.Phase("work")
		for k := 0; k < 10; k++ {
			mm.Map(cm.OpALU, f, f, func(x int32) int32 { return x + 1 })
		}
		cost := mm.Cost().Phase("work")
		fmt.Printf("VP ratio %2d: %8d modelled cycles for 10 ops -> %6.1f cycles/particle\n",
			mm.VPR(), cost.Cycles, float64(cost.Cycles)/float64(vps))
	}
	fmt.Println("\nper-particle cost falls as the VP ratio rises: the front-end issue")
	fmt.Println("overhead is shared, the mechanism behind Figure 7 of the paper.")
	return nil
}
