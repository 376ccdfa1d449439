// Package cm is a data-parallel virtual machine modelled on the Thinking
// Machines CM-2 as the paper uses it: a large set of virtual processors,
// each owning one particle, executing elementwise integer operations,
// (segmented) scans, a stable sort, and general router communication.
//
// Two things are modelled:
//
//   - Semantics: fields of int32 (the paper's 32-bit fixed-point particle
//     state), context flags (the CM's activity mask), scans, sort, send.
//     These execute on a pool of goroutines, one chunk of virtual
//     processors per "physical processor".
//
//   - Cost: a cycle-level model of the bit-serial CM-2, accumulated per
//     named phase. Every operation charges per-virtual-processor serial
//     cycles (multiplied by the virtual-processor ratio), a fixed
//     front-end instruction-issue overhead, and communication cycles that
//     distinguish within-physical-processor traffic from router traffic.
//     This is what reproduces Figure 7 of the paper: per-particle time
//     falls as the VP ratio grows because issue overhead amortizes and a
//     growing share of communication stays on-processor.
//
//dsmclint:layer cm
package cm

import (
	"fmt"
	"runtime"
	"time"

	"dsmc/internal/par"
)

// Field is a per-virtual-processor array of 32-bit words, the only
// register width of the machine (matching the paper's 32-bit fixed-point
// particle state).
type Field []int32

// Machine is a virtual CM with a fixed number of physical processors and
// some number of virtual processors mapped onto them in contiguous chunks.
type Machine struct {
	numPhys int
	vps     int
	workers int // == pool.Workers(), cached for the scans' carry logic
	pool    *par.Pool

	cost  CostBook
	phase string

	wallStart map[string]time.Time
}

// New creates a machine with numPhys physical processors and vps virtual
// processors. vps is rounded up to a multiple of numPhys, as on the real
// machine (the VP ratio is a power-of-two integer there; here any integer
// ratio is permitted). numPhys must be positive.
func New(numPhys, vps int) *Machine {
	if numPhys <= 0 {
		panic("cm: numPhys must be positive")
	}
	if vps < numPhys {
		vps = numPhys
	}
	if r := vps % numPhys; r != 0 {
		vps += numPhys - r
	}
	w := runtime.GOMAXPROCS(0)
	if w > numPhys {
		w = numPhys
	}
	if w < 1 {
		w = 1
	}
	return &Machine{
		numPhys:   numPhys,
		vps:       vps,
		workers:   w,
		pool:      par.New(w),
		cost:      NewCostBook(),
		phase:     "default",
		wallStart: map[string]time.Time{},
	}
}

// P returns the number of physical processors.
func (m *Machine) P() int { return m.numPhys }

// VPs returns the number of virtual processors.
func (m *Machine) VPs() int { return m.vps }

// VPR returns the virtual processor ratio.
func (m *Machine) VPR() int { return m.vps / m.numPhys }

// NewField allocates a zeroed field.
func (m *Machine) NewField() Field { return make(Field, m.vps) }

// Phase names the accounting bucket for subsequent operations and starts
// its wall-clock timer; the previous phase's timer is stopped.
func (m *Machine) Phase(name string) {
	now := time.Now()
	if st, ok := m.wallStart[m.phase]; ok {
		m.cost.addWall(m.phase, now.Sub(st))
		delete(m.wallStart, m.phase)
	}
	m.phase = name
	m.wallStart[name] = now
}

// FlushTimers closes the open phase timer so accumulated wall times are
// complete. Safe to call repeatedly.
func (m *Machine) FlushTimers() {
	now := time.Now()
	if st, ok := m.wallStart[m.phase]; ok {
		m.cost.addWall(m.phase, now.Sub(st))
		m.wallStart[m.phase] = now
	}
}

// Cost returns the accumulated cost book.
func (m *Machine) Cost() *CostBook { return &m.cost }

// ResetCost clears accumulated cost and wall times.
func (m *Machine) ResetCost() {
	m.cost = NewCostBook()
	m.wallStart = map[string]time.Time{m.phase: time.Now()}
}

// blockStep returns the span width of the fixed block decomposition used
// by every parallel operation: w blocks of equal width (the last possibly
// short or empty). Serial carry passes in the scans rely on this exact
// decomposition, so every execution path must use it — it is the pool's
// decomposition, shared with the reference backends via internal/par.
func (m *Machine) blockStep(n int) int { return m.pool.BlockStep(n) }

// parForIdx runs f once per block b with its span [lo, hi); empty blocks
// get lo == hi == n. Execution is parallel for large n, serial otherwise,
// but the decomposition is identical either way.
func (m *Machine) parForIdx(n int, f func(b, lo, hi int)) {
	m.pool.ForIdx(n, f)
}

// parFor runs f over [0, n) split into the fixed block decomposition.
func (m *Machine) parFor(n int, f func(lo, hi int)) {
	m.pool.For(n, f)
}

// checkLen panics if a field does not belong to this machine geometry.
func (m *Machine) checkLen(fs ...Field) {
	for _, f := range fs {
		if len(f) != m.vps {
			panic(fmt.Sprintf("cm: field length %d does not match machine VPs %d", len(f), m.vps))
		}
	}
}
