package cm

import (
	"sort"
	"time"
)

// Cycle costs of the bit-serial machine, in (modelled) clock cycles per
// virtual processor for data-path operations and per instruction for the
// front-end. The relative structure (issue overhead vs per-VP work vs
// communication) reproduces the shape of the paper's performance results;
// the absolute level is set by cycleMacroOp.
//
// cycleMacroOp calibrates the fact that each operation this substrate
// charges is a routine-level macro-op standing in for a burst of real
// Paris instructions (the Update that performs a whole collision is one
// charge here but hundreds of bit-serial instructions on the machine).
// The factor is chosen so the full pipeline lands near the paper's
// absolute numbers: 7.2 µs/particle/step at 512k particles on a
// 32k-processor machine (3.5 h for the 3200-step run).
const (
	// cycleMacroOp is the macro-op expansion factor described above,
	// applied to data-path and communication costs; cycleIssueFactor is
	// the (smaller) factor for the front-end issue overhead. The pair is
	// fitted to both ends of the paper's Figure 7 curve: ~10.5 µs per
	// particle-step at 32k particles (VP ratio 1) and 7.2 µs at 512k
	// (VP ratio 16) on the 32k-processor machine.
	cycleMacroOp = 59
	// CycleALU32 is one 32-bit integer add/sub/compare/move macro-op in
	// the bit-serial data path.
	CycleALU32 = 40 * cycleMacroOp
	// CycleMul32 is a 32-bit multiply (quadratic in width when bit-serial).
	CycleMul32 = 700 * cycleMacroOp
	// CycleDiv32 is a 32-bit divide.
	CycleDiv32 = 900 * cycleMacroOp
	// CycleIssue is the fixed front-end instruction issue/decode/broadcast
	// overhead per macro-op, independent of the VP ratio. Its amortization
	// over more virtual processors is one of the two causes of the
	// per-particle speedup in Figure 7.
	CycleIssue = 2600 * cycleIssueFactor
	// cycleIssueFactor is the macro-op factor for front-end issue.
	cycleIssueFactor = 3
	// CycleScanWire is the per-stage cost of the scan/reduction network;
	// a scan costs VPR*CycleALU32 + log2(P)*CycleScanWire.
	CycleScanWire = 60 * cycleMacroOp
	// cycleCommFactor is the macro-op factor for per-message communication
	// costs; messages are closer to single hardware operations than the
	// routine-level compute charges, so their factor is smaller.
	cycleCommFactor = 21
	// CycleLocalMove is moving one 32-bit word between virtual processors
	// resident in the same physical processor (a memory copy).
	CycleLocalMove = 50 * cycleCommFactor
	// CycleRouter is delivering one 32-bit message through the general
	// router between distinct physical processors, the expensive path the
	// sort and the collision pairing try to avoid.
	CycleRouter = 1200 * cycleCommFactor
	// ClockHz is the modelled clock rate used to convert cycles to time.
	ClockHz = 7_000_000
)

// PhaseCost accumulates modelled cycles and wall time for one phase.
type PhaseCost struct {
	Cycles     int64
	Ops        int64 // front-end instructions issued
	RouterMsgs int64 // cross-processor messages
	LocalMoves int64 // within-processor moves
	Wall       time.Duration
}

// CostBook is the per-phase cost ledger of a machine.
type CostBook struct {
	phases map[string]*PhaseCost
}

// NewCostBook returns an empty ledger.
func NewCostBook() CostBook {
	return CostBook{phases: map[string]*PhaseCost{}}
}

func (c *CostBook) get(phase string) *PhaseCost {
	p := c.phases[phase]
	if p == nil {
		p = &PhaseCost{}
		c.phases[phase] = p
	}
	return p
}

func (c *CostBook) addWall(phase string, d time.Duration) {
	c.get(phase).Wall += d
}

// Phase returns the cost record for a phase (zero record if unused).
func (c *CostBook) Phase(name string) PhaseCost {
	if p, ok := c.phases[name]; ok {
		return *p
	}
	return PhaseCost{}
}

// Phases returns the phase names in sorted order.
func (c *CostBook) Phases() []string {
	out := make([]string, 0, len(c.phases))
	for k := range c.phases {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TotalCycles sums modelled cycles over all phases.
func (c *CostBook) TotalCycles() int64 {
	var t int64
	for _, p := range c.phases {
		t += p.Cycles
	}
	return t
}

// TotalWall sums wall time over all phases.
func (c *CostBook) TotalWall() time.Duration {
	var t time.Duration
	for _, p := range c.phases {
		t += p.Wall
	}
	return t
}

// ModelSeconds converts modelled cycles to seconds at the modelled clock.
func ModelSeconds(cycles int64) float64 { return float64(cycles) / ClockHz }

// chargeElementwise records an elementwise operation: per-VP serial cycles
// times the VP ratio, plus one instruction issue.
func (m *Machine) chargeElementwise(perVPCycles int64) {
	p := m.cost.get(m.phase)
	p.Cycles += int64(m.VPR())*perVPCycles + CycleIssue
	p.Ops++
}

// chargeScan records a scan: serial sweep over resident VPs plus the
// log-depth wire traversal.
func (m *Machine) chargeScan() {
	p := m.cost.get(m.phase)
	p.Cycles += int64(m.VPR())*CycleALU32 + int64(log2ceil(m.numPhys))*CycleScanWire + CycleIssue
	p.Ops++
}

// chargeComm records a data movement with the given number of
// within-processor and cross-processor 32-bit transfers.
func (m *Machine) chargeComm(local, router int64) {
	p := m.cost.get(m.phase)
	// Router messages are serviced by all physical processors in parallel;
	// model the time as the average load per processor with a congestion
	// factor folded into CycleRouter.
	p.Cycles += local*CycleLocalMove/int64(m.numPhys) +
		router*CycleRouter/int64(m.numPhys) + CycleIssue
	p.Ops++
	p.RouterMsgs += router
	p.LocalMoves += local
}

func log2ceil(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	return k
}
