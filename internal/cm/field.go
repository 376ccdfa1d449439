package cm

// OpKind classifies an elementwise operation for cost accounting.
type OpKind int

// Elementwise operation kinds, in increasing bit-serial cost.
const (
	OpALU OpKind = iota // add/sub/compare/select/shift/logical
	OpMul               // multiply
	OpDiv               // divide
)

func (k OpKind) cycles() int64 {
	switch k {
	case OpMul:
		return CycleMul32
	case OpDiv:
		return CycleDiv32
	default:
		return CycleALU32
	}
}

// Fill sets every element of dst to v.
func (m *Machine) Fill(dst Field, v int32) {
	m.checkLen(dst)
	m.parFor(m.vps, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
	m.chargeElementwise(CycleALU32)
}

// Copy copies src into dst.
func (m *Machine) Copy(dst, src Field) {
	m.checkLen(dst, src)
	m.parFor(m.vps, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
	m.chargeElementwise(CycleALU32)
}

// Map applies f elementwise: dst[i] = f(src[i]). kind selects the cost
// charged per virtual processor.
func (m *Machine) Map(kind OpKind, dst, src Field, f func(int32) int32) {
	m.checkLen(dst, src)
	m.parFor(m.vps, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = f(src[i])
		}
	})
	m.chargeElementwise(kind.cycles())
}

// ZipWhere applies f elementwise over two operands under the context
// mask: dst[i] = f(a[i], b[i]) where ctx[i]; inactive processors keep
// their dst value. The CM charges inactive processors the same cycles
// (they idle through the broadcast instruction), so the cost is that of
// the unmasked operation — the load-balance argument the paper makes
// against the cells-to-processors mapping.
func (m *Machine) ZipWhere(kind OpKind, ctx []bool, dst, a, b Field, f func(int32, int32) int32) {
	m.checkLen(dst, a, b)
	m.parFor(m.vps, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx[i] {
				dst[i] = f(a[i], b[i])
			}
		}
	})
	m.chargeElementwise(kind.cycles())
}

// Update applies an in-place per-processor update with access to the lane
// index, used for operations that consult per-lane state such as RNG
// streams. It is charged as the given number of equivalent ALU ops.
func (m *Machine) Update(aluOps int, f func(i int)) {
	m.parFor(m.vps, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
	m.chargeElementwise(int64(aluOps) * CycleALU32)
}

// UpdateReduce applies a per-processor update that also accumulates an
// int64 result (e.g. a collision count); accumulation is per block with a
// final serial combine, so it is race-free and deterministic. Charged as
// aluOps equivalent ALU operations plus one reduction.
func (m *Machine) UpdateReduce(aluOps int, f func(i int, acc *int64)) int64 {
	partial := make([]int64, m.workers)
	m.parForIdx(m.vps, func(b, lo, hi int) {
		var acc int64
		for i := lo; i < hi; i++ {
			f(i, &acc)
		}
		partial[b] = acc
	})
	var total int64
	for _, p := range partial {
		total += p
	}
	m.chargeElementwise(int64(aluOps) * CycleALU32)
	m.chargeScan()
	return total
}

// Mask computes a context from a predicate over one field.
func (m *Machine) Mask(dst []bool, src Field, pred func(int32) bool) {
	m.checkLen(src)
	m.parFor(m.vps, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = pred(src[i])
		}
	})
	m.chargeElementwise(CycleALU32)
}

// ReduceMax returns the maximum of src; zero-length machines cannot occur.
func (m *Machine) ReduceMax(src Field) int32 {
	m.checkLen(src)
	partial := make([]int32, m.workers)
	m.parForIdx(m.vps, func(w, lo, hi int) {
		best := src[0] // safe floor for empty blocks
		for i := lo; i < hi; i++ {
			if src[i] > best {
				best = src[i]
			}
		}
		partial[w] = best
	})
	best := partial[0]
	for _, v := range partial[1:] {
		if v > best {
			best = v
		}
	}
	m.chargeScan()
	return best
}
