package cm

import "sync/atomic"

// SortPerm returns the permutation that stably sorts keys ascending:
// perm[r] is the index of the element of rank r. Keys must be
// non-negative (cell-index keys always are). The sort is an LSD radix
// sort — the same class of O(n) rank-based sort the CM-2's sorting
// primitive uses — parallelized per block with stable cross-block
// scatter offsets.
//
// The cost model charges one router send per key whose destination chunk
// differs from its source chunk, per radix pass: on the real machine the
// reordering is a general-router permutation. This is the machinery behind
// the paper's observation that general communication happens in the
// sorting routine when particle motion or re-randomization forces
// particles to change physical processors.
func (m *Machine) SortPerm(keys Field) []int32 {
	m.checkLen(keys)
	n := m.vps
	maxKey := m.ReduceMax(keys)
	passes := 0
	for v := int64(maxKey); v > 0; v >>= radixBits {
		passes++
	}
	if passes == 0 {
		passes = 1
	}

	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	next := make([]int32, n)
	cur := keys
	keyBuf := make(Field, n)
	keyNext := make(Field, n)
	copy(keyBuf, cur)
	cur = keyBuf

	w := m.workers
	var crossMsgs int64
	for p := 0; p < passes; p++ {
		shift := uint(p * radixBits)
		// Per-block digit histograms.
		hist := make([][]int32, w)
		m.parForIdx(n, func(b, lo, hi int) {
			h := make([]int32, radixSize)
			for i := lo; i < hi; i++ {
				h[(uint32(cur[i])>>shift)&radixMask]++
			}
			hist[b] = h
		})
		// Global stable offsets: for digit d, block b starts at
		// sum over digits < d of all blocks + sum over blocks < b of digit d.
		offsets := make([][]int32, w)
		for b := range offsets {
			offsets[b] = make([]int32, radixSize)
		}
		var run int32
		for d := 0; d < radixSize; d++ {
			for b := 0; b < w; b++ {
				offsets[b][d] = run
				run += hist[b][d]
			}
		}
		// Stable scatter per block.
		m.parForIdx(n, func(b, lo, hi int) {
			off := offsets[b]
			for i := lo; i < hi; i++ {
				d := (uint32(cur[i]) >> shift) & radixMask
				dst := off[d]
				off[d]++
				next[dst] = perm[i]
				keyNext[dst] = cur[i]
			}
		})
		perm, next = next, perm
		cur, keyNext = keyNext, cur
		// Each pass performs rank arithmetic (histogram + offsets): charged
		// as scans plus elementwise work.
		m.chargeScan()
		m.chargeElementwise(CycleALU32 * 2)
	}
	// Communication is charged for the net permutation: the machine's sort
	// delivers each element from its source processor to its rank position
	// through the router; traffic staying within a physical processor is a
	// memory move. Nearly-sorted keys (the common case between time steps)
	// therefore generate little router traffic at high VP ratios — the
	// effect the paper reports in Figure 7.
	vpr := m.VPR()
	m.parForIdx(n, func(_, lo, hi int) {
		var localCross int64
		for r := lo; r < hi; r++ {
			if int(perm[r])/vpr != r/vpr {
				localCross++
			}
		}
		atomic.AddInt64(&crossMsgs, localCross)
	})
	m.chargeComm(int64(n)-crossMsgs, crossMsgs)
	return perm
}

const (
	radixBits = 8
	radixSize = 1 << radixBits
	radixMask = radixSize - 1
)

// Gather permutes src into dst through the router: dst[i] = src[perm[i]].
// dst and src must not alias.
func (m *Machine) Gather(dst, src Field, perm []int32) {
	m.checkLen(dst, src)
	var cross int64
	vpr := m.VPR()
	m.parForIdx(m.vps, func(_, lo, hi int) {
		var localCross int64
		for i := lo; i < hi; i++ {
			j := int(perm[i])
			dst[i] = src[j]
			if j/vpr != i/vpr {
				localCross++
			}
		}
		atomic.AddInt64(&cross, localCross)
	})
	m.chargeComm(int64(m.vps)-cross, cross)
}

// GatherMany applies the same permutation to several fields, reusing one
// scratch buffer; each field is a separate router operation on the real
// machine and is charged as such.
func (m *Machine) GatherMany(perm []int32, scratch Field, fields ...Field) {
	for _, f := range fields {
		m.Gather(scratch, f, perm)
		m.Copy(f, scratch)
	}
}

// ShiftUp implements the NEWS-style nearest-neighbour shift: dst[i] =
// src[i-1], with dst[0] = fill. Neighbour communication crosses a chunk
// boundary only once per physical processor, so it is charged almost
// entirely as local moves.
func (m *Machine) ShiftUp(dst, src Field, fill int32) {
	m.checkLen(dst, src)
	m.parFor(m.vps, func(lo, hi int) {
		start := lo
		if lo == 0 {
			dst[0] = fill
			start = 1
		}
		for i := start; i < hi; i++ {
			dst[i] = src[i-1]
		}
	})
	m.chargeComm(int64(m.vps)-int64(m.numPhys), int64(m.numPhys))
}

// ShiftDown implements dst[i] = src[i+1], with dst[n-1] = fill.
func (m *Machine) ShiftDown(dst, src Field, fill int32) {
	m.checkLen(dst, src)
	n := m.vps
	m.parFor(n, func(lo, hi int) {
		end := hi
		if hi == n {
			dst[n-1] = fill
			end = n - 1
		}
		for i := lo; i < end; i++ {
			dst[i] = src[i+1]
		}
	})
	m.chargeComm(int64(n)-int64(m.numPhys), int64(m.numPhys))
}
