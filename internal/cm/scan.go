package cm

// PlusScan computes a prefix sum of src into dst. If exclusive is true,
// dst[i] = sum(src[0:i]); otherwise dst[i] includes src[i]. dst and src
// may alias. The implementation is the classic two-sweep blocked parallel
// scan: per-block partial sums, a serial pass over block totals, then a
// per-block local scan with carry-in — structurally the same algorithm the
// CM-2 scan network performs.
func (m *Machine) PlusScan(dst, src Field, exclusive bool) {
	m.checkLen(dst, src)
	n := m.vps
	w := m.workers
	blockSum := make([]int64, w+1)
	m.parForIdx(n, func(b, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(src[i])
		}
		blockSum[b+1] = s
	})
	for b := 1; b <= w; b++ {
		blockSum[b] += blockSum[b-1]
	}
	m.parForIdx(n, func(b, lo, hi int) {
		carry := blockSum[b]
		if exclusive {
			for i := lo; i < hi; i++ {
				v := int64(src[i])
				dst[i] = int32(carry)
				carry += v
			}
		} else {
			for i := lo; i < hi; i++ {
				carry += int64(src[i])
				dst[i] = int32(carry)
			}
		}
	})
	m.chargeScan()
}

// SegPlusScan computes a segmented inclusive (or exclusive) prefix sum:
// the running sum restarts wherever segStart is true. This is the scan the
// implementation uses to number particles within a cell and to count cell
// populations after the sort.
func (m *Machine) SegPlusScan(dst, src Field, segStart []bool, exclusive bool) {
	m.checkLen(dst, src)
	n := m.vps
	w := m.workers
	// First sweep: each block computes the sum of its tail segment (from
	// the last segment start in the block, or the block head if none) and
	// whether it contains any segment start.
	tailSum := make([]int64, w)
	hasStart := make([]bool, w)
	m.parForIdx(n, func(b, lo, hi int) {
		var s int64
		started := false
		for i := lo; i < hi; i++ {
			if segStart[i] {
				s = 0
				started = true
			}
			s += int64(src[i])
		}
		tailSum[b] = s
		hasStart[b] = started
	})
	// Serial pass: carry into each block is the sum since the most recent
	// segment start across preceding blocks.
	carryIn := make([]int64, w)
	var carry int64
	for b := 0; b < w; b++ {
		carryIn[b] = carry
		if hasStart[b] {
			carry = tailSum[b]
		} else {
			carry += tailSum[b]
		}
	}
	// Second sweep: local segmented scan with carry-in.
	m.parForIdx(n, func(b, lo, hi int) {
		run := carryIn[b]
		if exclusive {
			for i := lo; i < hi; i++ {
				if segStart[i] {
					run = 0
				}
				dst[i] = int32(run)
				run += int64(src[i])
			}
		} else {
			for i := lo; i < hi; i++ {
				if segStart[i] {
					run = 0
				}
				run += int64(src[i])
				dst[i] = int32(run)
			}
		}
	})
	m.chargeScan()
}

// SegBroadcastSum gives every element the total of its segment: an
// inclusive segmented plus-scan followed by a backward copy of the
// segment-final values. This pair of scans is how the implementation
// obtains the cell population (hence the local density n) on every
// particle of a cell.
func (m *Machine) SegBroadcastSum(dst, src Field, segStart []bool) {
	m.checkLen(dst, src)
	n := m.vps
	w := m.workers
	tmp := m.NewField()
	m.SegPlusScan(tmp, src, segStart, false)
	// Backward sweep. For element i we need tmp at the last index of i's
	// segment. Serial right-to-left pass over blocks computes the fill
	// value entering each block from the right.
	step := m.blockStep(n)
	carryFromRight := make([]int32, w)
	cur := tmp[n-1]
	for b := w - 1; b >= 0; b-- {
		carryFromRight[b] = cur
		lo := b * step
		hi := lo + step
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		// The fill value flowing left out of this block: the total of the
		// segment ending just before the first segment start in the block.
		for i := lo; i < hi; i++ {
			if segStart[i] {
				if i > 0 {
					cur = tmp[i-1]
				}
				break
			}
		}
	}
	m.parForIdx(n, func(b, lo, hi int) {
		fill := carryFromRight[b]
		for i := hi - 1; i >= lo; i-- {
			dst[i] = fill
			if segStart[i] && i > 0 {
				fill = tmp[i-1]
			}
		}
	})
	m.chargeScan()
}

// Enumerate numbers the active processors 0,1,2,... in machine order and
// returns the count; inactive processors receive -1. This is the standard
// CM enumeration idiom (an exclusive plus-scan of the context).
func (m *Machine) Enumerate(dst Field, ctx []bool) int {
	m.checkLen(dst)
	ones := m.NewField()
	m.parFor(m.vps, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx[i] {
				ones[i] = 1
			}
		}
	})
	m.PlusScan(dst, ones, true)
	count := 0
	if m.vps > 0 {
		last := m.vps - 1
		count = int(dst[last])
		if ctx[last] {
			count++
		}
	}
	m.parFor(m.vps, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !ctx[i] {
				dst[i] = -1
			}
		}
	})
	m.chargeElementwise(CycleALU32)
	return count
}
