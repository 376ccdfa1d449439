package cm

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewRoundsUpVPs(t *testing.T) {
	m := New(16, 100)
	if m.VPs() != 112 {
		t.Errorf("VPs = %d, want 112 (rounded to multiple of 16)", m.VPs())
	}
	if m.VPR() != 7 {
		t.Errorf("VPR = %d", m.VPR())
	}
}

func TestNewMinimumOneVPPerProcessor(t *testing.T) {
	m := New(8, 3)
	if m.VPs() != 8 || m.VPR() != 1 {
		t.Errorf("VPs=%d VPR=%d, want 8, 1", m.VPs(), m.VPR())
	}
}

func TestFillCopyMapZip(t *testing.T) {
	m := New(4, 64)
	a, b, c := m.NewField(), m.NewField(), m.NewField()
	m.Fill(a, 7)
	for _, v := range a {
		if v != 7 {
			t.Fatalf("Fill failed")
		}
	}
	m.Map(OpALU, b, a, func(x int32) int32 { return x * 2 })
	for _, v := range b {
		if v != 14 {
			t.Fatalf("Map failed")
		}
	}
	all := make([]bool, m.VPs())
	for i := range all {
		all[i] = true
	}
	m.ZipWhere(OpALU, all, c, a, b, func(x, y int32) int32 { return x + y })
	for _, v := range c {
		if v != 21 {
			t.Fatalf("ZipWhere over every processor failed")
		}
	}
	m.Copy(a, c)
	for _, v := range a {
		if v != 21 {
			t.Fatalf("Copy failed")
		}
	}
}

func TestZipWhereRespectsContext(t *testing.T) {
	m := New(2, 8)
	ctx := make([]bool, m.VPs())
	for i := range ctx {
		ctx[i] = i%2 == 0
	}
	a := m.NewField()
	m.Fill(a, 1)
	m.ZipWhere(OpALU, ctx, a, a, a, func(x, y int32) int32 { return 99 })
	for i, v := range a {
		want := int32(1)
		if i%2 == 0 {
			want = 99
		}
		if v != want {
			t.Fatalf("ZipWhere at %d = %d, want %d", i, v, want)
		}
	}
}

func TestMask(t *testing.T) {
	m := New(2, 10)
	a := m.NewField()
	for i := range a {
		a[i] = int32(i)
	}
	mask := make([]bool, m.VPs())
	m.Mask(mask, a, func(x int32) bool { return x%3 == 0 })
	for i, v := range mask {
		if v != (i%3 == 0) {
			t.Fatalf("Mask at %d = %v", i, v)
		}
	}
}

func TestReduce(t *testing.T) {
	m := New(8, 1000)
	a := m.NewField()
	for i := range a {
		a[i] = int32(i)
	}
	if got := m.ReduceMax(a); got != int32(len(a)-1) {
		t.Errorf("ReduceMax = %d", got)
	}
}

func TestReduceMaxAllNegative(t *testing.T) {
	m := New(4, 64)
	a := m.NewField()
	for i := range a {
		a[i] = -int32(i) - 5
	}
	if got := m.ReduceMax(a); got != -5 {
		t.Errorf("ReduceMax = %d, want -5", got)
	}
}

func plusScanRef(src []int32, exclusive bool) []int32 {
	out := make([]int32, len(src))
	var run int64
	for i, v := range src {
		if exclusive {
			out[i] = int32(run)
			run += int64(v)
		} else {
			run += int64(v)
			out[i] = int32(run)
		}
	}
	return out
}

func TestPlusScanMatchesReference(t *testing.T) {
	for _, n := range []int{16, 1000, 10000} {
		for _, excl := range []bool{false, true} {
			m := New(16, n)
			src := m.NewField()
			rng := rand.New(rand.NewSource(int64(n)))
			for i := range src {
				src[i] = int32(rng.Intn(100) - 20)
			}
			dst := m.NewField()
			m.PlusScan(dst, src, excl)
			ref := plusScanRef(src, excl)
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("n=%d excl=%v: scan[%d] = %d, want %d", n, excl, i, dst[i], ref[i])
				}
			}
		}
	}
}

func TestPlusScanAliases(t *testing.T) {
	m := New(4, 100)
	src := m.NewField()
	for i := range src {
		src[i] = 1
	}
	ref := plusScanRef(src, false)
	m.PlusScan(src, src, false)
	for i := range src {
		if src[i] != ref[i] {
			t.Fatalf("aliased scan wrong at %d", i)
		}
	}
}

func segScanRef(src []int32, seg []bool, exclusive bool) []int32 {
	out := make([]int32, len(src))
	var run int64
	for i, v := range src {
		if seg[i] {
			run = 0
		}
		if exclusive {
			out[i] = int32(run)
			run += int64(v)
		} else {
			run += int64(v)
			out[i] = int32(run)
		}
	}
	return out
}

func TestSegPlusScanMatchesReference(t *testing.T) {
	for _, n := range []int{64, 5000, 20000} {
		for _, excl := range []bool{false, true} {
			m := New(32, n)
			src := m.NewField()
			seg := make([]bool, m.VPs())
			rng := rand.New(rand.NewSource(int64(n) + 7))
			for i := range src {
				src[i] = int32(rng.Intn(9))
				seg[i] = rng.Intn(13) == 0
			}
			seg[0] = true
			dst := m.NewField()
			m.SegPlusScan(dst, src, seg, excl)
			ref := segScanRef(src, seg, excl)
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("n=%d excl=%v: segscan[%d] = %d, want %d", n, excl, i, dst[i], ref[i])
				}
			}
		}
	}
}

func TestSegBroadcastSum(t *testing.T) {
	for _, n := range []int{64, 4096, 30000} {
		m := New(16, n)
		src := m.NewField()
		seg := make([]bool, m.VPs())
		rng := rand.New(rand.NewSource(int64(n) + 19))
		for i := range src {
			src[i] = int32(rng.Intn(5))
			seg[i] = rng.Intn(11) == 0
		}
		seg[0] = true
		dst := m.NewField()
		m.SegBroadcastSum(dst, src, seg)
		// Reference: compute each segment's total.
		want := make([]int32, m.VPs())
		i := 0
		for i < m.VPs() {
			j := i + 1
			for j < m.VPs() && !seg[j] {
				j++
			}
			var total int32
			for k := i; k < j; k++ {
				total += src[k]
			}
			for k := i; k < j; k++ {
				want[k] = total
			}
			i = j
		}
		for k := range dst {
			if dst[k] != want[k] {
				t.Fatalf("n=%d: broadcastsum[%d] = %d, want %d", n, k, dst[k], want[k])
			}
		}
	}
}

func TestEnumerate(t *testing.T) {
	m := New(8, 100)
	ctx := make([]bool, m.VPs())
	for i := range ctx {
		ctx[i] = i%3 == 0
	}
	dst := m.NewField()
	count := m.Enumerate(dst, ctx)
	wantCount := 0
	for i := range ctx {
		if ctx[i] {
			if dst[i] != int32(wantCount) {
				t.Fatalf("Enumerate[%d] = %d, want %d", i, dst[i], wantCount)
			}
			wantCount++
		} else if dst[i] != -1 {
			t.Fatalf("inactive processor %d must get -1", i)
		}
	}
	if count != wantCount {
		t.Errorf("Enumerate count = %d, want %d", count, wantCount)
	}
}

func TestSortPermSortsAndIsStable(t *testing.T) {
	for _, n := range []int{32, 1000, 30000} {
		m := New(16, n)
		keys := m.NewField()
		rng := rand.New(rand.NewSource(int64(n) + 23))
		for i := range keys {
			keys[i] = int32(rng.Intn(50)) // many duplicates to exercise stability
		}
		perm := m.SortPerm(keys)
		// Permutation validity.
		seen := make([]bool, m.VPs())
		for _, p := range perm {
			if seen[p] {
				t.Fatalf("n=%d: perm not a permutation", n)
			}
			seen[p] = true
		}
		// Sortedness and stability.
		for r := 1; r < m.VPs(); r++ {
			ka, kb := keys[perm[r-1]], keys[perm[r]]
			if ka > kb {
				t.Fatalf("n=%d: not sorted at rank %d", n, r)
			}
			if ka == kb && perm[r-1] > perm[r] {
				t.Fatalf("n=%d: not stable at rank %d", n, r)
			}
		}
	}
}

func TestSortPermLargeKeys(t *testing.T) {
	m := New(8, 5000)
	keys := m.NewField()
	rng := rand.New(rand.NewSource(31))
	for i := range keys {
		keys[i] = rng.Int31()
	}
	perm := m.SortPerm(keys)
	for r := 1; r < m.VPs(); r++ {
		if keys[perm[r-1]] > keys[perm[r]] {
			t.Fatalf("large-key sort failed at rank %d", r)
		}
	}
}

func TestSortPermAllEqualKeysIsIdentity(t *testing.T) {
	m := New(4, 256)
	keys := m.NewField()
	perm := m.SortPerm(keys)
	for i, p := range perm {
		if int(p) != i {
			t.Fatalf("stable sort of equal keys must be identity, perm[%d]=%d", i, p)
		}
	}
}

func TestSortPermProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(512)
		m := New(8, n)
		keys := m.NewField()
		for i := range keys {
			keys[i] = int32(rng.Intn(1 << 20))
		}
		ref := append([]int32(nil), keys...)
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		perm := m.SortPerm(keys)
		for r := range perm {
			if keys[perm[r]] != ref[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGather(t *testing.T) {
	m := New(8, 1024)
	src := m.NewField()
	rng := rand.New(rand.NewSource(37))
	for i := range src {
		src[i] = rng.Int31()
	}
	keys := m.NewField()
	for i := range keys {
		keys[i] = int32(rng.Intn(100))
	}
	perm := m.SortPerm(keys)
	gathered := m.NewField()
	m.Gather(gathered, src, perm)
	for i, p := range perm {
		if gathered[i] != src[p] {
			t.Fatalf("Gather[%d] = %d, want src[%d] = %d", i, gathered[i], p, src[p])
		}
	}
}

func TestGatherMany(t *testing.T) {
	m := New(4, 256)
	a, b := m.NewField(), m.NewField()
	for i := range a {
		a[i] = int32(i)
		b[i] = int32(i * 10)
	}
	keys := m.NewField()
	for i := range keys {
		keys[i] = int32(len(keys) - i)
	}
	perm := m.SortPerm(keys)
	scratch := m.NewField()
	m.GatherMany(perm, scratch, a, b)
	for i := range a {
		if b[i] != a[i]*10 {
			t.Fatalf("GatherMany must permute all fields consistently")
		}
	}
	if a[0] != int32(len(a)-1) {
		t.Errorf("descending keys must reverse the field, a[0]=%d", a[0])
	}
}

func TestShifts(t *testing.T) {
	m := New(4, 64)
	src, dst := m.NewField(), m.NewField()
	for i := range src {
		src[i] = int32(i)
	}
	m.ShiftUp(dst, src, -1)
	if dst[0] != -1 || dst[1] != 0 || dst[63] != 62 {
		t.Errorf("ShiftUp wrong: %d %d %d", dst[0], dst[1], dst[63])
	}
	m.ShiftDown(dst, src, -7)
	if dst[63] != -7 || dst[0] != 1 {
		t.Errorf("ShiftDown wrong: %d %d", dst[63], dst[0])
	}
}

func TestCostAccumulation(t *testing.T) {
	m := New(16, 16*64)
	m.Phase("move")
	a := m.NewField()
	m.Fill(a, 1)
	m.Map(OpMul, a, a, func(x int32) int32 { return x * 3 })
	m.Phase("sort")
	m.SortPerm(a)
	m.FlushTimers()
	move := m.Cost().Phase("move")
	srt := m.Cost().Phase("sort")
	if move.Cycles <= 0 || move.Ops != 2 {
		t.Errorf("move phase cost: %+v", move)
	}
	if srt.Cycles <= 0 {
		t.Errorf("sort phase cost: %+v", srt)
	}
	if m.Cost().TotalCycles() != move.Cycles+srt.Cycles {
		t.Errorf("TotalCycles mismatch")
	}
	phases := m.Cost().Phases()
	if len(phases) < 2 {
		t.Errorf("Phases() = %v", phases)
	}
}

// TestVPRatioAmortization checks the Figure 7 mechanism in the cost model:
// at fixed machine size, the modelled per-particle cost of a fixed
// instruction sequence falls as the number of particles (hence VP ratio)
// rises, because the front-end issue overhead is shared by more particles.
func TestVPRatioAmortization(t *testing.T) {
	perParticle := func(vps int) float64 {
		m := New(1024, vps)
		a := m.NewField()
		m.Fill(a, 3)
		for k := 0; k < 10; k++ {
			m.Map(OpALU, a, a, func(x int32) int32 { return x + 1 })
		}
		return float64(m.Cost().TotalCycles()) / float64(vps)
	}
	c1 := perParticle(1024)     // VPR 1
	c4 := perParticle(4 * 1024) // VPR 4
	c16 := perParticle(16 * 1024)
	if !(c1 > c4 && c4 > c16) {
		t.Errorf("per-particle cost must fall with VP ratio: %v %v %v", c1, c4, c16)
	}
}

// TestSortCrossTrafficDropsWithVPR: with more particles per physical
// processor, a random permutation keeps a larger fraction of traffic
// on-processor only when locality exists; for the sort of an already
// nearly-sorted key field (the common case between time steps) cross
// traffic per particle should drop as VPR rises.
func TestSortCrossTrafficDropsWithVPR(t *testing.T) {
	cross := func(vps int) float64 {
		m := New(256, vps)
		keys := m.NewField()
		rng := rand.New(rand.NewSource(99))
		for i := range keys {
			// nearly sorted: key grows with index, small random displacement
			keys[i] = int32(i/4 + rng.Intn(3))
		}
		m.Phase("sort")
		m.SortPerm(keys)
		return float64(m.Cost().Phase("sort").RouterMsgs) / float64(vps)
	}
	lo := cross(256)     // VPR 1
	hi := cross(256 * 8) // VPR 8
	if hi >= lo {
		t.Errorf("cross traffic per particle should drop with VPR: VPR1=%v VPR8=%v", lo, hi)
	}
}

func TestFieldLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on mismatched field length")
		}
	}()
	m := New(4, 64)
	bad := make(Field, 10)
	m.Fill(bad, 0)
}

func TestNewPanicsOnNonPositiveProcessors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	New(0, 10)
}

func TestUpdateVisitsEveryLane(t *testing.T) {
	m := New(8, 300)
	visited := make([]int32, m.VPs())
	m.Update(1, func(i int) { visited[i]++ })
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("lane %d visited %d times", i, v)
		}
	}
}
