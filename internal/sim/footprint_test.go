package sim

import (
	"runtime"
	"testing"
)

// TestWedgeStoreFootprint: building the paper wedge (scale 1, float64,
// one worker) and stepping it once allocates at most one particle store,
// plus the sort's two scratch columns and int32 permutation, plus a slack of
// 16 B per particle slot. The slack covers the rest of the wedge, which
// measured 12.7 B a slot: the worker's exit list and the split collide's
// pick buffer (4 B a slot each), the reservoir (about 4 B a slot) and the
// per-cell tables. A second store, the sort's target before it gathered
// in place, would add 60 B a slot.
func TestWedgeStoreFootprint(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Workers = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	runtime.ReadMemStats(&after)
	capacity := uint64(s.Store().Cap())
	const (
		store   = 7*8 + 4 // X, Y, U, V, W, R1, R2 in float64 and the int32 Cell
		scratch = 2 * 8
		perm    = 4
		slack   = 16
	)
	got := after.TotalAlloc - before.TotalAlloc
	want := capacity * (store + scratch + perm + slack)
	t.Logf("%d slots: %.1f MB allocated, %.1f B a slot; bound %.1f MB", capacity, float64(got)/1e6, float64(got)/float64(capacity), float64(want)/1e6)
	if got > want {
		t.Errorf("building and stepping the paper wedge allocated %d B, %.1f B a slot of %d; want at most %d (one store, the sort's scratch columns and permutation, %d B a slot of slack)",
			got, float64(got)/float64(capacity), capacity, want, slack)
	}
	runtime.KeepAlive(s)
}
