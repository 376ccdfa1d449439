package dsmc_test

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsmc"
	"dsmc/internal/obs"
)

// pinnedSweepResultFNV is the FNV-1a of what WriteSweepResult writes for
// RunSweep(memoSweepSpec), recorded at d38e62f — the last commit whose in-process
// sweeps ran on the generic DAG executor and stored aggregate artifacts.
const pinnedSweepResultFNV uint64 = 0xf861361217ef41bc

// storeCounter reads one process-global result-store counter.
func storeCounter(t *testing.T, name string) float64 {
	t.Helper()
	for _, s := range obs.Default.Snapshot(name) {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("counter %s is not registered", name)
	return 0
}

// TestRunSweepResultPinned fences the in-process path the way
// TestSweepResultMemoE2E fences dsmcd's: the encoded result, cold and
// then warm, for a serial and a concurrent pool, is the recorded
// constant. The store side of the same contract rides along: a cold sweep
// leaves one out artifact per replica job and nothing else, and a warm
// one is exactly that many verified hits and not one publish.
func TestRunSweepResultPinned(t *testing.T) {
	sweep := func(spec dsmc.SweepSpec) uint64 {
		t.Helper()
		h := fnv.New64a()
		if err := dsmc.WriteSweepResult(h, runMemoSweep(t, spec)); err != nil {
			t.Fatal(err)
		}
		return h.Sum64()
	}
	for _, pool := range []int{1, 4} {
		spec := memoSweepSpec(filepath.Join(t.TempDir(), "store"))
		spec.Pool = pool
		jobs := len(spec.Points) * spec.Replicas

		if h := sweep(spec); h != pinnedSweepResultFNV {
			t.Errorf("pool %d cold: result hash %#016x, pinned %#016x", pool, h, pinnedSweepResultFNV)
		}
		idx, err := os.ReadDir(filepath.Join(spec.ResultStoreDir, "index"))
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != jobs {
			t.Errorf("pool %d cold: %d index entries, want %d", pool, len(idx), jobs)
		}
		for _, e := range idx {
			if !strings.HasPrefix(e.Name(), "out-") {
				t.Errorf("pool %d cold: index entry %s is not a replica output", pool, e.Name())
			}
		}

		hits := storeCounter(t, "dsmc_store_hits_total")
		publishes := storeCounter(t, "dsmc_store_publishes_total")
		if h := sweep(spec); h != pinnedSweepResultFNV {
			t.Errorf("pool %d warm: result hash %#016x, pinned %#016x", pool, h, pinnedSweepResultFNV)
		}
		if d := storeCounter(t, "dsmc_store_hits_total") - hits; d != float64(jobs) {
			t.Errorf("pool %d warm: %v store hits, want %d", pool, d, jobs)
		}
		if d := storeCounter(t, "dsmc_store_publishes_total") - publishes; d != 0 {
			t.Errorf("pool %d warm: %v publishes, want 0", pool, d)
		}
	}
}
