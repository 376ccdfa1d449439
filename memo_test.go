package dsmc_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsmc"
	"dsmc/internal/store"
)

// memoSweepSpec is the fixture the memoization tests share: two points,
// two replicas, publishing into a result store under dir.
func memoSweepSpec(dir string) dsmc.SweepSpec {
	return dsmc.SweepSpec{
		Name:     "memo",
		Scenario: specOf(smallPublicConfig()),
		Points: []dsmc.SweepPoint{
			{Name: "near-continuum", MeanFreePath: f64(0)},
			{Name: "rarefied", MeanFreePath: f64(0.5)},
		},
		Replicas:       2,
		WarmSteps:      6,
		SampleSteps:    6,
		Pool:           1,
		ResultStoreDir: dir,
	}
}

// memoHash is the FNV-1a hash of a value's canonical JSON encoding;
// encoding/json emits float64s at shortest round-trip precision, so
// equal hashes mean bit-equal aggregates.
func memoHash(t *testing.T, v any) uint64 {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

func runMemoSweep(t *testing.T, spec dsmc.SweepSpec) *dsmc.SweepResult {
	t.Helper()
	res, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSweepMemoWarmBitIdentical: a warm-store sweep — every replica and
// aggregate served from artifacts — produces aggregates bit-identical
// to the cold pool-1 run that populated the store, across pool sizes
// (and therefore completion orders), and the store plumbing itself does
// not perturb a cold run relative to the store-less path.
func TestSweepMemoWarmBitIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec := memoSweepSpec(dir)
	hCold := memoHash(t, runMemoSweep(t, spec))

	noStore := spec
	noStore.ResultStoreDir = ""
	if h := memoHash(t, runMemoSweep(t, noStore)); h != hCold {
		t.Fatalf("store-backed cold run hash %016x != store-less run hash %016x", hCold, h)
	}

	// The cold run published 2 points × 2 replicas outputs.
	idx, err := filepath.Glob(filepath.Join(dir, "index", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 4 {
		t.Fatalf("store index holds %d artifacts after the cold run, want 4", len(idx))
	}

	for _, pool := range []int{1, 4} {
		warm := spec
		warm.Pool = pool
		if h := memoHash(t, runMemoSweep(t, warm)); h != hCold {
			t.Fatalf("warm run (pool %d) hash %016x != cold hash %016x", pool, h, hCold)
		}
	}
}

// TestSweepMemoServesStoredArtifacts proves warm runs actually consume
// the artifacts rather than recomputing bit-identical values: tampering
// with one stored replica output (valid frame, perturbed diagnostics)
// changes exactly that point's warm aggregate.
func TestSweepMemoServesStoredArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec := memoSweepSpec(dir)
	cold := runMemoSweep(t, spec)

	// Rewrite point 0, replica 0's artifact with perturbed collision
	// diagnostics — re-encoded and re-indexed so every integrity check
	// passes — and drop the aggregate artifacts to force re-aggregation
	// from the replica artifacts.
	ids, err := filepath.Glob(filepath.Join(dir, "index", "out-*-p000-r000"))
	if err != nil || len(ids) != 1 {
		t.Fatalf("replica artifact index entry: %v (err %v)", ids, err)
	}
	shaRaw, err := os.ReadFile(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	sha := strings.TrimSpace(string(shaRaw))
	data, err := os.ReadFile(filepath.Join(dir, "objects", sha))
	if err != nil {
		t.Fatal(err)
	}
	out, err := store.DecodeOutput(data)
	if err != nil {
		t.Fatal(err)
	}
	out.Collisions += 100000
	tampered := store.EncodeOutput(out)
	sum := sha256.Sum256(tampered)
	newSHA := hex.EncodeToString(sum[:])
	if err := os.WriteFile(filepath.Join(dir, "objects", newSHA), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ids[0], []byte(newSHA+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	aggs, err := filepath.Glob(filepath.Join(dir, "index", "agg-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range aggs {
		if err := os.Remove(a); err != nil {
			t.Fatal(err)
		}
	}

	warm := runMemoSweep(t, spec)
	if got, want := memoHash(t, warm.Points[0]), memoHash(t, cold.Points[0]); got == want {
		t.Fatal("tampered replica artifact did not change point 0's warm aggregate: the store was not consulted")
	}
	if got, want := memoHash(t, warm.Points[1]), memoHash(t, cold.Points[1]); got != want {
		t.Fatalf("point 1 (untampered) warm aggregate hash %016x != cold %016x", got, want)
	}
}

// TestSweepMemoCorruptionFallsBack: artifacts whose bytes rot on disk
// fail per-read integrity verification, are quarantined, and the sweep
// recomputes them — landing on the exact cold-run bits.
func TestSweepMemoCorruptionFallsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec := memoSweepSpec(dir)
	hCold := memoHash(t, runMemoSweep(t, spec))

	objs, err := filepath.Glob(filepath.Join(dir, "objects", "*"))
	if err != nil || len(objs) == 0 {
		t.Fatalf("objects after cold run: %v (err %v)", objs, err)
	}
	for _, p := range objs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if h := memoHash(t, runMemoSweep(t, spec)); h != hCold {
		t.Fatalf("post-corruption recompute hash %016x != cold hash %016x", h, hCold)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != len(objs) {
		t.Errorf("%d corrupt objects quarantined, want %d", len(quarantined), len(objs))
	}
	// The recompute republished everything: the index is whole again.
	idx, err := filepath.Glob(filepath.Join(dir, "index", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 4 {
		t.Errorf("store index holds %d artifacts after recompute, want 4", len(idx))
	}
}
