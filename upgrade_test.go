package dsmc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dsmc"
	"dsmc/internal/store"
)

// preUpgradeOutputSHA256 names the object a build of the DSMCOUT1 format
// (commit 51697fd) published for memoSweepSpec's point 0, replica 0.
const preUpgradeOutputSHA256 = "b369de7c21f5097515b54508a620412e11105d7f625371b21ac740a6a2c9332a"

// encodeDSMCOUT1 writes an output in the layout "out" artifacts had
// before format version 2: magic "DSMCOUT1", a u32 field count, per field
// in name order a u32 name length, the name, a u32 cell count and the
// cells' float64 bits, then the shock angle's bits, the collisions and
// nflow as u64 words, and an FNV-1a trailer over everything before it.
func encodeDSMCOUT1(o *store.Output) []byte {
	b := []byte("DSMCOUT1")
	b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Fields)))
	for _, name := range slices.Sorted(maps.Keys(o.Fields)) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Fields[name])))
		for _, v := range o.Fields[name] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, v := range []uint64{math.Float64bits(o.ShockAngleDeg), uint64(o.Collisions), uint64(o.NFlow)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

// TestPreUpgradeOutputRecomputes: a store holding an "out" artifact an
// earlier build published — the DSMCOUT1 bytes that build wrote for the
// key, verified by their hash — serves it as no hit. The sweep rejects it
// (one verification failure, the object in quarantine/), recomputes that
// one job and republishes it, and lands on the pinned result.
func TestPreUpgradeOutputRecomputes(t *testing.T) {
	spec := memoSweepSpec(filepath.Join(t.TempDir(), "store"))
	runMemoSweep(t, spec)

	ids, err := filepath.Glob(filepath.Join(spec.ResultStoreDir, "index", "out-*-p000-r000"))
	if err != nil || len(ids) != 1 {
		t.Fatalf("replica artifact index entry: %v (err %v)", ids, err)
	}
	shaRaw, err := os.ReadFile(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	sha := strings.TrimSpace(string(shaRaw))
	objects := filepath.Join(spec.ResultStoreDir, "objects")
	data, err := os.ReadFile(filepath.Join(objects, sha))
	if err != nil {
		t.Fatal(err)
	}
	out, err := store.DecodeOutput(data)
	if err != nil {
		t.Fatal(err)
	}
	old := encodeDSMCOUT1(out)
	sum := sha256.Sum256(old)
	if oldSHA := hex.EncodeToString(sum[:]); oldSHA != preUpgradeOutputSHA256 {
		t.Fatalf("the DSMCOUT1 encoding hashes to %s, the earlier build published %s", oldSHA, preUpgradeOutputSHA256)
	}
	// The store as the earlier build left it: the old object under the key.
	if err := os.Remove(filepath.Join(objects, sha)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(objects, preUpgradeOutputSHA256), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ids[0], []byte(preUpgradeOutputSHA256+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	failures := storeCounter(t, "dsmc_store_verify_failures_total")
	publishes := storeCounter(t, "dsmc_store_publishes_total")
	h := fnv.New64a()
	if err := dsmc.WriteSweepResult(h, runMemoSweep(t, spec)); err != nil {
		t.Fatal(err)
	}
	if h.Sum64() != pinnedSweepResultFNV {
		t.Errorf("result hash %#016x, pinned %#016x", h.Sum64(), pinnedSweepResultFNV)
	}
	if d := storeCounter(t, "dsmc_store_verify_failures_total") - failures; d != 1 {
		t.Errorf("%v verification failures, want 1", d)
	}
	if d := storeCounter(t, "dsmc_store_publishes_total") - publishes; d != 1 {
		t.Errorf("%v publishes, want 1 (the recomputed job)", d)
	}
	if _, err := os.Stat(filepath.Join(spec.ResultStoreDir, "quarantine", preUpgradeOutputSHA256)); err != nil {
		t.Errorf("the DSMCOUT1 object is not in quarantine/: %v", err)
	}
	if got, err := os.ReadFile(ids[0]); err != nil || strings.TrimSpace(string(got)) != sha {
		t.Errorf("the key now names %q (%v), want the recomputed object %s", got, err, sha)
	}
}

// TestMisshapenStoredOutputRecomputes: a stored "out" artifact that passes
// the store's hash and decodes, but whose density column is one cell
// short of its point's grid, is rejected like a frame that does not
// decode: one verification failure, the object quarantined, the job
// recomputed and republished, and the result on its pinned bits.
func TestMisshapenStoredOutputRecomputes(t *testing.T) {
	spec := memoSweepSpec(filepath.Join(t.TempDir(), "store"))
	runMemoSweep(t, spec)

	ids, err := filepath.Glob(filepath.Join(spec.ResultStoreDir, "index", "out-*-p000-r000"))
	if err != nil || len(ids) != 1 {
		t.Fatalf("replica artifact index entry: %v (err %v)", ids, err)
	}
	shaRaw, err := os.ReadFile(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	sha := strings.TrimSpace(string(shaRaw))
	objects := filepath.Join(spec.ResultStoreDir, "objects")
	data, err := os.ReadFile(filepath.Join(objects, sha))
	if err != nil {
		t.Fatal(err)
	}
	out, err := store.DecodeOutput(data)
	if err != nil {
		t.Fatal(err)
	}
	density := string(dsmc.Density)
	out.Fields[density] = out.Fields[density][1:]
	short := store.EncodeOutput(out)
	sum := sha256.Sum256(short)
	shortSHA := hex.EncodeToString(sum[:])
	if err := os.WriteFile(filepath.Join(objects, shortSHA), short, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ids[0], []byte(shortSHA+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	failures := storeCounter(t, "dsmc_store_verify_failures_total")
	publishes := storeCounter(t, "dsmc_store_publishes_total")
	h := fnv.New64a()
	if err := dsmc.WriteSweepResult(h, runMemoSweep(t, spec)); err != nil {
		t.Fatal(err)
	}
	if h.Sum64() != pinnedSweepResultFNV {
		t.Errorf("result hash %#016x, pinned %#016x", h.Sum64(), pinnedSweepResultFNV)
	}
	if d := storeCounter(t, "dsmc_store_verify_failures_total") - failures; d != 1 {
		t.Errorf("%v verification failures, want 1", d)
	}
	if d := storeCounter(t, "dsmc_store_publishes_total") - publishes; d != 1 {
		t.Errorf("%v publishes, want 1 (the recomputed job)", d)
	}
	if _, err := os.Stat(filepath.Join(spec.ResultStoreDir, "quarantine", shortSHA)); err != nil {
		t.Errorf("the short object is not in quarantine/: %v", err)
	}
	if got, err := os.ReadFile(ids[0]); err != nil || strings.TrimSpace(string(got)) != sha {
		t.Errorf("the key now names %q (%v), want the recomputed object %s", got, err, sha)
	}
}
