package run

import (
	"encoding/binary"
	"hash/fnv"

	"dsmc/internal/store"
)

// This file derives a replica's content-addressed result-store key from
// the determinism contract (Table.Memo looks the keys up).
//
// A replica's bits are a pure function of (spec fingerprint, master
// seed, point index, replica index) — specFingerprint pins the
// trajectory, jobSeed derives the job's seed from (BaseSeed, point,
// replica) injectively — so that tuple, extended with the requested
// quantity list (derived fields depend on what was sampled), is the
// store key. Two sweeps that share a point at the same index therefore
// share artifacts; the same physics at a different index is a different
// seed and a different key, never a false hit.

// storeFingerprint extends the trajectory fingerprint with the resolved
// quantity list: the part of an artifact's identity that the checkpoint
// fingerprint deliberately ignores.
func (sp *Spec) storeFingerprint(scenarioIdx int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(specFingerprint(sp.Scenarios[scenarioIdx], sp.WarmSteps, sp.SampleSteps))
	for _, q := range sp.quantities() {
		word(uint64(len(q)))
		h.Write([]byte(q))
	}
	return h.Sum64()
}

// OutputKey is the store key of one replica's output artifact.
func (sp *Spec) OutputKey(scenarioIdx, replica int) store.Key {
	return store.Key{Kind: "out", Fp: sp.storeFingerprint(scenarioIdx), Seed: sp.BaseSeed,
		Point: scenarioIdx, Replica: replica}
}
