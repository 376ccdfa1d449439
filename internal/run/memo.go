package run

import (
	"encoding/binary"
	"hash/fnv"

	"dsmc/internal/store"
)

// This file is the sweep-memoization bridge between the replica job and
// the content-addressed result store: key derivation from the
// determinism contract and the verified load in front of every replica.
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

// memoReplica consults the store for a finished replica. A verified hit
// returns the decoded result; structurally-invalid content that slipped
// past the hash check is rejected (quarantined) and reads as a miss, so
// the caller recomputes.
func memoReplica(st *store.Store, key store.Key) (*ReplicaResult, bool) {
	data, _, ok := st.Get(key.ID())
	if !ok {
		return nil, false
	}
	res, err := store.DecodeOutput(data)
	if err != nil {
		st.Reject(key.ID())
		return nil, false
	}
	return res, true
}
