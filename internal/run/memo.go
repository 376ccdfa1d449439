package run

import "dsmc/internal/store"

// This file derives a replica's content-addressed result-store key from
// the determinism contract (Table.Memo looks the keys up).
//
// A replica's bits are a pure function of (trajectory fingerprint, master
// seed, point index, replica index) — specFingerprint pins the
// trajectory: the physics epoch, the step budget and every field of the
// lowered scenario but the point's name and its config's seed and worker
// count; jobSeed derives the job's seed from (BaseSeed, point, replica)
// injectively — so that tuple, extended with the requested quantity list
// (derived fields depend on what was sampled), is the store key. Two
// sweeps that share a point at the same index therefore share artifacts;
// the same physics at a different index is a different seed and a
// different key, never a false hit.

// OutputKey is the store key of one replica's output artifact.
func (sp *Spec) OutputKey(scenarioIdx, replica int) store.Key {
	fp := specFingerprint(sp.Scenarios[scenarioIdx], sp.WarmSteps, sp.SampleSteps, sp.quantities()...)
	return store.Key{Kind: "out", Fp: fp, Seed: sp.BaseSeed, Point: scenarioIdx, Replica: replica}
}
