package dsmc

import (
	"errors"
	"io"
)

// Checkpoint writes a compact binary snapshot of the simulation's full
// mutable state — particle columns at the configured storage precision,
// reservoir contents, RNG state, and the step/collision counters that
// key the per-phase randomness — such that restoring it into a
// simulation of the same scenario and continuing is bit-identical to
// never having stopped, at any worker count. The stream carries the
// scenario family in its kind header (2D wind tunnel vs 3D shock tube)
// plus a checksum; corruption is detected on restore.
//
// Only the engine (Reference) backends checkpoint; the ConnectionMachine
// backend returns an error.
func (s *Simulation) Checkpoint(w io.Writer) error {
	if s.ref == nil {
		return errors.New("dsmc: the ConnectionMachine backend does not support checkpointing")
	}
	return s.ref.WriteCheckpoint(w)
}

// Restore replaces the simulation's state with a checkpoint written by
// Checkpoint. The simulation must have been built from the same
// scenario — the stream's kind header (2D vs 3D), grid shape and
// precision are validated, so restoring a shock-tube checkpoint into a
// wind tunnel fails with a shape error instead of corrupting state —
// but the worker count is free to differ: per-phase randomness is
// counter-based, so no worker-local state exists. The stream is read
// whole and its checksum verified before anything is applied, so a
// restore that fails on a torn or damaged stream leaves the simulation
// exactly as it was.
func (s *Simulation) Restore(r io.Reader) error {
	if s.ref == nil {
		return errors.New("dsmc: the ConnectionMachine backend does not support checkpointing")
	}
	return s.ref.ReadCheckpoint(r)
}

// RestoreSimulation builds a simulation from any scenario (2D or 3D —
// the restore dispatches on the checkpoint's kind header through the
// scenario's own backend) and restores a checkpoint into it in one
// call. A nil scenario is an error, and so is a stream that fails its
// checksum or does not match the scenario's shape: no half-restored
// simulation is ever returned.
func RestoreSimulation(sc Scenario, r io.Reader) (*Simulation, error) {
	s, err := NewSimulation(sc)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(r); err != nil {
		return nil, err
	}
	return s, nil
}
