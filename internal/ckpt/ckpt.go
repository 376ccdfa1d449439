// Package ckpt is the compact binary checkpoint format of the reference
// backends: the full mutable engine state — particle store columns in
// either storage precision, reservoir contents, serial RNG stream state,
// sample accumulators, and the step/collision counters that key the RNG
// epoch — such that restoring into a freshly constructed simulation of
// the same configuration and continuing is bit-identical to never having
// stopped, at any worker count (the per-phase randomness is counter-
// based, so no worker-local state needs to survive).
//
// A checkpoint is an internal/frame frame (magic "DSMCCKPT", version 3):
// three shape words (kind, precision, cell count), then the sections the
// codecs below write. Float columns are stored at their native precision,
// so a checkpoint is about the size of the live store. The sections
// stream from the live columns to the writer's sink through the frame's
// fixed chunk: saving holds no checkpoint-sized buffer, and on a
// little-endian host each column reaches the chunk, and comes back on
// restore, as one copy of its memory.
//
// Layering: this package owns the checkpoint layout and the codecs for
// the shared containers (store, reservoir, stream, accumulator, engine
// counters); each backend composes them with its own domain scalars — see
// sim.WriteCheckpoint and sim3.WriteCheckpoint — and internal/run adds
// job-progress sections around a backend checkpoint to make whole
// ensemble jobs resumable.
//
//dsmclint:layer ckpt
//dsmclint:scope determinism
package ckpt

import (
	"fmt"
	"io"

	"dsmc/internal/collide"
	"dsmc/internal/engine"
	"dsmc/internal/frame"
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
	"dsmc/internal/sample"
)

// Magic identifies a dsmc checkpoint stream ("DSMCCKPT").
const Magic uint64 = 0x44534d43434b5054

// Version is the current format version; readers reject others.
// Version 2 added the Σw moment column to the accumulator section (the
// multi-quantity sampling redesign); version 3 replaced the FNV-1a
// trailer with CRC-32C‖CRC-32 and left the payload as it was.
const Version uint32 = 3

// Kind tags the simulation family a checkpoint belongs to.
type Kind uint8

// Checkpoint kinds.
const (
	// Kind2D is the wind-tunnel (internal/sim) state.
	Kind2D Kind = 1
	// Kind3D is the shock-tube (internal/sim3) state.
	Kind3D Kind = 2
	// KindJob is an orchestration job: progress counters and a sample
	// accumulator wrapped around a backend checkpoint (internal/run).
	KindJob Kind = 3
)

// Prec tags the storage precision of the checkpointed columns.
type Prec uint8

// Column precisions.
const (
	PrecF64 Prec = 1
	PrecF32 Prec = 2
)

// PrecOf returns the precision tag of the instantiation F.
func PrecOf[F kernel.Float]() Prec {
	if frame.Width[F]() == 4 {
		return PrecF32
	}
	return PrecF64
}

// Writer and Reader are the frame's: the section codecs of this package
// and of the backends write and read checkpoint values through them.
type (
	Writer = frame.Writer
	Reader = frame.Reader
)

// The frame's error values, under the names checkpoint callers match.
// Callers with a cheap recompute path discard an ErrCorrupt or ErrVersion
// checkpoint; ErrShape is one that does not fit the simulation.
var (
	ErrCorrupt = frame.ErrCorrupt
	ErrVersion = frame.ErrVersion
	ErrShape   = frame.ErrShape
)

// Restore is how checkpoint bytes reach a simulation — the standalone
// restores and the job resume alike: verify, then apply. frame.Open
// checks magic, version and trailer; then the shape words are checked
// against the restoring simulation's kind, precision and cell count
// (ErrShape), all before apply reads one section, so a damaged,
// pre-upgrade or foreign checkpoint leaves the simulation untouched.
// apply decodes from the verified bytes, and Restore fails unless it
// consumed every one of them.
func Restore(data []byte, kind Kind, prec Prec, cells int, apply func(*Reader) error) error {
	r, err := frame.Open(data, Magic, Version)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	k, p, c := r.U64(), r.U64(), r.U64()
	switch {
	case r.Err() != nil:
		return r.Err()
	case k != uint64(kind):
		return fmt.Errorf("%w: kind %d, simulation wants %d", ErrShape, k, kind)
	case p != uint64(prec):
		return fmt.Errorf("%w: precision %d, simulation wants %d", ErrShape, p, prec)
	case c != uint64(cells):
		return fmt.Errorf("%w: %d cells, simulation has %d", ErrShape, c, cells)
	}
	if err := apply(r); err != nil {
		return err
	}
	return r.Close()
}

// NewWriter returns a writer streaming a checkpoint to dst, its header
// (magic, version, kind, precision, cells) staged, positioned at the
// first section. cells pins the grid size so a checkpoint cannot be
// restored into a differently shaped simulation.
func NewWriter(dst io.Writer, kind Kind, prec Prec, cells int) *Writer {
	w := new(Writer)
	Reset(w, dst, kind, prec, cells)
	return w
}

// Reset starts a checkpoint on dst in w, as NewWriter does, reusing w's
// staging chunk: a job that saves repeatedly keeps one Writer.
func Reset(w *Writer, dst io.Writer, kind Kind, prec Prec, cells int) {
	w.Reset(dst, Magic, Version)
	w.U64(uint64(kind))
	w.U64(uint64(prec))
	w.U64(uint64(cells))
}

// WriteStore writes the live particle columns: count, every float column
// at storage precision (Z only for 3D stores), and the cell indices. The
// Evib column is always present in the stream: a store without one writes
// the zeros it stands for, so the bytes do not depend on whether the
// store carries the column.
func WriteStore[F kernel.Float](w *Writer, st *particle.Store[F]) {
	n := st.Len()
	w.U64(uint64(n))
	w.Bool(st.Z != nil)
	frame.Floats(w, st.X[:n])
	frame.Floats(w, st.Y[:n])
	if st.Z != nil {
		frame.Floats(w, st.Z[:n])
	}
	frame.Floats(w, st.U[:n])
	frame.Floats(w, st.V[:n])
	frame.Floats(w, st.W[:n])
	frame.Floats(w, st.R1[:n])
	frame.Floats(w, st.R2[:n])
	if st.Evib != nil {
		frame.Floats(w, st.Evib[:n])
	} else {
		frame.ZeroFloats[F](w, n)
	}
	w.I32s(st.Cell[:n])
}

// ReadStore restores a store written by WriteStore into st, which must
// have the same dimensionality and sufficient capacity (both hold for a
// store built from the checkpointed configuration).
func ReadStore[F kernel.Float](r *Reader, st *particle.Store[F]) error {
	n := r.Count("particle count", frame.Width[F]())
	if r.Err() != nil {
		return r.Err()
	}
	if n > st.Cap() {
		return fmt.Errorf("%w: %d particles, store capacity %d", ErrShape, n, st.Cap())
	}
	threeD := r.Bool()
	if r.Err() == nil && threeD != (st.Z != nil) {
		return fmt.Errorf("%w: dimensionality differs (checkpoint 3D=%v)", ErrShape, threeD)
	}
	frame.ReadFloats(r, st.X[:n])
	frame.ReadFloats(r, st.Y[:n])
	if threeD {
		frame.ReadFloats(r, st.Z[:n])
	}
	frame.ReadFloats(r, st.U[:n])
	frame.ReadFloats(r, st.V[:n])
	frame.ReadFloats(r, st.W[:n])
	frame.ReadFloats(r, st.R1[:n])
	frame.ReadFloats(r, st.R2[:n])
	if st.Evib != nil {
		frame.ReadFloats(r, st.Evib[:n])
	} else if !frame.ReadZeroFloats[F](r, n) {
		return fmt.Errorf("%w: checkpoint carries vibrational energy, the simulation has no vibrational relaxation", ErrShape)
	}
	r.I32s(st.Cell[:n])
	if r.Err() != nil {
		return r.Err()
	}
	st.SetLen(n)
	return nil
}

// WriteEngine writes the engine counters that key the RNG epoch (step,
// cumulative collisions) followed by the live store. Phase wall-times
// are diagnostics and not part of the state.
func WriteEngine[F kernel.Float](w *Writer, e *engine.Engine[F]) {
	w.U64(uint64(e.StepCount()))
	w.I64(e.Collisions())
	WriteStore(w, e.Store())
}

// ReadEngine restores the counters and store written by WriteEngine.
func ReadEngine[F kernel.Float](r *Reader, e *engine.Engine[F]) error {
	step := int(r.U64())
	collisions := r.I64()
	if err := ReadStore(r, e.Store()); err != nil {
		return err
	}
	e.RestoreCounters(step, collisions)
	return nil
}

// WriteReservoir writes the banked thermal-frame velocities.
func WriteReservoir(w *Writer, rv *particle.Reservoir) {
	vels := rv.Snapshot()
	w.U64(uint64(len(vels)))
	for i := range vels {
		for k := 0; k < 5; k++ {
			w.F64(vels[i][k])
		}
	}
}

// ReadReservoir restores a reservoir written by WriteReservoir.
func ReadReservoir(r *Reader, rv *particle.Reservoir) error {
	n := r.Count("reservoir", 5*8)
	if r.Err() != nil {
		return r.Err()
	}
	vels := make([]collide.State5, n)
	for i := range vels {
		for k := 0; k < 5; k++ {
			vels[i][k] = r.F64()
		}
	}
	if r.Err() != nil {
		return r.Err()
	}
	return rv.Restore(vels)
}

// WriteStream writes a serial RNG stream's state.
func WriteStream(w *Writer, st rng.StreamState) {
	w.U64(st.S)
	w.F64(st.Spare)
	w.Bool(st.HaveSpare)
}

// ReadStream restores a stream state written by WriteStream.
func ReadStream(r *Reader) rng.StreamState {
	return rng.StreamState{S: r.U64(), Spare: r.F64(), HaveSpare: r.Bool()}
}

// WriteAccumulator writes a sample accumulator's step count and moment
// columns.
func WriteAccumulator(w *Writer, a *sample.Accumulator) {
	count, momX, momY, momZ, enrg := a.Raw()
	w.U64(uint64(a.Steps))
	for _, col := range [][]float64{count, momX, momY, momZ, enrg} {
		frame.Floats(w, col)
	}
}

// ReadAccumulator restores an accumulator written by WriteAccumulator.
// The accumulator must cover the same grid (equal column lengths; a
// different length is ErrShape).
func ReadAccumulator(r *Reader, a *sample.Accumulator) error {
	count, momX, momY, momZ, enrg := a.Raw()
	steps := int(r.U64())
	for _, col := range [][]float64{count, momX, momY, momZ, enrg} {
		frame.ReadFloats(r, col)
	}
	if r.Err() != nil {
		return r.Err()
	}
	a.Steps = steps
	return nil
}
