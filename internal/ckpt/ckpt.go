// Package ckpt is the compact binary checkpoint format of the reference
// backends: the full mutable engine state — particle store columns in
// either storage precision, reservoir contents, serial RNG stream state,
// sample accumulators, and the step/collision counters that key the RNG
// epoch — such that restoring into a freshly constructed simulation of
// the same configuration and continuing is bit-identical to never having
// stopped, at any worker count (the per-phase randomness is counter-
// based, so no worker-local state needs to survive).
//
// The format is a fixed header (magic, version, kind, precision, cell
// count), a sequence of sections written through the primitive codecs
// below, and an FNV-1a trailer over every payload byte; the reader
// recomputes the checksum as it consumes the stream and Close fails on
// any corruption. All words are little-endian. Floats are stored at
// their native storage precision (float32 columns cost 4 bytes per
// value), so a checkpoint is approximately the size of the live store.
//
// Layering: this package owns the encoding and the codecs for the shared
// containers (store, reservoir, stream, accumulator, engine counters);
// each backend composes them with its own domain scalars — see
// sim.WriteCheckpoint and sim3.WriteCheckpoint — and internal/run adds
// job-progress sections around a backend checkpoint to make whole
// ensemble jobs resumable.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"

	"dsmc/internal/collide"
	"dsmc/internal/engine"
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
	"dsmc/internal/sample"
)

// Magic identifies a dsmc checkpoint stream ("DSMCCKPT").
const Magic uint64 = 0x44534d43434b5054

// Version is the current format version; readers reject others.
// Version 2 added the Σw moment column to the accumulator section (the
// multi-quantity sampling redesign).
const Version uint32 = 2

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
	var z F
	if _, ok := any(z).(float32); ok {
		return PrecF32
	}
	return PrecF64
}

// trailerSize is the checksum trailer's byte length.
const trailerSize = 8

// ErrCorrupt reports a checkpoint whose bytes do not match its checksum
// trailer: a torn write, a truncation, bit damage.
var ErrCorrupt = errors.New("ckpt: checksum mismatch")

// Restore is how checkpoint bytes reach a simulation — the standalone
// restores and the job resume alike: verify, then apply. The complete
// buffer is checked against its FNV-1a trailer (ErrCorrupt) and its
// header against the format version (ErrVersion) and the restoring
// simulation's kind, precision and cell count (ErrShape) before apply
// reads one section, so a damaged or foreign checkpoint leaves the
// simulation untouched.
func Restore(data []byte, kind Kind, prec Prec, cells int, apply func(*Reader) error) error {
	if len(data) < trailerSize {
		return ErrCorrupt
	}
	body := data[:len(data)-trailerSize]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(data[len(body):]) {
		return ErrCorrupt
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := CheckShape(r, kind, prec, cells); err != nil {
		return err
	}
	if err := apply(r); err != nil {
		return err
	}
	return r.Close()
}

// Writer encodes a checkpoint stream. Errors are sticky: the first I/O
// failure is remembered and returned by Close, so section writers can
// stream without per-call checks.
type Writer struct {
	w    *bufio.Writer
	sum  hash.Hash64
	err  error
	buf  [8]byte
	kind Kind
	prec Prec
}

// NewWriter writes the header (magic, version, kind, precision, cells)
// and returns a writer positioned at the first section. cells pins the
// grid size so a checkpoint cannot be restored into a differently
// shaped simulation.
func NewWriter(w io.Writer, kind Kind, prec Prec, cells int) *Writer {
	cw := &Writer{w: bufio.NewWriterSize(w, 1<<16), sum: fnv.New64a(), kind: kind, prec: prec}
	cw.U64(Magic)
	cw.U64(uint64(Version))
	cw.U64(uint64(kind))
	cw.U64(uint64(prec))
	cw.U64(uint64(cells))
	return cw
}

func (w *Writer) word(v uint64) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.sum.Write(w.buf[:])
	_, w.err = w.w.Write(w.buf[:])
}

func (w *Writer) word32(v uint32) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.sum.Write(w.buf[:4])
	_, w.err = w.w.Write(w.buf[:4])
}

// U64 writes one unsigned word.
func (w *Writer) U64(v uint64) { w.word(v) }

// I64 writes one signed word.
func (w *Writer) I64(v int64) { w.word(uint64(v)) }

// F64 writes one float64 by IEEE-754 bits.
func (w *Writer) F64(v float64) { w.word(math.Float64bits(v)) }

// Bool writes a boolean as one word.
func (w *Writer) Bool(v bool) {
	var u uint64
	if v {
		u = 1
	}
	w.word(u)
}

// I32s writes an int32 slice (length-prefixed).
func (w *Writer) I32s(xs []int32) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		w.word32(uint32(x))
	}
}

// F64s writes a float64 slice (length-prefixed).
func (w *Writer) F64s(xs []float64) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		w.word(math.Float64bits(x))
	}
}

// Floats writes a column at its native storage precision
// (length-prefixed): float32 values cost 4 bytes, float64 values 8.
func Floats[F kernel.Float](w *Writer, xs []F) {
	w.U64(uint64(len(xs)))
	if PrecOf[F]() == PrecF32 {
		for _, x := range xs {
			w.word32(math.Float32bits(float32(x)))
		}
		return
	}
	for _, x := range xs {
		w.word(math.Float64bits(float64(x)))
	}
}

// zeroFloats writes what Floats writes for a column of n zeros, without
// the column.
func zeroFloats[F kernel.Float](w *Writer, n int) {
	w.U64(uint64(n))
	if PrecOf[F]() == PrecF32 {
		for i := 0; i < n; i++ {
			w.word32(0)
		}
		return
	}
	for i := 0; i < n; i++ {
		w.word(0)
	}
}

// Close writes the checksum trailer and flushes. It returns the first
// error of the whole write sequence.
func (w *Writer) Close() error {
	sum := w.sum.Sum64() // the trailer itself is not part of the checksum
	w.word(sum)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes a checkpoint stream, verifying the header eagerly and
// the checksum trailer at Close. Errors are sticky.
type Reader struct {
	r     *bufio.Reader
	sum   hash.Hash64
	err   error
	buf   [8]byte
	kind  Kind
	prec  Prec
	cells int
}

// ErrVersion reports a checkpoint written by a different format version.
// Callers with a cheap recompute path (the job resume) treat it like
// corruption — discard and start fresh — instead of failing hard.
var ErrVersion = errors.New("ckpt: unsupported format version")

// NewReader consumes and validates the header. The caller checks Kind,
// Precision and Cells against the simulation it is restoring into.
func NewReader(r io.Reader) (*Reader, error) {
	cr := &Reader{r: bufio.NewReaderSize(r, 1<<16), sum: fnv.New64a()}
	if m := cr.U64(); m != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %#016x", m)
	}
	if v := cr.U64(); v != uint64(Version) {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrVersion, v, Version)
	}
	cr.kind = Kind(cr.U64())
	cr.prec = Prec(cr.U64())
	cr.cells = int(cr.U64())
	if cr.err != nil {
		return nil, cr.err
	}
	return cr, nil
}

// Kind returns the header's simulation family tag.
func (r *Reader) Kind() Kind { return r.kind }

// Precision returns the header's storage-precision tag.
func (r *Reader) Precision() Prec { return r.prec }

// Cells returns the header's grid cell count.
func (r *Reader) Cells() int { return r.cells }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) word() uint64 {
	if r.err != nil {
		return 0
	}
	if _, r.err = io.ReadFull(r.r, r.buf[:]); r.err != nil {
		return 0
	}
	r.sum.Write(r.buf[:])
	return binary.LittleEndian.Uint64(r.buf[:])
}

func (r *Reader) word32() uint32 {
	if r.err != nil {
		return 0
	}
	if _, r.err = io.ReadFull(r.r, r.buf[:4]); r.err != nil {
		return 0
	}
	r.sum.Write(r.buf[:4])
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads one unsigned word.
func (r *Reader) U64() uint64 { return r.word() }

// I64 reads one signed word.
func (r *Reader) I64() int64 { return int64(r.word()) }

// F64 reads one float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.word()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.word() != 0 }

// lenInto validates a length prefix against a destination capacity.
func (r *Reader) lenInto(what string, capacity int) int {
	n := int(r.U64())
	if r.err == nil && (n < 0 || n > capacity) {
		r.err = fmt.Errorf("ckpt: %s length %d exceeds capacity %d", what, n, capacity)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// I32s reads an int32 slice into dst, returning the element count.
func (r *Reader) I32s(dst []int32) int {
	n := r.lenInto("int32 column", len(dst))
	for i := 0; i < n; i++ {
		dst[i] = int32(r.word32())
	}
	return n
}

// F64s reads a float64 slice into dst, returning the element count.
func (r *Reader) F64s(dst []float64) int {
	n := r.lenInto("float64 column", len(dst))
	for i := 0; i < n; i++ {
		dst[i] = math.Float64frombits(r.word())
	}
	return n
}

// ReadFloats reads a column written by Floats into dst (which must be at
// least as long as the stored column), returning the element count.
func ReadFloats[F kernel.Float](r *Reader, dst []F) int {
	n := r.lenInto("float column", len(dst))
	if PrecOf[F]() == PrecF32 {
		for i := 0; i < n; i++ {
			dst[i] = F(math.Float32frombits(r.word32()))
		}
		return n
	}
	for i := 0; i < n; i++ {
		dst[i] = F(math.Float64frombits(r.word()))
	}
	return n
}

// readZeroFloats consumes a column written by Floats of at most max
// values without storing it, and reports whether every value was +0 —
// how a store without a column reads the one the stream always has.
func readZeroFloats[F kernel.Float](r *Reader, max int) bool {
	n := r.lenInto("float column", max)
	var bits uint64
	if PrecOf[F]() == PrecF32 {
		for i := 0; i < n; i++ {
			bits |= uint64(r.word32())
		}
	} else {
		for i := 0; i < n; i++ {
			bits |= r.word()
		}
	}
	return bits == 0
}

// Close consumes the checksum trailer and verifies it against the bytes
// read. A checkpoint truncated or corrupted anywhere fails here (or
// earlier, on a structural error).
func (r *Reader) Close() error {
	want := r.sum.Sum64() // trailer excluded from the checksum, mirror the writer
	got := r.word()
	if r.err != nil {
		return r.err
	}
	if got != want {
		return fmt.Errorf("ckpt: checksum mismatch: stored %#016x, computed %#016x", got, want)
	}
	return nil
}

// ErrShape reports a checkpoint/simulation shape mismatch.
var ErrShape = errors.New("ckpt: checkpoint does not match the simulation shape")

// CheckShape validates a reader's header against the restoring
// simulation's kind, precision and cell count.
func CheckShape(r *Reader, kind Kind, prec Prec, cells int) error {
	if r.Kind() != kind {
		return fmt.Errorf("%w: kind %d, simulation wants %d", ErrShape, r.Kind(), kind)
	}
	if r.Precision() != prec {
		return fmt.Errorf("%w: precision %d, simulation wants %d", ErrShape, r.Precision(), prec)
	}
	if r.Cells() != cells {
		return fmt.Errorf("%w: %d cells, simulation has %d", ErrShape, r.Cells(), cells)
	}
	return nil
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
	Floats(w, st.X[:n])
	Floats(w, st.Y[:n])
	if st.Z != nil {
		Floats(w, st.Z[:n])
	}
	Floats(w, st.U[:n])
	Floats(w, st.V[:n])
	Floats(w, st.W[:n])
	Floats(w, st.R1[:n])
	Floats(w, st.R2[:n])
	if st.Evib != nil {
		Floats(w, st.Evib[:n])
	} else {
		zeroFloats[F](w, n)
	}
	w.I32s(st.Cell[:n])
}

// ReadStore restores a store written by WriteStore into st, which must
// have the same dimensionality and sufficient capacity (both hold for a
// store built from the checkpointed configuration).
func ReadStore[F kernel.Float](r *Reader, st *particle.Store[F]) error {
	n := int(r.U64())
	if r.Err() != nil {
		return r.Err()
	}
	if n > st.Cap() {
		return fmt.Errorf("%w: %d particles, store capacity %d", ErrShape, n, st.Cap())
	}
	threeD := r.Bool()
	if threeD != (st.Z != nil) {
		return fmt.Errorf("%w: dimensionality differs (checkpoint 3D=%v)", ErrShape, threeD)
	}
	ReadFloats(r, st.X[:n])
	ReadFloats(r, st.Y[:n])
	if threeD {
		ReadFloats(r, st.Z[:n])
	}
	ReadFloats(r, st.U[:n])
	ReadFloats(r, st.V[:n])
	ReadFloats(r, st.W[:n])
	ReadFloats(r, st.R1[:n])
	ReadFloats(r, st.R2[:n])
	if st.Evib != nil {
		ReadFloats(r, st.Evib[:n])
	} else if !readZeroFloats[F](r, n) {
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
	n := int(r.U64())
	if r.Err() != nil {
		return r.Err()
	}
	const maxReservoir = 1 << 30 // structural sanity bound before allocating
	if n < 0 || n > maxReservoir {
		return fmt.Errorf("ckpt: implausible reservoir size %d", n)
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
	w.F64s(count)
	w.F64s(momX)
	w.F64s(momY)
	w.F64s(momZ)
	w.F64s(enrg)
}

// ReadAccumulator restores an accumulator written by WriteAccumulator.
// The accumulator must cover the same grid (equal column lengths).
func ReadAccumulator(r *Reader, a *sample.Accumulator) error {
	count, momX, momY, momZ, enrg := a.Raw()
	steps := int(r.U64())
	for _, col := range [][]float64{count, momX, momY, momZ, enrg} {
		if n := r.F64s(col); r.Err() == nil && n != len(col) {
			return fmt.Errorf("%w: accumulator column length %d, grid wants %d", ErrShape, n, len(col))
		}
	}
	if r.Err() != nil {
		return r.Err()
	}
	a.Steps = steps
	return nil
}
