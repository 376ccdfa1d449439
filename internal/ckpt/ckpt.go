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
// below, and one 64-bit trailer word over every byte before it. All
// words are little-endian. Floats are stored at their native storage
// precision (float32 columns cost 4 bytes per value), so a checkpoint is
// approximately the size of the live store.
//
// A checkpoint is one pass over memory each way. The Writer appends into
// a caller-supplied byte slice, filling each column in one loop, and
// Finish seals the body. The slice is allocated once at its exact length
// (Size runs the same section writers counting instead of storing), and
// a job reuses it across its saves.
// Restore reads the header, verifies the trailer once over the complete
// buffer, and only then decodes the sections straight from the verified
// bytes; every declared length is checked against the bytes that remain
// before it sizes anything, so no input can make a restore allocate more
// than its own length.
//
// The trailer is CRC-32C (Castagnoli) in the high half and CRC-32 (IEEE)
// in the low half. Both run in hardware on amd64 and arm64 — on a 2-vCPU
// x86-64 VM they checksum a 3.5 MB checkpoint at about 21 GB/s each,
// where the byte-serial FNV-1a of format version 2 ran at 0.7 GB/s and
// was half of the encode. Two polynomials keep the trailer 64 bits wide,
// as FNV's was, so random damage slips past with probability 2^-64; each
// CRC on its own detects every burst of up to 32 bits, which FNV does
// not guarantee. A CRC is a checksum against accidental damage — torn
// writes, truncation, bit rot — not a MAC.
//
// Version 3 changed only the trailer; the payload bytes are those of
// version 2. Restore reports a checkpoint of another version as
// ErrVersion before it looks at the trailer, so a pre-upgrade checkpoint
// is a version error, not corruption.
//
// Layering: this package owns the encoding and the codecs for the shared
// containers (store, reservoir, stream, accumulator, engine counters);
// each backend composes them with its own domain scalars — see
// sim.WriteCheckpoint and sim3.WriteCheckpoint — and internal/run adds
// job-progress sections around a backend checkpoint to make whole
// ensemble jobs resumable.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

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
	var z F
	if _, ok := any(z).(float32); ok {
		return PrecF32
	}
	return PrecF64
}

// floatSize is the byte width of one stored F.
func floatSize[F kernel.Float]() int {
	if PrecOf[F]() == PrecF32 {
		return 4
	}
	return 8
}

const (
	// headerSize is the byte length of the five header words.
	headerSize = 5 * 8
	// trailerSize is the checksum trailer's byte length.
	trailerSize = 8
)

// castagnoli is the CRC-32C table; crc32 uses the SSE4.2/ARMv8 CRC
// instructions for it where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seal returns the trailer word of a checkpoint body.
func seal(body []byte) uint64 {
	return uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(body))
}

// ErrCorrupt reports bytes that are not a sealed checkpoint: too short,
// without the magic, or not matching their checksum trailer — a torn
// write, a truncation, bit damage.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// ErrVersion reports a checkpoint written by a different format version.
// Callers with a cheap recompute path (the job resume) treat it like
// corruption — discard and start fresh — instead of failing hard.
var ErrVersion = errors.New("ckpt: unsupported format version")

// ErrShape reports a checkpoint/simulation shape mismatch.
var ErrShape = errors.New("ckpt: checkpoint does not match the simulation shape")

// Restore is how checkpoint bytes reach a simulation — the standalone
// restores and the job resume alike: verify, then apply. The header's
// magic (ErrCorrupt) and format version (ErrVersion) are read first; then
// the complete buffer is checked against its trailer (ErrCorrupt) and the
// header against the restoring simulation's kind, precision and cell
// count (ErrShape), all before apply reads one section, so a damaged,
// pre-upgrade or foreign checkpoint leaves the simulation untouched.
// apply decodes from the verified bytes, and Restore fails unless it
// consumed every one of them.
func Restore(data []byte, kind Kind, prec Prec, cells int, apply func(*Reader) error) error {
	if len(data) < headerSize+trailerSize {
		return fmt.Errorf("%w: %d bytes is shorter than a header and trailer", ErrCorrupt, len(data))
	}
	body := data[:len(data)-trailerSize]
	r := &Reader{b: body}
	if m := r.U64(); m != Magic {
		return fmt.Errorf("%w: bad magic %#016x", ErrCorrupt, m)
	}
	if v := r.U64(); v != uint64(Version) {
		return fmt.Errorf("%w %d (this build reads version %d)", ErrVersion, v, Version)
	}
	if got, want := binary.LittleEndian.Uint64(data[len(body):]), seal(body); got != want {
		return fmt.Errorf("%w: trailer %#016x, the body seals to %#016x", ErrCorrupt, got, want)
	}
	if k := r.U64(); k != uint64(kind) {
		return fmt.Errorf("%w: kind %d, simulation wants %d", ErrShape, k, kind)
	}
	if p := r.U64(); p != uint64(prec) {
		return fmt.Errorf("%w: precision %d, simulation wants %d", ErrShape, p, prec)
	}
	if c := r.U64(); c != uint64(cells) {
		return fmt.Errorf("%w: %d cells, simulation has %d", ErrShape, c, cells)
	}
	if err := apply(r); err != nil {
		return err
	}
	return r.close()
}

// Writer appends a checkpoint to a byte slice. Encoding cannot fail: the
// sections only append.
type Writer struct {
	buf   []byte
	start int // offset of this checkpoint's header in buf
	// sizing marks the writer Size runs sections through: it counts the
	// bytes in n instead of storing them.
	sizing bool
	n      int
}

// NewWriter appends the header (magic, version, kind, precision, cells)
// to dst and returns a writer positioned at the first section. cells pins
// the grid size so a checkpoint cannot be restored into a differently
// shaped simulation. A caller that saves repeatedly passes its previous
// Finish result resliced to zero length: the next checkpoint of the same
// simulation reuses the buffer unless the state has outgrown it.
func NewWriter(dst []byte, kind Kind, prec Prec, cells int) *Writer {
	w := &Writer{buf: dst, start: len(dst)}
	w.U64(Magic)
	w.U64(uint64(Version))
	w.U64(uint64(kind))
	w.U64(uint64(prec))
	w.U64(uint64(cells))
	return w
}

// Size returns the length of the sealed checkpoint whose sections the
// function writes, by running it through a writer that counts the bytes
// instead of storing them. Callers size a buffer once with it rather than
// grow one by appending, which leaves a chain of discarded copies behind
// and up to a quarter of the buffer unused.
func Size(sections func(*Writer)) int {
	w := &Writer{sizing: true}
	sections(w)
	return headerSize + w.n + trailerSize
}

// grow extends the buffer by n bytes and returns them for the caller to
// fill; a sizing writer counts them and returns nil.
func (w *Writer) grow(n int) []byte {
	if w.sizing {
		w.n += n
		return nil
	}
	w.buf = slices.Grow(w.buf, n)
	m := len(w.buf)
	w.buf = w.buf[:m+n]
	return w.buf[m:]
}

// U64 writes one unsigned word.
func (w *Writer) U64(v uint64) {
	if w.sizing {
		w.n += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 writes one signed word.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes one float64 by IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a boolean as one word, 0 or 1.
func (w *Writer) Bool(v bool) {
	var u uint64
	if v {
		u = 1
	}
	w.U64(u)
}

// The column writers below fill xs[:len(b)/size]: all of xs, or nothing
// for a sizing writer.

// I32s writes an int32 slice (length-prefixed).
func (w *Writer) I32s(xs []int32) {
	w.U64(uint64(len(xs)))
	b := w.grow(4 * len(xs))
	for i, x := range xs[:len(b)/4] {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

// F64s writes a float64 slice (length-prefixed).
func (w *Writer) F64s(xs []float64) {
	w.U64(uint64(len(xs)))
	b := w.grow(8 * len(xs))
	for i, x := range xs[:len(b)/8] {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// Floats writes a column at its native storage precision
// (length-prefixed): float32 values cost 4 bytes, float64 values 8.
func Floats[F kernel.Float](w *Writer, xs []F) {
	w.U64(uint64(len(xs)))
	b := w.grow(floatSize[F]() * len(xs))
	if PrecOf[F]() == PrecF32 {
		for i, x := range xs[:len(b)/4] {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(x)))
		}
		return
	}
	for i, x := range xs[:len(b)/8] {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(float64(x)))
	}
}

// zeroFloats writes what Floats writes for a column of n zeros, without
// the column.
func zeroFloats[F kernel.Float](w *Writer, n int) {
	w.U64(uint64(n))
	clear(w.grow(floatSize[F]() * n))
}

// Finish appends the trailer and returns the buffer: dst as passed to
// NewWriter, followed by the sealed checkpoint.
func (w *Writer) Finish() []byte {
	w.U64(seal(w.buf[w.start:]))
	return w.buf
}

// Reader decodes the sections of a checkpoint Restore has verified,
// straight from its bytes. Errors are sticky: the first structural error
// is remembered, later reads return zeros, and Err reports it, so section
// readers can decode a run of words and check once.
type Reader struct {
	b   []byte // header and sections, trailer excluded
	off int
	err error
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// take consumes the next n bytes; nil once an error is set.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.err = fmt.Errorf("ckpt: a %d-byte read at offset %d overruns the %d-byte checkpoint", n, r.off, len(r.b))
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// count reads a declared element count and checks that count elements of
// size bytes fit in what remains, so no length can size an allocation
// beyond the input.
func (r *Reader) count(what string, size int) int {
	n := r.U64()
	if rem := len(r.b) - r.off; r.err == nil && n > uint64(rem/size) {
		r.err = fmt.Errorf("ckpt: %s of %d declared, %d bytes remain", what, n, rem)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// column reads a length-prefixed column of exactly n elements of size
// bytes and returns its bytes; nil on error.
func (r *Reader) column(what string, n, size int) []byte {
	if m := r.count(what, size); r.err == nil && m != n {
		r.err = fmt.Errorf("%w: %s of %d values, want %d", ErrShape, what, m, n)
	}
	return r.take(n * size)
}

// U64 reads one unsigned word.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads one signed word.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads one float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean; a word other than 0 or 1 is an error, so every
// accepted checkpoint re-encodes to its own bytes.
func (r *Reader) Bool() bool {
	v := r.U64()
	if v > 1 && r.err == nil {
		r.err = fmt.Errorf("ckpt: boolean word %d at offset %d", v, r.off-8)
	}
	return v == 1
}

// I32s reads a column written by Writer.I32s into dst, which it must fill
// exactly.
func (r *Reader) I32s(dst []int32) {
	b := r.column("int32 column", len(dst), 4)
	if r.err != nil {
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// F64s reads a column written by Writer.F64s into dst, which it must fill
// exactly.
func (r *Reader) F64s(dst []float64) {
	b := r.column("float64 column", len(dst), 8)
	if r.err != nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// ReadFloats reads a column written by Floats into dst, which it must
// fill exactly.
func ReadFloats[F kernel.Float](r *Reader, dst []F) {
	b := r.column("float column", len(dst), floatSize[F]())
	if r.err != nil {
		return
	}
	if PrecOf[F]() == PrecF32 {
		for i := range dst {
			dst[i] = F(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
		return
	}
	for i := range dst {
		dst[i] = F(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
	}
}

// readZeroFloats consumes a column of n values written by Floats without
// storing it, and reports whether every value was +0 — how a store
// without a column reads the one the stream always has.
func readZeroFloats[F kernel.Float](r *Reader, n int) bool {
	var bits byte
	for _, x := range r.column("float column", n, floatSize[F]()) {
		bits |= x
	}
	return bits == 0
}

// close reports the first decoding error, or bytes that no section read.
func (r *Reader) close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("ckpt: %d bytes after the last section", len(r.b)-r.off)
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
	n := r.count("particle count", floatSize[F]())
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
	n := r.count("reservoir", 5*8)
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
	w.F64s(count)
	w.F64s(momX)
	w.F64s(momY)
	w.F64s(momZ)
	w.F64s(enrg)
}

// ReadAccumulator restores an accumulator written by WriteAccumulator.
// The accumulator must cover the same grid (equal column lengths; a
// different length is ErrShape).
func ReadAccumulator(r *Reader, a *sample.Accumulator) error {
	count, momX, momY, momZ, enrg := a.Raw()
	steps := int(r.U64())
	for _, col := range [][]float64{count, momX, momY, momZ, enrg} {
		r.F64s(col)
	}
	if r.Err() != nil {
		return r.Err()
	}
	a.Steps = steps
	return nil
}
