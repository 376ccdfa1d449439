// Package frame is the one binary frame of the repository's artifacts,
// checkpoints (internal/ckpt) and replica outputs (internal/store). Each
// format owns its layout; this package owns how values are written, how
// a frame is sealed, and how it is read back without trusting it.
//
// Frames are written as a stream: a Writer stages values in one fixed
// 64 KiB chunk and hands each full chunk to an io.Writer, folding it into
// the trailer's CRCs on the way, so a frame of any size reaches a file
// from the live columns without a frame-sized buffer. A caller that needs
// the bytes writes to a bytes.Buffer.
//
// A frame is a magic word, a format-version word, the format's values and
// a trailer word. Words are 8 bytes little-endian: integers, float64 by
// IEEE-754 bits, booleans as 0 or 1. A column is a u64 count and the
// elements at native width (int32 and float32 4 bytes, float64 8); a byte
// string is a u64 length and the bytes. On a little-endian host a
// column's memory is its frame bytes, so Floats, I32s and their readers
// move a column with one copy; only a big-endian host converts element
// by element.
//
// The trailer is CRC-32C of every byte before it in the high half and
// CRC-32 (IEEE) in the low half: both in hardware, about 21 GB/s each
// over a 3.5 MB checkpoint on a 2-vCPU x86-64 VM, where the byte-serial
// FNV-1a used before ran at 0.7 GB/s. Together 64 bits wide, each detects
// every burst of up to 32 bits. A CRC guards against torn writes,
// truncation and bit rot, not an adversary: any bytes can carry a valid
// trailer, so decoding is bounded. The Reader checks every declared count
// against the remaining bytes before anything is sized from it, reads
// columns of exactly the expected length and booleans of 0 or 1, and
// Close requires every byte consumed — so no input makes a decoder
// allocate beyond a small multiple of its length, and an accepted frame
// re-encodes to its own bytes.
//
//dsmclint:layer frame
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// The frame's error conditions, one value each; a format returns them
// wrapped, so errors.Is holds for a checkpoint and an output alike.
var (
	// ErrCorrupt: too short, another magic, or a trailer that does not match.
	ErrCorrupt = errors.New("frame: corrupt")
	// ErrVersion: the format's magic at another format version.
	ErrVersion = errors.New("frame: unsupported format version")
	// ErrShape: sealed values that do not fit what the reader expects.
	ErrShape = errors.New("frame: values do not match the expected shape")
	// ErrMalformed: sealed bytes that do not parse, or values out of
	// their canonical order.
	ErrMalformed = errors.New("frame: malformed")
)

const (
	headerSize  = 2 * 8 // the magic and version words
	trailerSize = 8
)

// castagnoli is the CRC-32C table; crc32 uses the SSE4.2/ARMv8 CRC
// instructions for it where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seal returns the trailer word of a frame body: the Writer's CRCs,
// computed over the whole body at once.
func seal(body []byte) uint64 {
	return uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(body))
}

// littleEndian reports whether this host lays out words as a frame
// does, least significant byte first; checked once. It is a variable so
// a test can take the big-endian element loops on any host.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// asBytes returns the memory of a column as bytes, without a copy.
func asBytes[T ~int32 | ~float32 | ~float64](xs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(T(0))))
}

// Float is the set of column element types Floats stores at native width.
type Float interface{ ~float32 | ~float64 }

// Width returns the byte width of one stored F.
func Width[F Float]() int {
	var z F
	if _, ok := any(z).(float32); ok {
		return 4
	}
	return 8
}

// chunkSize is the Writer's staging buffer: values are encoded into it
// and reach the sink a chunk at a time, so a frame of any size costs its
// writer this much memory and no more.
const chunkSize = 64 << 10

// Writer streams a frame to an io.Writer. Values are staged in a fixed
// chunk and flushed to the sink when it fills; the trailer's CRCs run
// over each chunk as it is flushed, so nothing the size of the frame is
// ever held. Errors are sticky: after the sink fails, later values are
// dropped and Finish reports the first error. The zero Writer is ready
// for Reset.
type Writer struct {
	sink io.Writer
	buf  []byte // staged bytes, at most chunkSize
	c32c uint32 // CRC-32C of the bytes flushed so far
	c32  uint32 // CRC-32 (IEEE) of the same bytes
	err  error
}

// NewWriter returns a writer streaming a frame to dst, its header (magic
// and version words) staged.
func NewWriter(dst io.Writer, magic uint64, version uint32) *Writer {
	w := new(Writer)
	w.Reset(dst, magic, version)
	return w
}

// Reset starts a new frame on dst and stages its header, reusing w's
// staging buffer: a caller that writes frames repeatedly keeps one
// Writer and allocates its chunk once.
func (w *Writer) Reset(dst io.Writer, magic uint64, version uint32) {
	if w.buf == nil {
		w.buf = make([]byte, 0, chunkSize)
	}
	w.sink, w.buf, w.c32c, w.c32, w.err = dst, w.buf[:0], 0, 0, nil
	w.U64(magic)
	w.U64(uint64(version))
}

// flush hands the staged bytes to the sink and folds them into the CRCs.
func (w *Writer) flush() {
	if w.err == nil && len(w.buf) > 0 {
		w.c32c = crc32.Update(w.c32c, castagnoli, w.buf)
		w.c32 = crc32.Update(w.c32, crc32.IEEETable, w.buf)
		_, w.err = w.sink.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// room returns staging space for at least min bytes, flushing the chunk
// first when less than that is left; the caller fills a prefix of it and
// reslices w.buf over what it filled.
func (w *Writer) room(min int) []byte {
	if cap(w.buf)-len(w.buf) < min {
		w.flush()
	}
	return w.buf[len(w.buf):cap(w.buf)]
}

// U64 writes one unsigned word.
func (w *Writer) U64(v uint64) {
	w.room(8)
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

// Text writes a byte string (length-prefixed).
func (w *Writer) Text(s string) {
	w.U64(uint64(len(s)))
	stage(w, s)
}

// stage copies bytes into the staging chunk, flushing it as it fills.
func stage[B string | []byte](w *Writer, s B) {
	for len(s) > 0 {
		n := copy(w.room(1), s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
}

// I32s writes an int32 slice (length-prefixed).
func (w *Writer) I32s(xs []int32) {
	w.U64(uint64(len(xs)))
	if littleEndian {
		stage(w, asBytes(xs))
		return
	}
	for len(xs) > 0 {
		b := w.room(4)
		n := min(len(b)/4, len(xs))
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
		}
		w.buf, xs = w.buf[:len(w.buf)+4*n], xs[n:]
	}
}

// Floats writes a column at its native storage precision
// (length-prefixed): float32 values cost 4 bytes, float64 values 8.
func Floats[F Float](w *Writer, xs []F) {
	w.U64(uint64(len(xs)))
	if littleEndian {
		stage(w, asBytes(xs))
		return
	}
	size := Width[F]()
	for len(xs) > 0 {
		b := w.room(size)
		n := min(len(b)/size, len(xs))
		if size == 4 {
			for i, x := range xs[:n] {
				binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(x)))
			}
		} else {
			for i, x := range xs[:n] {
				binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(float64(x)))
			}
		}
		w.buf, xs = w.buf[:len(w.buf)+size*n], xs[n:]
	}
}

// ZeroFloats writes what Floats writes for a column of n zeros, without
// the column.
func ZeroFloats[F Float](w *Writer, n int) {
	w.U64(uint64(n))
	for left := Width[F]() * n; left > 0; {
		b := w.room(1)
		k := min(len(b), left)
		clear(b[:k])
		w.buf, left = w.buf[:len(w.buf)+k], left-k
	}
}

// Finish seals the frame: it flushes what is staged, then writes the
// trailer word, and returns the first error the sink reported.
func (w *Writer) Finish() error {
	w.flush()
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(w.c32c)<<32|uint64(w.c32))
	if w.err == nil {
		_, w.err = w.sink.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// counter is a sink that keeps only the number of bytes written to it.
type counter int

func (c *counter) Write(p []byte) (int, error) {
	*c += counter(len(p))
	return len(p), nil
}

// Size returns the length of the sealed frame whose values body writes
// after the header, counted through a sink that keeps no bytes. A caller
// that needs a frame in memory sizes its buffer once with it rather than
// grow one by appending, which leaves discarded copies and slack behind.
func Size(body func(*Writer)) int {
	var n counter
	w := NewWriter(&n, 0, 0)
	body(w)
	w.Finish()
	return int(n)
}

// Open verifies that data is one sealed frame with the given magic and
// version and returns a Reader positioned after the header. The version
// is read before the trailer is checked, so a frame of another version is
// ErrVersion, not ErrCorrupt.
func Open(data []byte, magic uint64, version uint32) (*Reader, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a header and trailer", ErrCorrupt, len(data))
	}
	body := data[:len(data)-trailerSize]
	r := &Reader{b: body}
	if m := r.U64(); m != magic {
		return nil, fmt.Errorf("%w: magic %#016x, want %#016x", ErrCorrupt, m, magic)
	}
	if v := r.U64(); v != uint64(version) {
		return nil, fmt.Errorf("%w %d (this build reads version %d)", ErrVersion, v, version)
	}
	if got, want := binary.LittleEndian.Uint64(data[len(body):]), seal(body); got != want {
		return nil, fmt.Errorf("%w: trailer %#016x, the body seals to %#016x", ErrCorrupt, got, want)
	}
	return r, nil
}

// Reader decodes the values of a frame Open has verified, straight from
// its bytes. Errors are sticky: the first structural error is remembered,
// later reads return zeros, and Err reports it, so a decoder can read a
// run of values and check once.
type Reader struct {
	b   []byte // header and values, trailer excluded
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
		r.err = fmt.Errorf("%w: a %d-byte read at offset %d overruns the %d-byte frame", ErrMalformed, n, r.off, len(r.b))
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// Count reads a declared element count and checks that count elements of
// size bytes fit in what remains, so no count can size an allocation
// beyond the input; 0 once an error is set.
func (r *Reader) Count(what string, size int) int {
	n := r.U64()
	if rem := len(r.b) - r.off; r.err == nil && n > uint64(rem/size) {
		r.err = fmt.Errorf("%w: %s of %d declared, %d bytes remain", ErrMalformed, what, n, rem)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// column reads a length-prefixed column of exactly n elements of size
// bytes and returns its bytes; nil on error.
func (r *Reader) column(what string, n, size int) []byte {
	if m := r.Count(what, size); r.err == nil && m != n {
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
// accepted frame re-encodes to its own bytes.
func (r *Reader) Bool() bool {
	v := r.U64()
	if v > 1 && r.err == nil {
		r.err = fmt.Errorf("%w: boolean word %d at offset %d", ErrMalformed, v, r.off-8)
	}
	return v == 1
}

// Text reads a byte string written by Writer.Text.
func (r *Reader) Text() string {
	return string(r.take(r.Count("byte string", 1)))
}

// I32s reads a column written by Writer.I32s into dst, which it must fill
// exactly.
func (r *Reader) I32s(dst []int32) {
	b := r.column("int32 column", len(dst), 4)
	if r.err != nil {
		return
	}
	if littleEndian {
		copy(asBytes(dst), b)
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// ReadFloats reads a column written by Floats into dst, which it must
// fill exactly.
func ReadFloats[F Float](r *Reader, dst []F) {
	decodeFloats(dst, r.column("float column", len(dst), Width[F]()))
}

// NewF64s reads a float64 column written by Floats, of whatever length
// it declares, into a new slice.
func (r *Reader) NewF64s() []float64 {
	dst := make([]float64, r.Count("float column", 8))
	decodeFloats(dst, r.take(8*len(dst)))
	return dst
}

// decodeFloats fills dst from b, the encoding of exactly len(dst)
// values; nothing when b is nil, the reader having failed.
func decodeFloats[F Float](dst []F, b []byte) {
	if b == nil {
		return
	}
	if littleEndian {
		copy(asBytes(dst), b)
		return
	}
	if Width[F]() == 4 {
		for i := range dst {
			dst[i] = F(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
		return
	}
	for i := range dst {
		dst[i] = F(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
	}
}

// ReadZeroFloats consumes a column of n values written by Floats without
// storing it, and reports whether every value was +0 — how a reader
// without a column reads the one the frame always has.
func ReadZeroFloats[F Float](r *Reader, n int) bool {
	var bits byte
	for _, x := range r.column("float column", n, Width[F]()) {
		bits |= x
	}
	return bits == 0
}

// Close reports the first decoding error, or bytes that no value read.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d bytes after the last value", ErrMalformed, len(r.b)-r.off)
	}
	return nil
}
