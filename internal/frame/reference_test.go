package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"testing"

	"dsmc/internal/frame"
)

// referenceWriter is the frame writer as it was before frames streamed:
// it appends the whole frame to one byte slice and seals it at the end.
// It is kept, less its sizing mode, as the oracle the streaming Writer
// must match byte for byte.
type referenceWriter struct {
	buf   []byte
	start int // offset of this frame's magic word in buf
}

func newReferenceWriter(dst []byte, magic uint64, version uint32) *referenceWriter {
	w := &referenceWriter{buf: dst, start: len(dst)}
	w.U64(magic)
	w.U64(uint64(version))
	return w
}

func (w *referenceWriter) grow(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	m := len(w.buf)
	w.buf = w.buf[:m+n]
	return w.buf[m:]
}

func (w *referenceWriter) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *referenceWriter) I64(v int64) { w.U64(uint64(v)) }

func (w *referenceWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

func (w *referenceWriter) Bool(v bool) {
	var u uint64
	if v {
		u = 1
	}
	w.U64(u)
}

func (w *referenceWriter) Text(s string) {
	w.U64(uint64(len(s)))
	copy(w.grow(len(s)), s)
}

func (w *referenceWriter) I32s(xs []int32) {
	w.U64(uint64(len(xs)))
	b := w.grow(4 * len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

func referenceFloats[F frame.Float](w *referenceWriter, xs []F) {
	w.U64(uint64(len(xs)))
	b := w.grow(frame.Width[F]() * len(xs))
	if frame.Width[F]() == 4 {
		for i, x := range xs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(x)))
		}
		return
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(float64(x)))
	}
}

func referenceZeroFloats[F frame.Float](w *referenceWriter, n int) {
	w.U64(uint64(n))
	clear(w.grow(frame.Width[F]() * n))
}

func (w *referenceWriter) Finish() []byte {
	body := w.buf[w.start:]
	w.U64(uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(body)))
	return w.buf
}

// chunk is the streaming Writer's staging size, 64 KiB.
const chunk = 64 << 10

// The value kinds a frame holds, as ops both writers apply.
const (
	opU64 = iota
	opI64
	opF64
	opBool
	opText
	opI32s
	opF32s
	opF64s
	opZeroF32s
	opZeroF64s
	numOps
)

// op is one value written: its kind, and for a byte string or column its
// length; v seeds the value bits.
type op struct {
	kind byte
	n    int
	v    uint64
}

// bits returns the i-th pseudo-random word of a value seeded by v
// (splitmix64), so columns carry NaNs, infinities, subnormals and signed
// zeros as well as ordinary numbers.
func bits(v uint64, i int) uint64 {
	z := v + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// write applies ops to a streaming writer on a fresh buffer and to a
// reference writer, and returns both sealed frames.
func write(ops []op) (streamed, reference []byte) {
	const magic, version = 0x4652414d45544553, 7
	var buf bytes.Buffer
	w := frame.NewWriter(&buf, magic, version)
	r := newReferenceWriter(nil, magic, version)
	for _, o := range ops {
		switch o.kind {
		case opU64:
			w.U64(o.v)
			r.U64(o.v)
		case opI64:
			w.I64(int64(o.v))
			r.I64(int64(o.v))
		case opF64:
			w.F64(math.Float64frombits(o.v))
			r.F64(math.Float64frombits(o.v))
		case opBool:
			w.Bool(o.v&1 == 1)
			r.Bool(o.v&1 == 1)
		case opText:
			b := make([]byte, o.n)
			for i := range b {
				b[i] = byte(bits(o.v, i))
			}
			w.Text(string(b))
			r.Text(string(b))
		case opI32s:
			xs := make([]int32, o.n)
			for i := range xs {
				xs[i] = int32(bits(o.v, i))
			}
			w.I32s(xs)
			r.I32s(xs)
		case opF32s:
			xs := make([]float32, o.n)
			for i := range xs {
				xs[i] = math.Float32frombits(uint32(bits(o.v, i)))
			}
			frame.Floats(w, xs)
			referenceFloats(r, xs)
		case opF64s:
			xs := make([]float64, o.n)
			for i := range xs {
				xs[i] = math.Float64frombits(bits(o.v, i))
			}
			frame.Floats(w, xs)
			referenceFloats(r, xs)
		case opZeroF32s:
			frame.ZeroFloats[float32](w, o.n)
			referenceZeroFloats[float32](r, o.n)
		case opZeroF64s:
			frame.ZeroFloats[float64](w, o.n)
			referenceZeroFloats[float64](r, o.n)
		}
	}
	if err := w.Finish(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes(), r.Finish()
}

// width is the bytes per element of a byte-string or column op.
func width(kind byte) int {
	switch kind {
	case opText:
		return 1
	case opI32s, opF32s, opZeroF32s:
		return 4
	}
	return 8
}

// TestStreamMatchesReference: every value kind streams to the bytes the
// reference writer appends. Each byte string and column is written at
// lengths 0 and 1, one short of, exactly and one past what fills a
// chunk, at what ends exactly on the first chunk boundary, and at a
// length spanning three chunks that ends on none; each after a 3-byte
// string as well, so boundaries fall inside elements too. A run of
// scalar words fills more than a chunk on its own.
func TestStreamMatchesReference(t *testing.T) {
	check := func(name string, ops []op) {
		t.Helper()
		got, want := write(ops)
		if !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: the stream differs from the reference at byte %d (%d bytes, want %d)", name, i, len(got), len(want))
		}
		if _, err := frame.Open(got, 0x4652414d45544553, 7); err != nil {
			t.Errorf("%s: the streamed frame does not open: %v", name, err)
		}
	}

	for kind := byte(opText); kind < numOps; kind++ {
		size := width(kind)
		for _, pad := range []int{0, 3} {
			var prefix []op
			before := 16 + 8 // the header and the column's count
			if pad > 0 {
				prefix = []op{{kind: opText, n: pad, v: 1}}
				before += 8 + pad
			}
			per := chunk / size
			for _, n := range []int{0, 1, per - 1, per, per + 1, (chunk - before) / size, 3*per + 5} {
				ops := append(slices.Clone(prefix), op{kind: kind, n: n, v: uint64(n)}, op{kind: opU64, v: 42})
				check(fmtCase(kind, pad, n), ops)
			}
		}
	}

	var scalars []op
	for i := range 3 * chunk / 8 / 2 {
		scalars = append(scalars, op{kind: byte(i % 4), v: bits(5, i)})
	}
	check("scalars", scalars)
}

func fmtCase(kind byte, pad, n int) string {
	names := [numOps]string{"U64", "I64", "F64", "Bool", "Text", "I32s", "Floats[float32]", "Floats[float64]", "ZeroFloats[float32]", "ZeroFloats[float64]"}
	return fmt.Sprintf("%s(%d) after %d pad bytes", names[kind], n, pad)
}

// failAt passes the first n bytes written through to w, then fails.
type failAt struct {
	w io.Writer
	n int
}

var errSinkFull = errors.New("sink full")

func (f *failAt) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k, _ := f.w.Write(p[:f.n])
		f.n = 0
		return k, errSinkFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestStreamSinkError: a sink that fails at byte k has received the
// frame's first k bytes and no more, whatever was written after, and
// Finish reports the sink's error.
func TestStreamSinkError(t *testing.T) {
	stream := func(sink io.Writer) error {
		w := frame.NewWriter(sink, 0x4652414d45544553, 7)
		frame.Floats(w, make([]float64, 3*chunk/8))
		w.Text("after the failure")
		return w.Finish()
	}
	var whole bytes.Buffer
	stream(&whole)
	for _, k := range []int{0, 1, chunk - 1, chunk, chunk + 1, whole.Len() - 1} {
		var got bytes.Buffer
		if err := stream(&failAt{&got, k}); !errors.Is(err, errSinkFull) {
			t.Errorf("failing at byte %d: Finish returned %v, want the sink's error", k, err)
		}
		if !bytes.Equal(got.Bytes(), whole.Bytes()[:k]) {
			t.Errorf("failing at byte %d: the sink took %d bytes, not the frame's first %d", k, got.Len(), k)
		}
	}
}

// TestPinnedFrames: checkpoints and replica outputs stream to the bytes
// the reference writer made of them. The hashes were recorded at the
// commit before frames streamed, whose Writer was the reference writer:
// standalone and job checkpoints of 2D and 3D simulations at both
// precisions, with and without the Evib column, and the jobs' encoded
// outputs. A job checkpoint handed as bytes to a store without
// SaveStream is the streamed one.
func TestPinnedFrames(t *testing.T) {
	want := map[string]uint64{
		"job-bytes/2D/float32":       0xbbd9161d7f4839bc,
		"job-bytes/2D/float32/evib":  0x58e7e828b8d56cb8,
		"job-bytes/2D/float64":       0x55ab6572fe4bad16,
		"job-bytes/2D/float64/evib":  0x81857b7a00cbeac6,
		"job-bytes/3D/float32":       0x6c8d98d8fe343412,
		"job-bytes/3D/float64":       0xfdf924ddef17c106,
		"job/2D/float32":             0xbbd9161d7f4839bc,
		"job/2D/float32/evib":        0x58e7e828b8d56cb8,
		"job/2D/float64":             0x55ab6572fe4bad16,
		"job/2D/float64/evib":        0x81857b7a00cbeac6,
		"job/3D/float32":             0x6c8d98d8fe343412,
		"job/3D/float64":             0xfdf924ddef17c106,
		"output/2D/float32":          0x3130a62f3e3a7ffc,
		"output/2D/float32/evib":     0x65b428ed2b1fa7eb,
		"output/2D/float64":          0x516eef569b32f997,
		"output/2D/float64/evib":     0x8a980058e7f7d0c0,
		"output/3D/float32":          0xe37fc5e739d99e06,
		"output/3D/float64":          0x5e9fb26bbb4b1dfe,
		"standalone/2D/float32":      0xf36e01e10347bb40,
		"standalone/2D/float32/evib": 0x14a6054c44146c8e,
		"standalone/2D/float64":      0x7ed1e4a3186f7b2c,
		"standalone/2D/float64/evib": 0x9574798465d6af7e,
		"standalone/3D/float32":      0xf34a6df54ae2c8aa,
		"standalone/3D/float64":      0x695452d5a9a86915,
	}
	frames := pinnedFrames(t)
	if len(frames) != len(want) {
		t.Errorf("%d frames built, %d pinned", len(frames), len(want))
	}
	for name, data := range frames {
		if got := fnv64(data); got != want[name] {
			t.Errorf("%s: %d bytes hash to %#016x, pinned %#016x", name, len(data), got, want[name])
		}
		magic, version := binary.LittleEndian.Uint64(data), uint32(binary.LittleEndian.Uint64(data[8:]))
		if _, err := frame.Open(data, magic, version); err != nil {
			t.Errorf("%s: does not open: %v", name, err)
		}
	}
}

// FuzzStreamWriter decodes a sequence of writes from the fuzzed bytes —
// three bytes an op: the kind, then a length of up to 64 Ki elements —
// streams it, and checks that the frame equals the reference writer's
// and that frame.Open accepts it. A sequence stops growing at 2 MiB.
func FuzzStreamWriter(f *testing.F) {
	f.Add([]byte{opU64, 0, 0, opText, 3, 0, opF64s, 0xfd, 0x1f, opI32s, 1, 0})
	f.Add([]byte{opF32s, 0xff, 0x3f, opZeroF64s, 0x01, 0x20, opBool, 1, 0, opF64, 9, 9})
	f.Add([]byte{opText, 0xff, 0xff, opZeroF32s, 0xfa, 0x3f, opI64, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []op
		total := 0
		for i := 0; i+3 <= len(data) && total < 2<<20; i += 3 {
			o := op{kind: data[i] % numOps, n: int(binary.LittleEndian.Uint16(data[i+1:])), v: bits(uint64(data[i]), i)}
			ops = append(ops, o)
			total += 8 + o.n*width(o.kind)
		}
		got, want := write(ops)
		if !bytes.Equal(got, want) {
			t.Fatalf("the stream of %d ops differs from the reference (%d bytes, want %d)", len(ops), len(got), len(want))
		}
		if _, err := frame.Open(got, 0x4652414d45544553, 7); err != nil {
			t.Fatalf("the streamed frame does not open: %v", err)
		}
	})
}
