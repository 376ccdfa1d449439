package frame

import (
	"bytes"
	"math"
	"testing"
)

// TestColumnCopyMatchesElementLoop: the one-copy column paths a
// little-endian host takes write the bytes of the element loops a
// big-endian host takes, and read them back to the same bits, for both
// float precisions and int32, at lengths that cross a staging chunk.
// NaN payloads, infinities and signed zeros come from raw bit patterns.
func TestColumnCopyMatchesElementLoop(t *testing.T) {
	defer func(le bool) { littleEndian = le }(littleEndian)
	const n = chunkSize/4 + 3
	f32, f64, i32 := make([]float32, n), make([]float64, n), make([]int32, n)
	z := uint64(49)
	for i := range n {
		z = z*6364136223846793005 + 1442695040888963407
		f32[i], f64[i], i32[i] = math.Float32frombits(uint32(z>>32)), math.Float64frombits(z), int32(z>>16)
	}
	encode := func(le bool) []byte {
		littleEndian = le
		var buf bytes.Buffer
		w := NewWriter(&buf, 1, 1)
		Floats(w, f32)
		Floats(w, f64)
		w.I32s(i32)
		Floats(w, []float64{})
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	loop, copied := encode(false), encode(true)
	if !bytes.Equal(loop, copied) {
		t.Fatalf("the column copy writes other bytes than the element loop")
	}
	for _, le := range []bool{false, true} {
		littleEndian = le
		r, err := Open(copied, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		g32, g64, gi := make([]float32, n), make([]float64, n), make([]int32, n)
		ReadFloats(r, g32)
		ReadFloats(r, g64)
		r.I32s(gi)
		empty := r.NewF64s()
		if err := r.Close(); err != nil {
			t.Fatalf("littleEndian=%v: %v", le, err)
		}
		for i := range n {
			if math.Float32bits(g32[i]) != math.Float32bits(f32[i]) || math.Float64bits(g64[i]) != math.Float64bits(f64[i]) || gi[i] != i32[i] {
				t.Fatalf("littleEndian=%v: element %d reads back as (%x, %x, %d), wrote (%x, %x, %d)", le, i,
					math.Float32bits(g32[i]), math.Float64bits(g64[i]), gi[i], math.Float32bits(f32[i]), math.Float64bits(f64[i]), i32[i])
			}
		}
		if len(empty) != 0 {
			t.Fatalf("littleEndian=%v: the empty column reads %d values", le, len(empty))
		}
	}
}
