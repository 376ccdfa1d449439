package frame_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"dsmc"
	"dsmc/internal/frame"
	"dsmc/internal/store"
)

// reseal rewrites b's trailer to match its body: CRC-32C of the body in
// the high half, CRC-32 (IEEE) in the low half.
func reseal(b []byte) {
	if len(b) < 8 {
		return
	}
	body := b[:len(b)-8]
	binary.LittleEndian.PutUint64(b[len(body):],
		uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))<<32|uint64(crc32.ChecksumIEEE(body)))
}

// lastSave keeps a copy of the last checkpoint a job saved.
type lastSave struct{ data []byte }

func (s *lastSave) Load() ([]byte, error) { return nil, nil }
func (s *lastSave) Save(data []byte) error {
	s.data = bytes.Clone(data)
	return nil
}
func (s *lastSave) Discard() error { return nil }

// realFrames runs one small checkpointed replica job and returns its last
// job checkpoint and its encoded output: a frame of each format.
func realFrames(f *testing.F) (ckpt, output []byte) {
	sc := dsmc.PaperWedgeTunnel()
	sc.GridNX, sc.GridNY = 12, 6
	sc.Wedge = dsmc.WedgeSpec{LeadX: 3, Base: 4, AngleDeg: 30}
	sc.ParticlesPerCell = 1
	sc.Seed = 5
	ss, err := dsmc.NewScenarioSpec(sc)
	if err != nil {
		f.Fatal(err)
	}
	spec := dsmc.SweepSpec{Scenario: ss, Replicas: 1, WarmSteps: 2, SampleSteps: 2, CheckpointEvery: 2}
	var saved lastSave
	out, err := dsmc.RunSweepJob(context.Background(), spec, 0, 0, dsmc.SweepJobIO{Checkpoint: &saved})
	if err != nil {
		f.Fatal(err)
	}
	return saved.data, store.EncodeOutput(out)
}

// read drives r's reading methods in the order ops names them, until the
// reader fails or ops runs out; a method taking a length takes it from
// the op's high bits, so lengths 0-31 are tried.
func read(r *frame.Reader, ops []byte) {
	for _, op := range ops {
		if r.Err() != nil {
			return
		}
		n := int(op >> 3)
		switch op & 7 {
		case 0:
			r.U64()
		case 1:
			r.Count("fuzzed values", 1+n)
		case 2:
			r.Text()
		case 3:
			r.I32s(make([]int32, n))
		case 4:
			frame.ReadFloats(r, make([]float32, n))
		case 5:
			frame.ReadFloats(r, make([]float64, n))
		case 6:
			r.NewF64s()
		case 7:
			frame.ReadZeroFloats[float64](r, n)
		}
	}
	r.Close()
}

// FuzzOpen feeds arbitrary bytes to frame.Open under the magic and
// version of both of the repository's frames, then reads them with
// every length-reading Reader method in an order the fuzzer picks.
// Every input is re-sealed first, so mutations reach the reader instead
// of stopping at the trailer. Properties: nothing panics; opening and
// reading allocate at most twice the input plus 64 KiB; and a frame a
// Writer makes of the input's words and tail reopens to the same words
// and tail. The seeds are a real job checkpoint, a real replica output,
// that output truncated, and that output at the next format version.
func FuzzOpen(f *testing.F) {
	ckpt, output := realFrames(f)
	type format struct {
		magic   uint64
		version uint32
	}
	var formats []format
	for _, b := range [][]byte{ckpt, output} {
		formats = append(formats, format{binary.LittleEndian.Uint64(b), uint32(binary.LittleEndian.Uint64(b[8:]))})
	}
	truncated := bytes.Clone(output[:len(output)/2])
	reseal(truncated)
	bumped := bytes.Clone(output)
	binary.LittleEndian.PutUint64(bumped[8:], uint64(formats[1].version)+1)
	reseal(bumped)
	for i, b := range [][]byte{ckpt, output} {
		if _, err := frame.Open(b, formats[i].magic, formats[i].version); err != nil {
			f.Fatalf("a real frame does not open: %v", err)
		}
	}
	if _, err := frame.Open(bumped, formats[1].magic, formats[1].version); !errors.Is(err, frame.ErrVersion) {
		f.Fatalf("the next version opens with %v, want frame.ErrVersion", err)
	}
	ops := []byte{0, 0, 1 | 1<<3, 6, 2, 3 | 4<<3, 5 | 2<<3, 4 | 3<<3, 7 | 1<<3}
	for _, seed := range [][]byte{ckpt, output, truncated, bumped} {
		f.Add(seed, ops)
	}

	f.Fuzz(func(t *testing.T, data, ops []byte) {
		data = bytes.Clone(data)
		reseal(data)
		for _, ft := range formats {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if r, err := frame.Open(data, ft.magic, ft.version); err == nil {
				read(r, ops)
			}
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d > 2*uint64(len(data))+1<<16 {
				t.Fatalf("opening and reading %d bytes allocated %d", len(data), d)
			}
		}

		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		tail := string(data[8*len(words):])
		var buf bytes.Buffer
		w := frame.NewWriter(&buf, formats[0].magic, formats[0].version)
		for _, v := range words {
			w.U64(v)
		}
		w.Text(tail)
		frame.Floats(w, []float64{math.Float64frombits(uint64(len(words)))})
		w.Finish()
		r, err := frame.Open(buf.Bytes(), formats[0].magic, formats[0].version)
		if err != nil {
			t.Fatalf("a written frame does not open: %v", err)
		}
		for i, v := range words {
			if got := r.U64(); got != v {
				t.Fatalf("word %d reopened as %#x, written %#x", i, got, v)
			}
		}
		if got := r.Text(); got != tail {
			t.Fatalf("tail reopened as %q, written %q", got, tail)
		}
		if got := r.NewF64s(); len(got) != 1 || math.Float64bits(got[0]) != uint64(len(words)) {
			t.Fatalf("float column reopened as %v", got)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("a written frame does not read back whole: %v", err)
		}
	})
}
