package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"testing"

	"dsmc/internal/ckpt"
	"dsmc/internal/frame"
	"dsmc/internal/geom"
	"dsmc/internal/golden"
	"dsmc/internal/grid"
	"dsmc/internal/kernel"
	"dsmc/internal/sample"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

func config2D() sim.Config {
	cfg := sim.DefaultConfig(1)
	cfg.NX, cfg.NY = 48, 24
	cfg.Wedge = &geom.Wedge{LeadX: 10, Base: 12, Angle: 30 * 3.14159265358979323846 / 180}
	cfg.NPerCell = 4
	cfg.Seed = 7
	return cfg
}

func config3D() sim3.Config {
	return sim3.Config{
		NX: 40, NY: 4, NZ: 4,
		Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131,
		NPerCell: 6, Seed: 99,
	}
}

// roundTrip2D runs the acceptance sequence at one precision: run(100)
// must hash identically to run(50) + checkpoint + restore-into-fresh +
// run(50), with the restoring simulation at a different worker count.
func roundTrip2D[F kernel.Float](t *testing.T, saveWorkers, loadWorkers int) {
	t.Helper()
	cfg := config2D()
	cfg.Workers = saveWorkers

	straight, err := sim.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight.Run(100)
	want := golden.HashSim2D(straight)

	half, err := sim.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	half.Run(50)
	var buf bytes.Buffer
	if err := half.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	midHash := golden.HashSim2D(half)

	cfg.Workers = loadWorkers
	restored, err := sim.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := golden.HashSim2D(restored); got != midHash {
		t.Fatalf("restored state hash %#016x != checkpointed %#016x", got, midHash)
	}
	restored.Run(50)
	if got := golden.HashSim2D(restored); got != want {
		t.Fatalf("run(100) hash %#016x, run(50)+save+load+run(50) hash %#016x", want, got)
	}
}

func roundTrip3D[F kernel.Float](t *testing.T, saveWorkers, loadWorkers int) {
	t.Helper()
	cfg := config3D()
	cfg.Workers = saveWorkers

	straight, err := sim3.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight.Run(100)
	want := golden.HashSim3D(straight)

	half, err := sim3.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	half.Run(50)
	var buf bytes.Buffer
	if err := half.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	cfg.Workers = loadWorkers
	restored, err := sim3.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	restored.Run(50)
	if got := golden.HashSim3D(restored); got != want {
		t.Fatalf("run(100) hash %#016x, run(50)+save+load+run(50) hash %#016x", want, got)
	}
}

// TestRoundTrip2D is the acceptance matrix: both precisions, checkpoint
// taken at 1 and 8 workers, restored at 8 and 1 (restore must not care).
func TestRoundTrip2D(t *testing.T) {
	t.Run("float64/w1-to-w8", func(t *testing.T) { roundTrip2D[float64](t, 1, 8) })
	t.Run("float64/w8-to-w1", func(t *testing.T) { roundTrip2D[float64](t, 8, 1) })
	t.Run("float32/w1-to-w8", func(t *testing.T) { roundTrip2D[float32](t, 1, 8) })
	t.Run("float32/w8-to-w1", func(t *testing.T) { roundTrip2D[float32](t, 8, 1) })
}

func TestRoundTrip3D(t *testing.T) {
	t.Run("float64/w1-to-w8", func(t *testing.T) { roundTrip3D[float64](t, 1, 8) })
	t.Run("float64/w8-to-w1", func(t *testing.T) { roundTrip3D[float64](t, 8, 1) })
	t.Run("float32/w1-to-w8", func(t *testing.T) { roundTrip3D[float32](t, 1, 8) })
	t.Run("float32/w8-to-w1", func(t *testing.T) { roundTrip3D[float32](t, 8, 1) })
}

// TestDiffuseVibrationalRoundTrip covers the remaining randomness-
// consuming domain paths: diffuse-isothermal walls (per-particle wall
// streams) and vibrational relaxation (Evib column live), saved at one
// worker and restored at eight.
func TestDiffuseVibrationalRoundTrip(t *testing.T) {
	cfg := config2D()
	cfg.Wall = geom.DiffuseState{Model: geom.DiffuseIsothermal, WallCm: cfg.Free.Cm}
	cfg.ZVib = 5
	cfg.Workers = 1

	straight, err := sim.NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight.Run(40)
	want := golden.HashSim2D(straight)

	half, err := sim.NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	half.Run(20)
	var buf bytes.Buffer
	if err := half.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	restored, err := sim.NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	restored.Run(20)
	if got := golden.HashSim2D(restored); got != want {
		t.Fatalf("diffuse+vibrational resume drifted: %#016x vs %#016x", got, want)
	}
}

// TestVibrationalColumnAcrossStores: the Evib column is always in the
// stream, whatever the stores on either side carry. A vibrational
// checkpoint offered to a simulation without vibrational relaxation is a
// shape error — its energy has nowhere to go — and never a panic; a
// non-vibrational checkpoint restores into a vibrating simulation as the
// zeros it always wrote.
func TestVibrationalColumnAcrossStores(t *testing.T) {
	t.Run("float64", vibColumnAcrossStores[float64])
	t.Run("float32", vibColumnAcrossStores[float32])
}

func vibColumnAcrossStores[F kernel.Float](t *testing.T) {
	plain := config2D()
	vib := config2D()
	vib.ZVib = 5
	build := func(cfg sim.Config) *sim.SimOf[F] {
		s, err := sim.NewOf[F](cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	save := func(cfg sim.Config) []byte {
		s := build(cfg)
		s.Run(3)
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	vibRaw, plainRaw := save(vib), save(plain)

	if err := build(plain).ReadCheckpoint(bytes.NewReader(vibRaw)); !errors.Is(err, ckpt.ErrShape) {
		t.Errorf("vibrational checkpoint into a non-vibrational simulation: %v, want ErrShape", err)
	}
	if err := build(plain).ReadCheckpoint(bytes.NewReader(plainRaw)); err != nil {
		t.Errorf("non-vibrational round trip: %v", err)
	}
	s := build(vib)
	if err := s.ReadCheckpoint(bytes.NewReader(plainRaw)); err != nil || s.TotalVibEnergy() != 0 {
		t.Errorf("non-vibrational checkpoint into a vibrating simulation: vibrational energy %v, err %v", s.TotalVibEnergy(), err)
	}
}

func checkpoint2D(t *testing.T, cfg sim.Config, steps int) []byte {
	t.Helper()
	s, err := sim.NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorruptionDetected flips single bytes across the stream and
// demands every corruption is caught (checksum or structural error).
func TestCorruptionDetected(t *testing.T) {
	cfg := config2D()
	raw := checkpoint2D(t, cfg, 5)
	s, err := sim.NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{8, 48, len(raw) / 2, len(raw) - 4} {
		cp := append([]byte(nil), raw...)
		cp[off] ^= 0x40
		if err := s.ReadCheckpoint(bytes.NewReader(cp)); err == nil {
			t.Errorf("corruption at byte %d went undetected", off)
		}
	}
	// Truncation must be caught too.
	if err := s.ReadCheckpoint(bytes.NewReader(raw[:len(raw)-9])); err == nil {
		t.Error("truncated checkpoint went undetected")
	}
}

// TestShapeMismatches: restoring across kinds, precisions or grids fails
// loudly rather than silently producing garbage.
func TestShapeMismatches(t *testing.T) {
	cfg := config2D()
	raw := checkpoint2D(t, cfg, 3)

	t.Run("wrong-precision", func(t *testing.T) {
		s32, err := sim.NewOf[float32](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s32.ReadCheckpoint(bytes.NewReader(raw)); err == nil {
			t.Error("float64 checkpoint restored into float32 simulation")
		}
	})
	t.Run("wrong-kind", func(t *testing.T) {
		s3, err := sim3.NewOf[float64](config3D())
		if err != nil {
			t.Fatal(err)
		}
		if err := s3.ReadCheckpoint(bytes.NewReader(raw)); err == nil {
			t.Error("2D checkpoint restored into 3D simulation")
		}
	})
	t.Run("wrong-grid", func(t *testing.T) {
		other := cfg
		other.NX = 32
		s, err := sim.NewOf[float64](other)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReadCheckpoint(bytes.NewReader(raw)); err == nil {
			t.Error("48-wide checkpoint restored into 32-wide simulation")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		s, err := sim.NewOf[float64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = s.ReadCheckpoint(strings.NewReader("this is not a checkpoint at all........"))
		if err == nil {
			t.Error("garbage stream accepted as checkpoint")
		}
	})
}

// TestSizeIsExact: frame.Size counts exactly the bytes the sections
// encode to, header and trailer included, for every section kind — both
// column precisions, the Evib column live and written as zeros, 3D's Z
// column — though nothing but a counter sees them.
func TestSizeIsExact(t *testing.T) {
	vib := config2D()
	vib.ZVib = 5
	s64, err := sim.NewOf[float64](config2D())
	if err != nil {
		t.Fatal(err)
	}
	s32, err := sim.NewOf[float32](vib)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := sim3.NewOf[float64](config3D())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		run      func(int)
		sections func(*ckpt.Writer)
		write    func(io.Writer) error
	}{
		{"2D/float64", s64.Run, s64.CheckpointSections, s64.WriteCheckpoint},
		{"2D/float32/vibrational", s32.Run, s32.CheckpointSections, s32.WriteCheckpoint},
		{"3D/float64", s3.Run, s3.CheckpointSections, s3.WriteCheckpoint},
	} {
		tc.run(4)
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := frame.Size(tc.sections) + 3*8; got != buf.Len() { // + the shape words
			t.Errorf("%s: Size says %d bytes, the checkpoint is %d", tc.name, got, buf.Len())
		}
	}
}

// TestHugeReservoirRejected: a correctly sealed checkpoint that declares
// a reservoir far beyond its own bytes is an error before anything is
// sized from the count — the restore allocates less than twice the input,
// not the 40 GiB the count asks for.
func TestHugeReservoirRejected(t *testing.T) {
	s, err := sim.NewOf[float64](config2D())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	cells := s.Grid().Cells()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf, ckpt.Kind2D, ckpt.PrecF64, cells)
	ckpt.WriteEngine(w, s.Engine)
	w.F64(0)       // plunger position
	w.U64(1 << 30) // reservoir count: 1<<30 velocities of 40 bytes
	w.Finish()
	data := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = ckpt.Restore(data, ckpt.Kind2D, ckpt.PrecF64, cells, s.RestoreSections)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a checkpoint declaring 1<<30 reservoir entries restored")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 2*uint64(len(data)) {
		t.Errorf("rejecting it allocated %d bytes, input is %d", d, len(data))
	}
}

// TestAccumulatorRoundTrip: the sampling state checkpoints bit-for-bit
// (the piece that makes mid-sampling job resume exact).
func TestAccumulatorRoundTrip(t *testing.T) {
	cfg := config2D()
	s, err := sim.NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(cfg.NX, cfg.NY)
	acc := sample.NewAccumulator(g, s.Volumes(), cfg.NPerCell)
	for k := 0; k < 5; k++ {
		s.Step()
		s.SampleInto(acc)
	}

	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf, ckpt.KindJob, ckpt.PrecF64, g.Cells())
	ckpt.WriteAccumulator(w, acc)
	w.Finish()
	data := buf.Bytes()

	acc2 := sample.NewAccumulator(g, s.Volumes(), cfg.NPerCell)
	err = ckpt.Restore(data, ckpt.KindJob, ckpt.PrecF64, g.Cells(), func(r *ckpt.Reader) error {
		return ckpt.ReadAccumulator(r, acc2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc2.Steps != acc.Steps {
		t.Fatalf("steps %d != %d", acc2.Steps, acc.Steps)
	}
	d1, d2 := acc.Density(), acc2.Density()
	for c := range d1 {
		if d1[c] != d2[c] {
			t.Fatalf("density[%d] %v != %v after round trip", c, d2[c], d1[c])
		}
	}
}

// fnv64a hashes a checkpoint's bytes.
func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// asVersion2 returns the bytes format version 2 would have written for
// a version-3 checkpoint: the same payload, the version word 2, and the
// FNV-1a trailer — exactly what a build before the CRC trailer writes.
func asVersion2(v3 []byte) []byte {
	b := bytes.Clone(v3)
	binary.LittleEndian.PutUint64(b[8:16], 2)
	body := b[:len(b)-8]
	binary.LittleEndian.PutUint64(b[len(body):], fnv64a(body))
	return b
}

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

// TestCheckpointBytesPinned: the payload bytes of non-vibrational
// checkpoints are the ones the engine wrote while every store still
// carried a (zero) Evib column — the constants were recorded at commit
// dc0ba4b, before the column became optional, as hashes of whole
// format-version-2 files. Version 3 changed only the version word and
// the trailer, so each checkpoint is hashed after asVersion2 sets the
// word back to 2 and re-seals it with FNV-1a: the payload has not moved.
func TestCheckpointBytesPinned(t *testing.T) {
	cfg := config2D()
	cfg.Workers = 2
	s64, err := sim.NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := sim.NewOf[float32](cfg)
	if err != nil {
		t.Fatal(err)
	}
	c3 := config3D()
	c3.Workers = 2
	s3, err := sim3.NewOf[float64](c3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		run   func(int)
		write func(io.Writer) error
		want  uint64
	}{
		{"2D/float64", s64.Run, s64.WriteCheckpoint, 0xf6dc2de00b70d850},
		{"2D/float32", s32.Run, s32.WriteCheckpoint, 0x966d6014a73b8fab},
		{"3D/float64", s3.Run, s3.WriteCheckpoint, 0x134a9628fb3f1e8e},
	} {
		tc.run(12)
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fnv64a(asVersion2(buf.Bytes())); got != tc.want {
			t.Errorf("%s: checkpoint bytes hash %#016x (%d bytes), recorded %#016x", tc.name, got, buf.Len(), tc.want)
		}
	}
}
