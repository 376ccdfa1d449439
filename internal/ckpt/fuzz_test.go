package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"dsmc/internal/ckpt"
	"dsmc/internal/geom"
	"dsmc/internal/grid"
	"dsmc/internal/kernel"
	"dsmc/internal/sample"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

// fuzzTarget is a simulation FuzzRestore restores into: restore applies a
// checkpoint of the target's kind and precision, encode writes the
// target's state back out in the same layout.
type fuzzTarget struct {
	kind    ckpt.Kind
	prec    ckpt.Prec
	restore func([]byte) error
	encode  func() []byte
}

// fuzzConfig2D and fuzzConfig3D keep a seed checkpoint to a few
// kilobytes (tens of particles, a small reservoir), so a mutation and the
// minimisation of a new input cost microseconds.
func fuzzConfig2D() sim.Config {
	cfg := sim.DefaultConfig(1)
	cfg.NX, cfg.NY = 12, 6
	cfg.Wedge = &geom.Wedge{LeadX: 3, Base: 4, Angle: 30 * math.Pi / 180}
	cfg.NPerCell = 1
	cfg.ReservoirCapacity = 32
	cfg.Seed = 5
	cfg.Workers = 1
	return cfg
}

func fuzzConfig3D() sim3.Config {
	return sim3.Config{
		NX: 8, NY: 2, NZ: 2,
		Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131,
		NPerCell: 2, Seed: 3, Workers: 1,
	}
}

// standaloneTarget2D wraps a stepped 2D simulation.
func standaloneTarget2D[F kernel.Float](f *testing.F) fuzzTarget {
	s, err := sim.NewOf[F](fuzzConfig2D())
	if err != nil {
		f.Fatal(err)
	}
	s.Run(6)
	cells := s.Grid().Cells()
	return fuzzTarget{
		kind: ckpt.Kind2D, prec: ckpt.PrecOf[F](),
		restore: func(data []byte) error {
			return ckpt.Restore(data, ckpt.Kind2D, ckpt.PrecOf[F](), cells, s.RestoreSections)
		},
		encode: func() []byte {
			var buf bytes.Buffer
			if err := s.WriteCheckpoint(&buf); err != nil {
				f.Fatal(err)
			}
			return buf.Bytes()
		},
	}
}

// standaloneTarget3D wraps a stepped 3D simulation.
func standaloneTarget3D(f *testing.F) fuzzTarget {
	s, err := sim3.NewOf[float64](fuzzConfig3D())
	if err != nil {
		f.Fatal(err)
	}
	s.Run(6)
	cells := s.Grid().Cells()
	return fuzzTarget{
		kind: ckpt.Kind3D, prec: ckpt.PrecF64,
		restore: func(data []byte) error {
			return ckpt.Restore(data, ckpt.Kind3D, ckpt.PrecF64, cells, s.RestoreSections)
		},
		encode: func() []byte {
			var buf bytes.Buffer
			if err := s.WriteCheckpoint(&buf); err != nil {
				f.Fatal(err)
			}
			return buf.Bytes()
		},
	}
}

// jobTarget wraps a 2D simulation and an accumulator in the job layout
// internal/run writes: seed, spec fingerprint and steps done, the
// simulation's sections, the accumulator.
func jobTarget(f *testing.F) fuzzTarget {
	cfg := fuzzConfig2D()
	s, err := sim.NewOf[float64](cfg)
	if err != nil {
		f.Fatal(err)
	}
	g := grid.New(cfg.NX, cfg.NY)
	acc := sample.NewAccumulator(g, s.Volumes(), cfg.NPerCell)
	for k := 0; k < 6; k++ {
		s.Step()
		s.SampleInto(acc)
	}
	progress := [3]uint64{cfg.Seed, 0x5eed, 6}
	return fuzzTarget{
		kind: ckpt.KindJob, prec: ckpt.PrecF64,
		restore: func(data []byte) error {
			return ckpt.Restore(data, ckpt.KindJob, ckpt.PrecF64, g.Cells(), func(r *ckpt.Reader) error {
				for i := range progress {
					progress[i] = r.U64()
				}
				if err := s.RestoreSections(r); err != nil {
					return err
				}
				return ckpt.ReadAccumulator(r, acc)
			})
		},
		encode: func() []byte {
			var buf bytes.Buffer
			w := ckpt.NewWriter(&buf, ckpt.KindJob, ckpt.PrecF64, g.Cells())
			for _, v := range progress {
				w.U64(v)
			}
			s.CheckpointSections(w)
			ckpt.WriteAccumulator(w, acc)
			w.Finish()
			return buf.Bytes()
		},
	}
}

// FuzzRestore feeds arbitrary bytes to the checkpoint decoder. Every
// input is re-sealed with a valid trailer first, so mutations reach the
// section decoders instead of stopping at the checksum; the header's kind
// and precision pick the simulation it is restored into. Properties:
// Restore never panics, never allocates more than a small multiple of the
// input, and a checkpoint it accepts re-encodes to exactly its own bytes.
// The seeds are real checkpoints — 2D float64, 2D float32, 3D and a job —
// and plain go test runs them.
func FuzzRestore(f *testing.F) {
	targets := []fuzzTarget{
		standaloneTarget2D[float64](f),
		standaloneTarget2D[float32](f),
		standaloneTarget3D(f),
		jobTarget(f),
	}
	for _, tg := range targets {
		seed := tg.encode()
		resealed := bytes.Clone(seed)
		reseal(resealed)
		if !bytes.Equal(resealed, seed) {
			f.Fatalf("kind %d: the writer's trailer is not CRC-32C‖CRC-32 of the body", tg.kind)
		}
		if err := tg.restore(seed); err != nil {
			f.Fatalf("kind %d: seed does not restore: %v", tg.kind, err)
		}
		f.Add(seed)
	}
	// Two seeds the decoder must reject, each a 2D checkpoint with one word
	// changed that a lax decoder would accept and re-encode differently:
	// the last word, the RNG stream's have-spare boolean, reads 2; the X
	// column (after the header, the engine counters, the particle count
	// and the 3D flag) declares one value fewer than the particle count.
	bad := targets[0].encode()
	binary.LittleEndian.PutUint64(bad[len(bad)-16:], 2)
	f.Add(bad)
	short := targets[0].encode()
	const xCount = 5*8 + 4*8
	binary.LittleEndian.PutUint64(short[xCount:], binary.LittleEndian.Uint64(short[xCount:])-1)
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		reseal(data)
		tg := targets[0]
		if len(data) >= 32 {
			kind := binary.LittleEndian.Uint64(data[16:])
			prec := binary.LittleEndian.Uint64(data[24:])
			for _, c := range targets {
				if uint64(c.kind) == kind && uint64(c.prec) == prec {
					tg = c
				}
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tg.restore(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 2*uint64(len(data))+1<<16 {
			t.Fatalf("restoring %d bytes allocated %d", len(data), d)
		}
		if err != nil {
			return
		}
		if got := tg.encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(got))
		}
	})
}
