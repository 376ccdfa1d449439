package store_test

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

// realOutput runs the first replica job of a two-step sweep over sc and
// returns its output. The grids are a few dozen cells, so a seed is a few
// kilobytes and a mutation costs microseconds.
func realOutput(f *testing.F, sc dsmc.Scenario, qs ...dsmc.Quantity) *store.Output {
	ss, err := dsmc.NewScenarioSpec(sc)
	if err != nil {
		f.Fatal(err)
	}
	spec := dsmc.SweepSpec{Scenario: ss, Quantities: qs, Replicas: 1, WarmSteps: 2, SampleSteps: 2}
	out, err := dsmc.RunSweepJob(context.Background(), spec, 0, 0, dsmc.SweepJobIO{})
	if err != nil {
		f.Fatal(err)
	}
	return out
}

// FuzzDecodeOutput feeds arbitrary bytes to the replica-output decoder.
// Every input is re-sealed with a valid trailer first, so mutations reach
// the field decoder instead of stopping at the checksum. Properties:
// DecodeOutput never panics, never allocates more than twice the input
// plus 64 KiB, and an output it accepts re-encodes to exactly its own
// bytes. The seeds are real outputs — the 2D wedge with five fields, the
// 3D tube, the empty tunnel (no wedge: a NaN shock angle), the wedge's
// diagnostics with zero fields — and two frames that must be rejected,
// the wedge's with two field names swapped and with one name repeated;
// plain go test runs them.
func FuzzDecodeOutput(f *testing.F) {
	wedge := dsmc.PaperWedgeTunnel()
	wedge.GridNX, wedge.GridNY = 12, 6
	wedge.Wedge = dsmc.WedgeSpec{LeadX: 3, Base: 4, AngleDeg: 30}
	wedge.ParticlesPerCell = 2
	wedge.Seed = 5
	tube := dsmc.ShockTube3D{
		GridNX: 8, GridNY: 2, GridNZ: 2,
		ThermalSpeed: 0.125, MeanFreePath: 0.5, PistonSpeed: 0.131,
		ParticlesPerCell: 2, Seed: 3,
	}
	empty := dsmc.EmptyTunnel2D{
		GridNX: 12, GridNY: 6, Mach: wedge.Mach, ThermalSpeed: wedge.ThermalSpeed,
		MeanFreePath: wedge.MeanFreePath, ParticlesPerCell: 2, Seed: 9,
	}

	w := realOutput(f, wedge, dsmc.Density, dsmc.VelocityX, dsmc.VelocityY, dsmc.Temperature, dsmc.MachNumber)
	e := realOutput(f, empty)
	if !math.IsNaN(e.ShockAngleDeg) {
		f.Fatalf("the empty tunnel's shock angle is %v, want NaN", e.ShockAngleDeg)
	}
	bare := &store.Output{ShockAngleDeg: w.ShockAngleDeg, Collisions: w.Collisions, NFlow: w.NFlow}
	for _, o := range []*store.Output{w, realOutput(f, tube, dsmc.Density, dsmc.VelocityZ), e, bare} {
		seed := store.EncodeOutput(o)
		resealed := bytes.Clone(seed)
		reseal(resealed)
		if !bytes.Equal(resealed, seed) {
			f.Fatal("the writer's trailer is not CRC-32C‖CRC-32 of the body")
		}
		back, err := store.DecodeOutput(seed)
		if err != nil {
			f.Fatalf("seed does not decode: %v", err)
		}
		if !bytes.Equal(store.EncodeOutput(back), seed) {
			f.Fatal("seed does not re-encode to its own bytes")
		}
		f.Add(seed)
	}
	// "velocity-x" and "velocity-y" are adjacent names of one length.
	// Swapping them, or naming both "velocity-x", leaves a well-formed
	// frame whose names do not ascend strictly, which a lax decoder would
	// accept and re-encode differently.
	seed := store.EncodeOutput(w)
	i := bytes.Index(seed, []byte(dsmc.VelocityX))
	j := bytes.Index(seed, []byte(dsmc.VelocityY))
	for _, names := range [][2]dsmc.Quantity{{dsmc.VelocityY, dsmc.VelocityX}, {dsmc.VelocityX, dsmc.VelocityX}} {
		bad := bytes.Clone(seed)
		copy(bad[i:], names[0])
		copy(bad[j:], names[1])
		reseal(bad)
		if _, err := store.DecodeOutput(bad); !errors.Is(err, frame.ErrMalformed) {
			f.Fatalf("fields named %q then %q: %v, want frame.ErrMalformed", names[0], names[1], err)
		}
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		reseal(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := store.DecodeOutput(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 2*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if err != nil {
			return
		}
		if got := store.EncodeOutput(out); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(got))
		}
	})
}
