package frame_test

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/run"
	"dsmc/internal/sample"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
	"dsmc/internal/store"
)

// lastCkpt keeps a copy of the last job checkpoint it is given as bytes:
// a store without SaveStream.
type lastCkpt struct{ data bytes.Buffer }

func (s *lastCkpt) Load() ([]byte, error) { return nil, nil }
func (s *lastCkpt) Save(data []byte) error {
	s.data.Reset()
	s.data.Write(data)
	return nil
}
func (s *lastCkpt) Discard() error { return nil }

// streamCkpt is lastCkpt with the streaming half of run.CkptStore.
type streamCkpt struct{ lastCkpt }

func (s *streamCkpt) SaveStream(write func(io.Writer) error) error {
	s.data.Reset()
	return write(&s.data)
}

// pinnedScenarios are the shapes whose frames are pinned: both column
// precisions of the 2D wind tunnel with and without the vibrational
// (Evib) column, and of the 3D shock tube, which writes its Evib column
// as zeros. Each checkpoint spans several 64 KiB chunks.
func pinnedScenarios() []run.Scenario {
	var scs []run.Scenario
	for _, f32 := range []bool{false, true} {
		for _, zvib := range []float64{0, 5} {
			cfg := sim.DefaultConfig(1)
			cfg.NX, cfg.NY = 48, 24
			cfg.Wedge = &geom.Wedge{LeadX: 10, Base: 12, Angle: 30 * math.Pi / 180}
			cfg.NPerCell = 4
			cfg.ZVib = zvib
			cfg.Seed = 7
			scs = append(scs, run.Scenario{Name: "2D", Sim: &cfg, Float32: f32})
		}
		cfg3 := sim3.Config{NX: 40, NY: 4, NZ: 4, Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131, NPerCell: 6, Seed: 99}
		scs = append(scs, run.Scenario{Name: "3D", Sim3: &cfg3, Float32: f32})
	}
	return scs
}

// pinnedFrames builds, for every pinned scenario, a standalone
// checkpoint after 12 steps, the checkpoint of a one-replica job at its
// tenth and last step (streamed, and as bytes to a store without
// SaveStream), and the job's encoded output.
func pinnedFrames(t *testing.T) map[string][]byte {
	t.Helper()
	frames := map[string][]byte{}
	for i, sc := range pinnedScenarios() {
		name := func(what string) string {
			prec := "float64"
			if sc.Float32 {
				prec = "float32"
			}
			vib := ""
			if sc.Sim != nil && sc.Sim.ZVib > 0 {
				vib = "/evib"
			}
			return what + "/" + sc.Name + "/" + prec + vib
		}

		rp, err := run.Open(sc, 7+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		rp.Run(12)
		var buf bytes.Buffer
		if err := rp.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		frames[name("standalone")] = buf.Bytes()

		spec := run.Spec{
			Name:            "pinned",
			Scenarios:       []run.Scenario{sc},
			Quantities:      []string{sample.QDensity, sample.QTemperature},
			Replicas:        1,
			WarmSteps:       5,
			SampleSteps:     5,
			BaseSeed:        1988,
			Pool:            1,
			CheckpointEvery: 4,
		}
		out, err := run.RunJob(context.Background(), spec, 0, 0, run.JobIO{})
		if err != nil {
			t.Fatal(err)
		}
		// A finished job saves nothing after its last step, so the
		// step-10 checkpoint is the interrupt save of a job cancelled
		// after its tenth step: the same state, the same bytes.
		streamed, kept := &streamCkpt{}, &lastCkpt{}
		for _, st := range []run.CkptStore{streamed, kept} {
			ctx := &cancelAfterStep10{Context: context.Background()}
			arm := func(done, _ int) { ctx.armed = ctx.armed || done == 8 }
			if _, err := run.RunJob(ctx, spec, 0, 0, run.JobIO{Ckpt: st, Progress: arm}); !errors.Is(err, context.Canceled) {
				t.Fatalf("job cancelled after its tenth step returned %v, want %v", err, context.Canceled)
			}
		}
		frames[name("job")] = streamed.data.Bytes()
		frames[name("job-bytes")] = kept.data.Bytes()
		frames[name("output")] = store.EncodeOutput(out)
	}
	return frames
}

// cancelAfterStep10 stops the 10-step, checkpoint-every-4 job of
// pinnedFrames after its tenth step. It is armed when Progress reports
// step 8; the job then checks Err before its last chunk and after steps
// 9 and 10, and the third check is the first to answer Canceled.
type cancelAfterStep10 struct {
	context.Context
	armed bool
	errs  int
}

func (c *cancelAfterStep10) Err() error {
	if !c.armed {
		return nil
	}
	if c.errs++; c.errs < 3 {
		return nil
	}
	return context.Canceled
}

// fnv64 is the FNV-1a hash of b.
func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
