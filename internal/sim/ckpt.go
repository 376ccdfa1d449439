package sim

import (
	"io"

	"dsmc/internal/ckpt"
)

// CheckpointSections writes the wind tunnel's full mutable state as
// sections of an open checkpoint stream: the engine counters and store,
// then the 2D domain state — plunger position, reservoir contents, and
// the serial RNG stream that feeds reservoir deposits and the plunger
// refill. Callers that embed a simulation inside a larger checkpoint
// (internal/run wraps job progress around one) use this; standalone
// checkpoints go through WriteCheckpoint.
func (s *SimOf[F]) CheckpointSections(w *ckpt.Writer) {
	ckpt.WriteEngine(w, s.Engine)
	w.F64(s.dom.plungerX)
	ckpt.WriteReservoir(w, s.dom.res)
	ckpt.WriteStream(w, s.dom.r.State())
}

// RestoreSections restores state written by CheckpointSections into a
// simulation built from the same configuration. Any worker count works:
// per-phase randomness is counter-based, so no worker-local state exists
// to restore — continuing from the restored state is bit-identical to
// never having stopped.
func (s *SimOf[F]) RestoreSections(r *ckpt.Reader) error {
	if err := ckpt.ReadEngine(r, s.Engine); err != nil {
		return err
	}
	s.dom.plungerX = r.F64()
	if err := ckpt.ReadReservoir(r, s.dom.res); err != nil {
		return err
	}
	s.dom.r.SetState(ckpt.ReadStream(r))
	return r.Err()
}

// WriteCheckpoint streams a standalone checkpoint of the simulation to
// wr, from the live columns through the frame's fixed chunk.
func (s *SimOf[F]) WriteCheckpoint(wr io.Writer) error {
	w := ckpt.NewWriter(wr, ckpt.Kind2D, ckpt.PrecOf[F](), s.grid.Cells())
	s.CheckpointSections(w)
	return w.Finish()
}

// ReadCheckpoint restores a standalone checkpoint into the simulation,
// which must have been built from the same configuration (same grid,
// same precision; the worker count is free to differ). The stream is
// read whole and verified before any of it is applied: a failed restore
// leaves the simulation as it was.
func (s *SimOf[F]) ReadCheckpoint(rd io.Reader) error {
	data, err := io.ReadAll(rd)
	if err != nil {
		return err
	}
	return ckpt.Restore(data, ckpt.Kind2D, ckpt.PrecOf[F](), s.grid.Cells(), s.RestoreSections)
}
