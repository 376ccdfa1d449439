package sim3

import (
	"io"

	"dsmc/internal/ckpt"
)

// CheckpointSections writes the shock tube's full mutable state as
// sections of an open checkpoint stream: the engine counters and store,
// then the single 3D domain scalar — the piston position. The tube is
// closed (no reservoir) and its boundaries consume no serial randomness,
// so that is the entire domain state.
func (s *SimOf[F]) CheckpointSections(w *ckpt.Writer) {
	ckpt.WriteEngine(w, s.Engine)
	w.F64(s.dom.pistonX)
}

// RestoreSections restores state written by CheckpointSections into a
// simulation built from the same configuration, at any worker count.
func (s *SimOf[F]) RestoreSections(r *ckpt.Reader) error {
	if err := ckpt.ReadEngine(r, s.Engine); err != nil {
		return err
	}
	s.dom.pistonX = r.F64()
	return r.Err()
}

// WriteCheckpoint streams a standalone checkpoint of the simulation to
// wr, from the live columns through the frame's fixed chunk.
func (s *SimOf[F]) WriteCheckpoint(wr io.Writer) error {
	w := ckpt.NewWriter(wr, ckpt.Kind3D, ckpt.PrecOf[F](), s.grid.Cells())
	s.CheckpointSections(w)
	return w.Finish()
}

// ReadCheckpoint restores a standalone checkpoint into the simulation,
// which must have been built from the same configuration (same box,
// same precision; the worker count is free to differ). The stream is
// read whole and verified before any of it is applied: a failed restore
// leaves the simulation as it was.
func (s *SimOf[F]) ReadCheckpoint(rd io.Reader) error {
	data, err := io.ReadAll(rd)
	if err != nil {
		return err
	}
	return ckpt.Restore(data, ckpt.Kind3D, ckpt.PrecOf[F](), s.grid.Cells(), s.RestoreSections)
}
