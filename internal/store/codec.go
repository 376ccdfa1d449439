package store

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"dsmc/internal/frame"
)

// Output is one finished replica job's result as it travels and rests:
// the sampled quantity fields keyed by quantity slug, the fitted shock
// angle (NaN for scenarios without a wedge), and the integer
// diagnostics. The store is the lowest layer that handles outputs, so the
// type is declared here and the layers above alias it (run.ReplicaResult,
// dsmc.ReplicaOutput): one output is computed, stored, shipped and
// aggregated as the same value, never copied between look-alike structs.
type Output struct {
	Fields        map[string][]float64
	ShockAngleDeg float64
	Collisions    int64
	NFlow         int
}

// The binary replica-output codec: the coordinator's upload format and
// the store's at-rest "out" artifact format, one internal/frame frame.
// JSON cannot carry the outputs — ShockAngleDeg is NaN for scenarios
// without a wedge — and the sweep's bit-identity guarantee makes "almost
// the same float" a corruption, so outputs travel as raw IEEE-754 bits:
//
//	magic "DSMC_OUT", version 2
//	u64 field count, then per field, names strictly ascending:
//	  name (byte string), cells (float64 column)
//	f64 shock angle, i64 collisions, i64 nflow
//	trailer
const (
	outputMagic   uint64 = 0x44534d435f4f5554
	outputVersion uint32 = 2
)

// EncodeOutput serializes a replica output bit-exactly. The encoding is
// canonical (fields sorted by name), so identical results produce
// identical bytes — the property the content-addressed index relies on
// to make racing publishes of one key converge.
func EncodeOutput(o *Output) []byte {
	names := slices.Sorted(maps.Keys(o.Fields))
	body := func(w *frame.Writer) {
		w.U64(uint64(len(names)))
		for _, name := range names {
			w.Text(name)
			frame.Floats(w, o.Fields[name])
		}
		w.F64(o.ShockAngleDeg)
		w.I64(o.Collisions)
		w.I64(int64(o.NFlow))
	}
	buf := bytes.NewBuffer(make([]byte, 0, frame.Size(body)))
	w := frame.NewWriter(buf, outputMagic, outputVersion)
	body(w)
	w.Finish() // a bytes.Buffer takes every write
	return buf.Bytes()
}

// DecodeOutput parses an encoded replica output from the bytes its
// trailer verifies. Names must ascend strictly, so every accepted output
// re-encodes to its own bytes.
func DecodeOutput(data []byte) (*Output, error) {
	r, err := frame.Open(data, outputMagic, outputVersion)
	if err != nil {
		return nil, fmt.Errorf("store: replica output: %w", err)
	}
	// A field is at least its two counts: 16 bytes.
	nf := r.Count("field", 16)
	out := &Output{Fields: make(map[string][]float64, nf)}
	prev := ""
	for i := range nf {
		name, col := r.Text(), r.NewF64s()
		if r.Err() != nil {
			break
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("store: replica output: %w: field %q after %q", frame.ErrMalformed, name, prev)
		}
		out.Fields[name], prev = col, name
	}
	out.ShockAngleDeg = r.F64()
	out.Collisions = r.I64()
	out.NFlow = int(r.I64())
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("store: replica output: %w", err)
	}
	return out, nil
}
