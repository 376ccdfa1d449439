package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
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

// The binary replica-output codec (the coordinator's upload format and
// the store's at-rest "out" artifact format — one frame, PR 7's
// DSMCOUT1). JSON cannot carry the outputs — ShockAngleDeg is NaN for
// scenarios without a wedge — and the sweep's bit-identity guarantee
// makes "almost the same float" a corruption, so outputs travel as raw
// IEEE-754 bits with a checksum trailer:
//
//	magic "DSMCOUT1"
//	u32 field count, then per field (sorted by name):
//	  u32 name length, name bytes, u32 cell count, cells × u64 float bits
//	u64 shock angle bits, u64 collisions, u64 nflow
//	u64 FNV-1a of everything before the trailer
const outputMagic = "DSMCOUT1"

// EncodeOutput serializes a replica output bit-exactly. The encoding is
// canonical (fields sorted by name), so identical results produce
// identical bytes — the property the content-addressed index relies on
// to make racing publishes of one key converge.
func EncodeOutput(o *Output) []byte {
	names := make([]string, 0, len(o.Fields))
	for name := range o.Fields {
		names = append(names, name)
	}
	sort.Strings(names)

	size := len(outputMagic) + 4
	for _, name := range names {
		size += 4 + len(name) + 4 + 8*len(o.Fields[name])
	}
	size += 8 * 4
	buf := make([]byte, 0, size)
	buf = append(buf, outputMagic...)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(uint32(len(names)))
	for _, name := range names {
		u32(uint32(len(name)))
		buf = append(buf, name...)
		col := o.Fields[name]
		u32(uint32(len(col)))
		for _, v := range col {
			u64(math.Float64bits(v))
		}
	}
	u64(math.Float64bits(o.ShockAngleDeg))
	u64(uint64(o.Collisions))
	u64(uint64(o.NFlow))
	h := fnv.New64a()
	h.Write(buf)
	u64(h.Sum64())
	return buf
}

// DecodeOutput parses an encoded replica output, verifying the checksum
// before trusting any of it.
func DecodeOutput(data []byte) (*Output, error) {
	if len(data) < len(outputMagic)+4+8*4 || string(data[:len(outputMagic)]) != outputMagic {
		return nil, errors.New("store: malformed output (bad magic or truncated)")
	}
	h := fnv.New64a()
	h.Write(data[:len(data)-8])
	if h.Sum64() != binary.LittleEndian.Uint64(data[len(data)-8:]) {
		return nil, errors.New("store: output checksum mismatch")
	}
	p := data[len(outputMagic) : len(data)-8]
	fail := errors.New("store: malformed output (truncated)")
	u32 := func() (uint32, error) {
		if len(p) < 4 {
			return 0, fail
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, nil
	}
	u64 := func() (uint64, error) {
		if len(p) < 8 {
			return 0, fail
		}
		v := binary.LittleEndian.Uint64(p)
		p = p[8:]
		return v, nil
	}
	nf, err := u32()
	if err != nil {
		return nil, err
	}
	out := &Output{Fields: make(map[string][]float64, nf)}
	for i := uint32(0); i < nf; i++ {
		nl, err := u32()
		if err != nil || len(p) < int(nl) {
			return nil, fail
		}
		name := string(p[:nl])
		p = p[nl:]
		cells, err := u32()
		if err != nil || len(p) < 8*int(cells) {
			return nil, fail
		}
		col := make([]float64, cells)
		for c := range col {
			col[c] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*c:]))
		}
		p = p[8*int(cells):]
		if _, dup := out.Fields[name]; dup {
			return nil, fmt.Errorf("store: malformed output (duplicate field %q)", name)
		}
		out.Fields[name] = col
	}
	angle, err := u64()
	if err != nil {
		return nil, err
	}
	colls, err := u64()
	if err != nil {
		return nil, err
	}
	nflow, err := u64()
	if err != nil {
		return nil, err
	}
	if len(p) != 0 {
		return nil, errors.New("store: malformed output (trailing bytes)")
	}
	out.ShockAngleDeg = math.Float64frombits(angle)
	out.Collisions = int64(colls)
	out.NFlow = int(nflow)
	return out, nil
}
