package dsmc

import (
	"bufio"
	"encoding/json"
	"io"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
)

// WriteSweepResult is the one function that turns a sweep result into
// bytes: indented JSON and a trailing newline, exactly
// json.MarshalIndent(res, "", " ") and '\n' — the representation dsmcd
// stores and serves. It streams the result through one 64 KiB buffer and
// never holds the encoding whole. A NaN or infinite value is an error, as
// it is for encoding/json; w may then have taken a prefix of the bytes.
// Changing what it writes requires bumping resultEncoding.
func WriteSweepResult(w io.Writer, res *SweepResult) error {
	j := newJSONWriter(w)
	sep := "{"
	if res.Name != "" {
		j.member(sep, 0, "name")
		j.value(1, res.Name)
		sep = ","
	}
	j.member(sep, 0, "points")
	j.array(1, len(res.Points), res.Points == nil, func(i int) { j.point(2, &res.Points[i]) })
	j.close(0, '}')
	return j.flush()
}

// WriteQuantityView writes one sampled quantity's per-point field
// statistics, dsmcd's /result?quantity= representation:
//
//	{"quantity": q, "points": [{"name", "kind", "field"}, …]}
//
// exactly as json.Encoder with SetIndent("", " ") encodes that shape,
// newline included ("kind" is omitted when empty, "points" is null for a
// result without points, and a point that did not sample q carries a
// zero field). Stored views are keyed by these bytes, so they must not
// change.
func WriteQuantityView(w io.Writer, res *SweepResult, q Quantity) error {
	j := newJSONWriter(w)
	j.member("{", 0, "quantity")
	j.value(1, string(q))
	j.member(",", 0, "points")
	j.array(1, len(res.Points), len(res.Points) == 0, func(i int) {
		p := &res.Points[i]
		j.member("{", 2, "name")
		j.value(3, p.Name)
		if p.Kind != "" {
			j.member(",", 2, "kind")
			j.value(3, p.Kind)
		}
		j.member(",", 2, "field")
		fs := p.Fields[q]
		j.field(3, &fs)
		j.close(2, '}')
	})
	j.close(0, '}')
	return j.flush()
}

// jsonWriter writes indented JSON (indent " ", no prefix) through one
// fixed buffer. Each method takes the depth of the value it writes; the
// first error sticks, and flush reports it.
type jsonWriter struct {
	w       *bufio.Writer
	scratch []byte // one number or one line break with its indentation
	err     error
}

// indents holds the leading whitespace of every depth a result reaches.
const indents = "\n        "

func newJSONWriter(w io.Writer) *jsonWriter {
	return &jsonWriter{w: bufio.NewWriterSize(w, 64<<10), scratch: make([]byte, 0, 32)}
}

// flush ends the document with its newline and writes out the buffer.
func (j *jsonWriter) flush() error {
	if j.err != nil {
		return j.err
	}
	j.w.WriteByte('\n')
	return j.w.Flush()
}

// line writes sep and a line break indented to depth d.
func (j *jsonWriter) line(sep string, d int) {
	j.w.WriteString(sep)
	j.w.WriteString(indents[:1+d])
}

// member starts the member key of an object at depth d: sep is "{" for
// the first member and "," for the others. Keys are the struct tags'
// names, which need no escaping.
func (j *jsonWriter) member(sep string, d int, key string) {
	j.line(sep, d+1)
	j.w.WriteByte('"')
	j.w.WriteString(key)
	j.w.WriteString(`": `)
}

// close ends a non-empty object or array at depth d.
func (j *jsonWriter) close(d int, c byte) {
	j.line("", d)
	j.w.WriteByte(c)
}

// value writes v at depth d as encoding/json does, so strings are
// escaped and structs laid out by encoding/json itself.
func (j *jsonWriter) value(d int, v any) {
	if j.err != nil {
		return
	}
	b, err := json.MarshalIndent(v, indents[1:1+d], " ")
	if err != nil {
		j.err = err
		return
	}
	j.w.Write(b)
}

func (j *jsonWriter) int(n int) {
	j.scratch = strconv.AppendInt(j.scratch[:0], int64(n), 10)
	j.w.Write(j.scratch)
}

// float writes x as encoding/json's float64 encoder does: like an
// ECMAScript number, with exponent notation outside [1e-6, 1e21).
func (j *jsonWriter) float(x float64) {
	if j.err != nil {
		return
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		j.err = &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
		return
	}
	format := byte('f')
	if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(j.scratch[:0], x, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-07 → e-7
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	j.scratch = b
	j.w.Write(b)
}

// array writes an array of n elements at depth d, each by elem at depth
// d+1, or null when null is set; an empty array is [].
func (j *jsonWriter) array(d, n int, null bool, elem func(i int)) {
	switch {
	case null:
		j.w.WriteString("null")
	case n == 0:
		j.w.WriteString("[]")
	default:
		sep := "["
		for i := 0; i < n && j.err == nil; i++ {
			j.line(sep, d+1)
			elem(i)
			sep = ","
		}
		j.close(d, ']')
	}
}

func (j *jsonWriter) field(d int, fs *FieldStats) {
	j.member("{", d, "nx")
	j.int(fs.NX)
	j.member(",", d, "ny")
	j.int(fs.NY)
	if fs.NZ != 0 {
		j.member(",", d, "nz")
		j.int(fs.NZ)
	}
	for _, col := range []struct {
		key string
		xs  []float64
	}{{"mean", fs.Mean}, {"variance", fs.Variance}, {"ci95", fs.CI95}} {
		j.member(",", d, col.key)
		j.array(d+1, len(col.xs), col.xs == nil, func(i int) { j.float(col.xs[i]) })
	}
	j.close(d, '}')
}

func (j *jsonWriter) point(d int, p *PointResult) {
	j.member("{", d, "name")
	j.value(d+1, p.Name)
	if p.Kind != "" {
		j.member(",", d, "kind")
		j.value(d+1, p.Kind)
	}
	j.member(",", d, "replicas")
	j.int(p.Replicas)
	j.member(",", d, "density")
	j.field(d+1, &p.Density)
	if len(p.Fields) > 0 {
		j.member(",", d, "fields")
		sep := "{"
		for _, q := range slices.Sorted(maps.Keys(p.Fields)) {
			j.line(sep, d+2)
			j.value(d+2, string(q))
			j.w.WriteString(": ")
			fs := p.Fields[q]
			j.field(d+2, &fs)
			sep = ","
		}
		j.close(d+1, '}')
	}
	for _, s := range []struct {
		key string
		v   ScalarStats
	}{{"shock_angle_deg", p.ShockAngleDeg}, {"collisions", p.Collisions}, {"nflow", p.NFlow}} {
		j.member(",", d, s.key)
		j.value(d+1, s.v)
	}
	j.close(d, '}')
}
