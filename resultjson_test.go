package dsmc_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"dsmc"
	"dsmc/internal/store"
)

// marshalOracle is the encoding WriteSweepResult must reproduce byte for
// byte: encoding/json's indented form and a newline.
func marshalOracle(res *dsmc.SweepResult) ([]byte, error) {
	buf, err := json.MarshalIndent(res, "", " ")
	return append(buf, '\n'), err
}

// viewOracle is the encoding WriteQuantityView must reproduce: the
// view's shape through a json.Encoder indented by one space, as dsmcd
// wrote views before they were streamed (stores hold views in it).
func viewOracle(res *dsmc.SweepResult, q dsmc.Quantity) ([]byte, error) {
	type pointView struct {
		Name  string          `json:"name"`
		Kind  string          `json:"kind,omitempty"`
		Field dsmc.FieldStats `json:"field"`
	}
	view := struct {
		Quantity string      `json:"quantity"`
		Points   []pointView `json:"points"`
	}{Quantity: string(q)}
	for _, p := range res.Points {
		view.Points = append(view.Points, pointView{Name: p.Name, Kind: p.Kind, Field: p.Fields[q]})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(view)
	return buf.Bytes(), err
}

// checkAgainstOracles requires WriteSweepResult, and WriteQuantityView
// for the quantities a result carries, to fail exactly when encoding/json
// fails and otherwise to write its bytes.
func checkAgainstOracles(t *testing.T, res *dsmc.SweepResult) {
	t.Helper()
	want, werr := marshalOracle(res)
	var got bytes.Buffer
	gerr := dsmc.WriteSweepResult(&got, res)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("WriteSweepResult error %v, encoding/json error %v", gerr, werr)
	case werr == nil && !bytes.Equal(got.Bytes(), want):
		t.Fatalf("WriteSweepResult differs from MarshalIndent at byte %d:\n got %q\nwant %q",
			firstDiff(got.Bytes(), want), clip(got.Bytes(), want), clip(want, got.Bytes()))
	}
	for _, q := range []dsmc.Quantity{dsmc.Density, dsmc.Temperature, "<q\u2028&>"} {
		want, werr := viewOracle(res, q)
		got.Reset()
		gerr := dsmc.WriteQuantityView(&got, res, q)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("WriteQuantityView(%q) error %v, encoding/json error %v", q, gerr, werr)
		case werr == nil && !bytes.Equal(got.Bytes(), want):
			t.Fatalf("WriteQuantityView(%q) differs from json.Encoder at byte %d:\n got %q\nwant %q",
				q, firstDiff(got.Bytes(), want), clip(got.Bytes(), want), clip(want, got.Bytes()))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// clip is a's bytes around its first difference from b.
func clip(a, b []byte) []byte {
	i := firstDiff(a, b)
	return a[max(0, i-40):min(len(a), i+40)]
}

// edgeFloats are the values where encoding/json's float format changes
// or is easiest to get wrong.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 4.9e-310, 1e-7, -1e-7, 1e-6, 9.999999e-7, 1.5e-300,
	1, -1, 0.1, 1.0 / 3, 123456789, 1e20, 9.99e20, 1e21, -1e21, 1.7e308, math.MaxFloat64, -math.MaxFloat64,
}

// edgeNames exercise encoding/json's string escaping: HTML characters,
// quotes, control characters, U+2028/U+2029 and invalid UTF-8.
var edgeNames = []string{"", "plain", `<a href="x">&amp;</a>`, "line\u2028sep\u2029", "tab\tnul\x00", "bad\xffutf8", `back\slash`}

// randomResult draws a result exercising every encoding choice: nil and
// empty slices, omitted and present NZ, Kind, Fields and Dropped, names
// that need escaping and floats at the format boundaries.
func randomResult(r *rand.Rand) *dsmc.SweepResult {
	name := func() string { return edgeNames[r.IntN(len(edgeNames))] }
	float := func() float64 {
		switch r.IntN(3) {
		case 0:
			return edgeFloats[r.IntN(len(edgeFloats))]
		case 1:
			return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.IntN(0x7ff))<<52) // finite, any exponent
		}
		return r.NormFloat64() * math.Pow(10, float64(r.IntN(50)-25))
	}
	floats := func() []float64 {
		switch r.IntN(6) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		xs := make([]float64, r.IntN(12)+1)
		for i := range xs {
			xs[i] = float()
		}
		return xs
	}
	field := func() dsmc.FieldStats {
		return dsmc.FieldStats{NX: r.IntN(100), NY: r.IntN(3) - 1, NZ: r.IntN(3) * r.IntN(2), Mean: floats(), Variance: floats(), CI95: floats()}
	}
	scalar := func() dsmc.ScalarStats {
		return dsmc.ScalarStats{Mean: float(), Variance: float(), CI95: float(), N: r.IntN(5), Dropped: r.IntN(3) * r.IntN(2)}
	}
	res := &dsmc.SweepResult{Name: name()}
	if r.IntN(5) == 0 {
		if r.IntN(2) == 0 {
			res.Points = []dsmc.PointResult{}
		}
		return res
	}
	for range r.IntN(3) + 1 {
		p := dsmc.PointResult{
			Name: name(), Kind: []string{"", "wedge", "shocktube"}[r.IntN(3)], Replicas: r.IntN(9),
			Density: field(), ShockAngleDeg: scalar(), Collisions: scalar(), NFlow: scalar(),
		}
		switch r.IntN(4) {
		case 0: // nil Fields
		case 1:
			p.Fields = map[dsmc.Quantity]dsmc.FieldStats{}
		default:
			p.Fields = map[dsmc.Quantity]dsmc.FieldStats{}
			for _, q := range []dsmc.Quantity{dsmc.Temperature, dsmc.Density, dsmc.MachNumber, "<q\u2028&>", dsmc.VelocityX} {
				if r.IntN(2) == 0 {
					p.Fields[q] = field()
				}
			}
		}
		res.Points = append(res.Points, p)
	}
	return res
}

// TestWriteSweepResultMatchesMarshal: on generated results covering every
// encoding choice, WriteSweepResult writes exactly MarshalIndent's bytes
// and a newline, and WriteQuantityView exactly the view json.Encoder
// wrote; both fail where encoding/json fails.
func TestWriteSweepResultMatchesMarshal(t *testing.T) {
	for _, x := range edgeFloats {
		checkAgainstOracles(t, &dsmc.SweepResult{Points: []dsmc.PointResult{{
			Density: dsmc.FieldStats{Mean: []float64{x}, Variance: []float64{x, -x}, CI95: []float64{}},
			Fields:  map[dsmc.Quantity]dsmc.FieldStats{dsmc.Density: {NZ: 1, Mean: []float64{x}}},
		}}})
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		checkAgainstOracles(t, randomResult(r))
	}
}

// TestWriteSweepResultNonFinite: a NaN or infinity anywhere in a result
// is an error, as it is for encoding/json, and streaming the result into
// the store then publishes nothing and leaves no temp file.
func TestWriteSweepResultNonFinite(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for j, place := range []func(*dsmc.SweepResult){
			func(res *dsmc.SweepResult) { res.Points[0].Density.Mean[1] = bad },
			func(res *dsmc.SweepResult) { res.Points[1].Fields[dsmc.Temperature].CI95[0] = bad },
			func(res *dsmc.SweepResult) { res.Points[1].ShockAngleDeg.Mean = bad },
		} {
			res := &dsmc.SweepResult{Name: "nonfinite"}
			for range 2 {
				res.Points = append(res.Points, dsmc.PointResult{
					Density: dsmc.FieldStats{Mean: make([]float64, 40000)},
					Fields:  map[dsmc.Quantity]dsmc.FieldStats{dsmc.Temperature: {CI95: []float64{1}}},
				})
			}
			place(res)
			checkAgainstOracles(t, res)
			if err := dsmc.WriteSweepResult(io.Discard, res); !errors.As(err, new(*json.UnsupportedValueError)) {
				t.Errorf("value %v at place %d: error %v, want a *json.UnsupportedValueError", bad, j, err)
			}
			id := "res-nonfinite-" + string(rune('a'+3*i+j))
			if _, _, err := st.PutStream(id, func(w io.Writer) error { return dsmc.WriteSweepResult(w, res) }); err == nil {
				t.Errorf("value %v at place %d: published", bad, j)
			}
			if _, ok := st.Lookup(id); ok {
				t.Errorf("value %v at place %d: the key is indexed", bad, j)
			}
		}
	}
	if n, size := st.Stats(); n != 0 || size != 0 {
		t.Errorf("store holds %d artifacts, %d bytes after failed publishes", n, size)
	}
	objs, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil || len(objs) != 0 {
		t.Errorf("objects/ after failed publishes: %v, %v", objs, err)
	}
}

// FuzzWriteSweepResult holds WriteSweepResult and WriteQuantityView to
// encoding/json on results built from arbitrary bytes: names, kinds and
// every float bit pattern, NaN and infinities included.
func FuzzWriteSweepResult(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add("sweep", "p<0>", "wedge", uint8(0), seed(edgeFloats...))
	f.Add("", "\u2028", "", uint8(0xff), seed(1e-7, 1e21, math.NaN()))
	f.Add("x", "", "shocktube", uint8(0x5a), []byte{})
	f.Fuzz(func(t *testing.T, name, point, kind string, shape uint8, raw []byte) {
		floats := make([]float64, len(raw)/8)
		for i := range floats {
			floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		// take returns the next n floats: nil when the shape bit is clear
		// and there are none left.
		take := func(n int, bit uint8) []float64 {
			n = min(n, len(floats))
			xs := floats[:n:n]
			floats = floats[n:]
			if n == 0 && shape&bit == 0 {
				return nil
			}
			return xs
		}
		field := func(n int) dsmc.FieldStats {
			return dsmc.FieldStats{NX: n, NY: len(floats), NZ: int(shape >> 6), Mean: take(n, 1), Variance: take(n, 2), CI95: take(n, 4)}
		}
		scalar := func() dsmc.ScalarStats {
			s := dsmc.ScalarStats{N: int(shape), Dropped: int(shape & 8)}
			if xs := take(3, 0); len(xs) == 3 {
				s.Mean, s.Variance, s.CI95 = xs[0], xs[1], xs[2]
			}
			return s
		}
		res := &dsmc.SweepResult{Name: name}
		if shape&16 != 0 {
			res.Points = []dsmc.PointResult{}
		}
		for i := 0; len(floats) > 0 && i < 4; i++ {
			p := dsmc.PointResult{Name: point, Kind: kind, Replicas: i, Density: field(len(floats) / 4)}
			if shape&32 != 0 {
				p.Fields = map[dsmc.Quantity]dsmc.FieldStats{dsmc.Quantity(kind): field(2), dsmc.Density: p.Density}
			}
			p.ShockAngleDeg, p.Collisions, p.NFlow = scalar(), scalar(), scalar()
			res.Points = append(res.Points, p)
		}
		checkAgainstOracles(t, res)
	})
}
