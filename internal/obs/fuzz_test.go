package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// fuzzBytes hands out the fuzzed input piece by piece; once it runs out
// every read is zero, so any input describes a registry.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzBytes) word() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = b.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

// text returns up to 15 raw bytes — quotes, backslashes, newlines and
// invalid UTF-8 included.
func (b *fuzzBytes) text() string {
	n := int(b.byte() % 16)
	s := make([]byte, n)
	for i := range s {
		s[i] = b.byte()
	}
	return string(s)
}

// fuzzRegistry builds a registry from fuzzed bytes: up to eight families
// m0…m7 of every type, each with up to three children under distinct
// label sets whose values are raw bytes, with fuzzed help text, counter
// and gauge values (NaN and infinities too), histogram bounds and
// observations. It returns the number of series WriteText renders.
func fuzzRegistry(data []byte) (*Registry, int) {
	b := fuzzBytes(data)
	r := NewRegistry()
	series := 0
	for fam := range int(b.byte() % 9) {
		name, help, kind := fmt.Sprintf("m%d", fam), b.text(), b.byte()%3
		var upper []float64
		for range int(b.byte() % 5) {
			step := math.Abs(math.Float64frombits(b.word()))
			if math.IsNaN(step) || math.IsInf(step, 0) || step == 0 {
				step = 1
			}
			next := step
			if len(upper) > 0 {
				next = upper[len(upper)-1] + step
			}
			if math.IsInf(next, 0) || (len(upper) > 0 && next <= upper[len(upper)-1]) {
				break
			}
			upper = append(upper, next)
		}
		seen := map[string]bool{}
		for range 1 + int(b.byte()%3) {
			var labels []L
			for k := range int(b.byte() % 3) {
				labels = append(labels, L{fmt.Sprintf("k%d", k), b.text()})
			}
			if seen[renderLabels(labels)] {
				continue
			}
			seen[renderLabels(labels)] = true
			switch kind {
			case 0:
				r.NewCounter(name, help, labels...).Add(b.word())
				series++
			case 1:
				r.NewGauge(name, help, labels...).Set(math.Float64frombits(b.word()))
				series++
			case 2:
				h := r.NewHistogram(name, help, upper, labels...)
				for range int(b.byte() % 8) {
					h.Observe(math.Float64frombits(b.word()))
				}
				series += len(upper) + 3 // the buckets, +Inf, _sum and _count
			}
		}
	}
	return r, series
}

// sameValue compares two sample values bit for bit, any NaN equal to any
// other.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzParseText feeds arbitrary bytes to ParseText, seeded with a real
// /metrics scrape of dsmcd after a small sweep (testdata/metrics.txt),
// whole and cut mid-line. Properties: it never panics; it allocates at
// most 64 bytes per input byte beyond a fixed 256 KiB (the scanner's
// buffer and the result map); and, reading the same bytes as the recipe
// of a registry, the parse of that registry's WriteText output has one
// sample per series it rendered, and every value Snapshot reports, bit
// for bit, with each histogram's +Inf bucket equal to its count.
func FuzzParseText(f *testing.F) {
	scrape, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ParseText(bytes.NewReader(scrape)); err != nil {
		f.Fatalf("the real scrape does not parse: %v", err)
	}
	f.Add(scrape)
	f.Add(scrape[:len(scrape)/2])
	f.Add([]byte("# HELP m0 a \\\\ \\n help\n# TYPE m0 gauge\nm0{k0=\"q\\\"}\",k1=\"\"} NaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ParseText(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+256<<10 {
			t.Fatalf("parsing %d bytes allocated %d", len(data), d)
		}

		r, series := fuzzRegistry(data)
		var text strings.Builder
		if err := r.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		vals, err := ParseText(strings.NewReader(text.String()))
		if err != nil {
			t.Fatalf("a registry's own exposition does not parse: %v\n%s", err, text.String())
		}
		if len(vals) != series {
			t.Fatalf("parsed %d samples, the registry rendered %d series:\n%s", len(vals), series, text.String())
		}
		for _, s := range r.Snapshot("") {
			key := s.Name + s.Labels
			got, ok := vals[key]
			if !ok || !sameValue(got, s.Value) {
				t.Fatalf("%s parsed as %v (present %v), the registry holds %v", key, got, ok, s.Value)
			}
			if name, ok := strings.CutSuffix(s.Name, "_count"); ok {
				inf := mergeLE(s.Labels, "+Inf")
				if got := vals[name+"_bucket"+inf]; got != s.Value {
					t.Fatalf("%s_bucket%s parsed as %v, the count is %v", name, inf, got, s.Value)
				}
			}
		}
	})
}
