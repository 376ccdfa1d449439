// Package obs is the repo's zero-dependency observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text-format exposition. The design splits hot from cold:
// the record path (Inc/Add/Set/Observe) is a handful of atomic
// operations with zero heap allocations — safe inside //dsmc:hotpath
// functions — while everything stateful-but-slow (registration,
// snapshotting, text rendering) happens on the scrape path under a
// lock. Values are read with atomic snapshots, so scraping is safe
// concurrent with stepping; a scrape observes each sample at some
// point during its own execution, never a torn value.
//
// Metrics carry constant label sets fixed at registration (for
// example one histogram child per engine phase). There is no dynamic
// label lookup on the record path: callers hold the child pointer.
// Registration panics on conflicting reuse of a name — metrics are
// wired at package init, so a conflict is a programming error, not a
// runtime condition.
//
// The package deliberately has no clock reads and no randomness: it
// records durations handed to it, which is what keeps the dsmclint
// determinism rule and the engine's bit-identity goldens untouched by
// instrumentation.
//
//dsmclint:layer obs
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled gates every record path in the process. It exists for one
// consumer: the bench's metrics-on vs metrics-off overhead pair. Off,
// a record call is a single atomic load and a branch.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns the record paths of every instrument in the
// process on or off. Scrapes still work when disabled; values simply
// stop moving.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether record paths are live.
func Enabled() bool { return enabled.Load() }

// L is one constant label pair, fixed at registration.
type L struct{ K, V string }

// Sample is one flattened exposition sample: a metric name (with the
// histogram suffixes already applied), a rendered label string such as
// `{phase="sort"}` (empty when unlabelled), and the value. It is the
// unit of the compact snapshots workers piggyback on heartbeats, so it
// has JSON tags.
type Sample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Valid reports whether s renders as one line ParseText accepts: a
// metric name, and a label block that is empty or one braced block with
// no newline. A snapshot from another process is checked with it before
// it is written into an exposition.
func (s Sample) Valid() bool {
	if !validName(s.Name) {
		return false
	}
	return s.Labels == "" || s.Labels[0] == '{' && labelsEnd(s.Labels) == len(s.Labels)-1 &&
		!strings.Contains(s.Labels, "\n")
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child is one (label set, value) member of a metric family.
type child struct {
	labels string // rendered, sorted; "" when unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name: help, type, and its label children.
type family struct {
	name, help, typ string
	children        []child
}

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry. All methods are safe for concurrent
// use; record paths never touch the registry lock.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Default is the process-wide registry every package-level instrument
// registers on, and the one cmd/dsmcd exposes at GET /metrics.
var Default = NewRegistry()

// renderLabels renders a constant label set into its exposition form,
// sorted by key, values escaped per the text format.
func renderLabels(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]L, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		b.WriteString(EscapeLabel(l.V))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// EscapeLabel escapes a label value per the text format: a backslash, a
// double quote and a newline.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes help text per the text format: a backslash and a
// newline, which would otherwise end the comment line.
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(h)
}

// register attaches a child to the named family, creating the family
// on first use and panicking on help/type mismatch or a duplicate
// label set — registration happens at init, so conflicts are bugs.
func (r *Registry) register(name, help, typ string, ch child) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	for _, c := range f.children {
		if c.labels == ch.labels {
			panic(fmt.Sprintf("obs: duplicate registration of %s%s", name, ch.labels))
		}
	}
	f.children = append(f.children, ch)
	sort.Slice(f.children, func(i, j int) bool { return f.children[i].labels < f.children[j].labels })
}

// Counter is a monotonically increasing integer-valued metric.
type Counter struct{ v atomic.Uint64 }

// NewCounter registers a counter child under name with the given
// constant labels.
func (r *Registry) NewCounter(name, help string, labels ...L) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, child{labels: renderLabels(labels), c: c})
	return c
}

// Inc adds one.
//
//dsmc:hotpath
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative; counters only go up).
//
//dsmc:hotpath
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float-valued metric that can go up and down. The value
// lives in the bits of one uint64, so Set is a single atomic store
// and Add a CAS loop — allocation-free either way.
type Gauge struct{ bits atomic.Uint64 }

// NewGauge registers a gauge child under name with the given constant
// labels.
func (r *Registry) NewGauge(name, help string, labels ...L) *Gauge {
	g := &Gauge{}
	r.register(name, help, typeGauge, child{labels: renderLabels(labels), g: g})
	return g
}

// Set replaces the gauge value.
//
//dsmc:hotpath
func (g *Gauge) Set(v float64) {
	if enabled.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket is appended. Observe finds
// the bucket by linear scan (bucket counts are small and fixed) and
// increments exactly one bucket counter — buckets are stored
// non-cumulative and accumulated at scrape, which keeps the record
// path a single atomic add plus a CAS for the sum.
type Histogram struct {
	upper   []float64
	buckets []atomic.Uint64 // len(upper)+1; last is +Inf
	sumBits atomic.Uint64
}

// DurationBuckets is the default bucket ladder for per-step phase
// times: 10 µs to 10 s in 1–2.5–5 decades, wide enough for a tiny
// smoke case and a paper-scale step on a loaded host.
var DurationBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram registers a histogram child under name with the given
// upper bounds (ascending) and constant labels.
func (r *Registry) NewHistogram(name, help string, upper []float64, labels ...L) *Histogram {
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending", name))
		}
	}
	h := &Histogram{upper: upper, buckets: make([]atomic.Uint64, len(upper)+1)}
	r.register(name, help, typeHistogram, child{labels: renderLabels(labels), h: h})
	return h
}

// Observe records one value.
//
//dsmc:hotpath
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// fmtVal renders a float in the shortest exact form the text format
// accepts.
func fmtVal(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in Prometheus text exposition format
// 0.0.4: families sorted by name, # HELP and # TYPE once per family,
// histogram children expanded into cumulative _bucket/_sum/_count
// series.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, ch := range f.children {
			writeChild(&b, f, ch)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeChild(b *strings.Builder, f *family, ch child) {
	switch {
	case ch.c != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, ch.labels, fmtVal(float64(ch.c.Value())))
	case ch.g != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, ch.labels, fmtVal(ch.g.Value()))
	case ch.h != nil:
		var cum uint64
		for i, u := range ch.h.upper {
			cum += ch.h.buckets[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, mergeLE(ch.labels, fmtVal(u)), cum)
		}
		cum += ch.h.buckets[len(ch.h.upper)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, mergeLE(ch.labels, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, ch.labels, fmtVal(ch.h.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, ch.labels, cum)
	}
}

// mergeLE appends the le label to an already-rendered label string.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// Snapshot returns the registry's current values as flattened samples,
// restricted to families whose name starts with prefix ("" for all).
// Histograms contribute only their _sum and _count — the compact form
// workers piggyback on heartbeats, where per-bucket resolution is not
// worth the bytes.
func (r *Registry) Snapshot(prefix string) []Sample {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var out []Sample
	for _, f := range fams {
		for _, ch := range f.children {
			switch {
			case ch.c != nil:
				out = append(out, Sample{f.name, ch.labels, float64(ch.c.Value())})
			case ch.g != nil:
				out = append(out, Sample{f.name, ch.labels, ch.g.Value()})
			case ch.h != nil:
				out = append(out, Sample{f.name + "_sum", ch.labels, ch.h.Sum()})
				out = append(out, Sample{f.name + "_count", ch.labels, float64(ch.h.Count())})
			}
		}
	}
	return out
}
