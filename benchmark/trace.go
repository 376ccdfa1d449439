//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one call from the benchmark into a layer: the layer (module
// name), what was called, when, which span caused it and which op it
// belongs to. Spans are recorded from the benchmark's own files only —
// around calls into the layers, or from the events and counters the
// layers already publish — kept in memory and written when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an op's root span
	Op     int     `json:"op"`     // the root span's ID: one identifier per op
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the trace began
	End    float64 `json:"end_s"`
	// Derived marks a span placed from a duration a layer reported
	// (engine phase totals) rather than from two clock reads here; such
	// spans are laid end to end from their parent's start.
	Derived bool `json:"derived,omitempty"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer records spans. A nil *tracer is the untraced run: every method
// is a no-op, so workload code calls it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // RunSweep delivers events from job goroutines
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now; parent -1 starts a new op.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	return t.add(parent, layer, name, time.Now(), time.Time{})
}

// end closes a span now.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// seconds returns a closed span's duration.
func (t *tracer) seconds(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].seconds()
}

// add records a span with known endpoints (a zero end leaves it open).
func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := span{ID: id, Parent: parent, Op: id, Layer: layer, Name: name, Start: start.Sub(t.t0).Seconds()}
	if parent >= 0 {
		s.Op = t.spans[parent].Op
	}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Seconds()
	}
	t.spans = append(t.spans, s)
	return id
}

// derive lays durations end to end inside parent, from its start: the
// way a layer's self-reported phase totals become child spans. The
// layout is clipped to the parent: the engine's totals of a parallel
// phase are sums of per-pass maxima over workers and can exceed the wall
// time of a single step by a percent or two.
func (t *tracer) derive(parent int, layer string, names []string, seconds []float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at, limit := t.spans[parent].Start, t.spans[parent].End
	for i, name := range names {
		end := min(at+seconds[i], limit)
		t.spans = append(t.spans, span{
			ID: len(t.spans), Parent: parent, Op: t.spans[parent].Op,
			Layer: layer, Name: name, Start: at, End: end, Derived: true,
		})
		at = end
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns how much of s its children cover: the length of the
// union of the child intervals, clipped to s. A span's self time is its
// duration minus this.
func covered(s span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, s.Start
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// selfTimes returns every span's self time and its children, indexed by
// span ID.
func selfTimes(spans []span) (self []float64, children [][]span) {
	children = make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make([]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.seconds() - covered(s, children[s.ID])
	}
	return self, children
}

// checkSpans verifies the trace's structure: every span is closed and
// lies inside its parent, self times are not negative, and the named
// parts of every op cover it to within tol of its duration (the rest is
// the op's own self time: loop overhead and gaps between calls).
func checkSpans(spans []span, tol float64) error {
	const slack = 1e-6 // derived spans are sums of floats
	self, children := selfTimes(spans)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s/%s never ended", s.ID, s.Layer, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start-slack || s.End > p.End+slack {
				return fmt.Errorf("span %d %s/%s [%.6f,%.6f] leaves its parent %s/%s [%.6f,%.6f]",
					s.ID, s.Layer, s.Name, s.Start, s.End, p.Layer, p.Name, p.Start, p.End)
			}
		}
		if self[s.ID] < -slack {
			return fmt.Errorf("span %d %s/%s has negative self time %.9f", s.ID, s.Layer, s.Name, self[s.ID])
		}
		if s.Parent < 0 && len(children[s.ID]) > 0 && self[s.ID] > tol*s.seconds() {
			return fmt.Errorf("op %d %s/%s: parts cover %.6f of %.6f s (more than %.0f%% unattributed)",
				s.ID, s.Layer, s.Name, s.seconds()-self[s.ID], s.seconds(), tol*100)
		}
	}
	return nil
}

// writeSpans writes the trace as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self, _ := selfTimes(spans)
	type row struct {
		span
		Self float64 `json:"self_s"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[i]}
	}
	buf, err := json.Marshal(map[string]any{"spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
