package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestExpositionAndParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests served.")
	g := r.NewGauge("test_queue_depth", "Jobs queued.", L{"queue", "main"})
	h := r.NewHistogram("test_phase_seconds", "Phase time.", []float64{0.001, 0.01, 0.1}, L{"phase", "sort"})

	c.Add(41)
	c.Inc()
	g.Set(5)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	for _, want := range []string{
		"# HELP test_requests_total Requests served.",
		"# TYPE test_requests_total counter",
		"test_requests_total 42",
		`test_queue_depth{queue="main"} 5`,
		"# TYPE test_phase_seconds histogram",
		`test_phase_seconds_bucket{phase="sort",le="0.001"} 1`,
		`test_phase_seconds_bucket{phase="sort",le="0.1"} 2`,
		`test_phase_seconds_bucket{phase="sort",le="+Inf"} 3`,
		`test_phase_seconds_count{phase="sort"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	vals, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	if vals["test_requests_total"] != 42 {
		t.Errorf("parsed counter = %v, want 42", vals["test_requests_total"])
	}
	if vals[`test_queue_depth{queue="main"}`] != 5 {
		t.Errorf("parsed gauge = %v, want 5", vals[`test_queue_depth{queue="main"}`])
	}
	if vals[`test_phase_seconds_bucket{phase="sort",le="+Inf"}`] != 3 {
		t.Errorf("parsed +Inf bucket = %v, want 3", vals[`test_phase_seconds_bucket{phase="sort",le="+Inf"}`])
	}
	wantSum := 0.0005 + 0.05 + 99
	if got := vals[`test_phase_seconds_sum{phase="sort"}`]; math.Abs(got-wantSum) > 1e-12 {
		t.Errorf("parsed sum = %v, want %v", got, wantSum)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no value line",
		"1leading_digit 3",
		`unterminated{le="x 3`,
		"# TYPE x wibble",
		"name 12 34 56",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("dsmc_engine_steps_total", "Steps.")
	h := r.NewHistogram("dsmc_engine_phase_seconds", "Phase.", []float64{1}, L{"phase", "move"})
	r.NewCounter("dsmc_coord_polls_total", "Polls.")
	c.Add(5)
	h.Observe(0.5)

	snap := r.Snapshot("dsmc_engine_")
	keys := make(map[string]float64, len(snap))
	for _, s := range snap {
		keys[s.Name+s.Labels] = s.Value
	}
	if len(snap) != 3 {
		t.Fatalf("Snapshot returned %d samples, want 3: %v", len(snap), snap)
	}
	if keys["dsmc_engine_steps_total"] != 5 {
		t.Errorf("steps sample = %v, want 5", keys["dsmc_engine_steps_total"])
	}
	if keys[`dsmc_engine_phase_seconds_count{phase="move"}`] != 1 {
		t.Errorf("count sample = %v, want 1", keys[`dsmc_engine_phase_seconds_count{phase="move"}`])
	}
}

// TestRecordPathAllocFree pins the tentpole's core claim: recording a
// metric performs zero heap allocations, so instrumented //dsmc:hotpath
// functions keep their AllocsPerRun guarantees.
func TestRecordPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("alloc_c", "c")
	g := r.NewGauge("alloc_g", "g")
	h := r.NewHistogram("alloc_h", "h", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Observe(0.002)
	}); n != 0 {
		t.Fatalf("record path allocates %v per op, want 0", n)
	}
}

func TestSetEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("toggle_c", "c")
	h := r.NewHistogram("toggle_h", "h", []float64{1})
	SetEnabled(false)
	c.Inc()
	h.Observe(0.5)
	SetEnabled(true)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled instruments moved: c=%d h=%d", c.Value(), h.Count())
	}
	c.Inc()
	h.Observe(0.5)
	if c.Value() != 1 || h.Count() != 1 {
		t.Fatalf("re-enabled instruments stuck: c=%d h=%d", c.Value(), h.Count())
	}
}

// TestConcurrentScrape hammers the record path from several goroutines
// while scraping; under -race this is the proof that exposition is
// safe concurrent with stepping.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cc", "c")
	h := r.NewHistogram("hh", "h", []float64{0.01, 0.1}, L{"phase", "x"})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.05)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(strings.NewReader(b.String())); err != nil {
			t.Fatalf("mid-hammer scrape does not parse: %v\n%s", err, b.String())
		}
	}
	close(stop)
	wg.Wait()
	if h.Count() != c.Value() {
		t.Fatalf("count mismatch after quiesce: h=%d c=%d", h.Count(), c.Value())
	}
}

func TestRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "x")
	mustPanic(t, "type conflict", func() { r.NewGauge("x_total", "x") })
	mustPanic(t, "duplicate labels", func() { r.NewCounter("x_total", "x") })
	mustPanic(t, "non-ascending buckets", func() { r.NewHistogram("x_h", "h", []float64{1, 1}) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestSampleValid: a sample is valid exactly when it renders as one line
// that ParseText reads back under its key.
func TestSampleValid(t *testing.T) {
	for _, tc := range []struct {
		s    Sample
		want bool
	}{
		{Sample{Name: "a_total"}, true},
		{Sample{Name: "a_total", Labels: `{phase="sort",w="x\"}\n"}`}, true},
		{Sample{Name: "bad name"}, false},
		{Sample{Name: "9a"}, false},
		{Sample{Name: "a", Labels: `phase="sort"`}, false},
		{Sample{Name: "a", Labels: `{phase="sort"`}, false},
		{Sample{Name: "a", Labels: `{a="1"} 1` + "\ninjected_total 1\nb{c=\"2\"}"}, false},
		{Sample{Name: "a", Labels: "{a=\"1\ninjected_total 1\n\"}"}, false},
	} {
		if got := tc.s.Valid(); got != tc.want {
			t.Errorf("%q%q: Valid() = %v, want %v", tc.s.Name, tc.s.Labels, got, tc.want)
		}
		if !tc.want {
			continue
		}
		key := tc.s.Name + tc.s.Labels
		got, err := ParseText(strings.NewReader(key + " 1\n"))
		if err != nil || len(got) != 1 || got[key] != 1 {
			t.Errorf("%q: parsed %v, %v", key, got, err)
		}
	}
}
