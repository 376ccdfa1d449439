package golden_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"dsmc/internal/golden"
	"dsmc/internal/obs"
	"dsmc/internal/sim"
)

// TestGoldenWithConcurrentScrape pins the observability layer's core
// promise: recording metrics — and scraping them from another goroutine
// mid-run — perturbs nothing. The simulation steps with the default-on
// registry while a scraper hammers WriteText the whole time, and the
// final state must still hash to the recorded golden (the same value
// TestGolden2D/"specular" pins with no scraper attached). A stray clock
// read, allocation-driven scheduling change, or registry lock on the
// stepping path cannot break bit-identity by construction — the metrics
// feed off already-computed phase durations — but a regression that
// reintroduces one would likely surface here first.
func TestGoldenWithConcurrentScrape(t *testing.T) {
	want := recorded(t, "TestGolden2D/specular")

	cfg := goldenConfig2D()
	cfg.Workers = 3
	s, err := sim.NewOf[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var scrapes int
	ready := make(chan struct{}) // first scrape done; on one CPU the
	// stepping loop would otherwise finish before the scraper ever ran
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for !stop.Load() {
			buf.Reset()
			if err := obs.Default.WriteText(&buf); err != nil {
				t.Errorf("scrape failed: %v", err)
				return
			}
			if _, err := obs.ParseText(&buf); err != nil {
				t.Errorf("scrape did not parse: %v", err)
				return
			}
			scrapes++
			if scrapes == 1 {
				close(ready)
			}
		}
	}()

	<-ready
	for i := 0; i < 12; i++ {
		s.Step()
	}
	stop.Store(true)
	wg.Wait()

	if got := golden.HashSim2D(s); got != want {
		t.Errorf("state hash %#016x under concurrent scraping, golden %#016x", got, want)
	}
	if scrapes == 0 {
		t.Error("scraper never completed a scrape")
	}
	t.Logf("%d concurrent scrapes while stepping", scrapes)
}
