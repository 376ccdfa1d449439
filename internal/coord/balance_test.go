package coord

import (
	"errors"
	"testing"
	"time"

	"dsmc"
)

// TestRetryExhaustionEventBalance: when a job spends its retry budget,
// every job-started the coordinator emitted has been answered before
// onDone fires — job-lost for each lease that ended in a redispatch, then
// exactly one job-done, job-failed or job-skipped per job — and a sibling
// still leased when the sweep fails is revoked: skipped, its lease stale,
// its worker idle.
func TestRetryExhaustionEventBalance(t *testing.T) {
	clk := newFakeClock()
	var log eventLog
	atDone := make(chan []dsmc.SweepEvent, 1)
	c := New(Config{LeaseTTL: 10 * time.Second, MaxAttempts: 2, OnEvent: log.add, now: clk.now})
	err := c.AddSweep("sw", sweepOf(t, tinySpec()), func(_ *dsmc.SweepResult, err error) {
		if err == nil {
			t.Error("the sweep succeeded")
		}
		log.mu.Lock()
		atDone <- append([]dsmc.SweepEvent(nil), log.events...)
		log.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	lost := mustPoll(t, c, "w1")
	live := mustPoll(t, c, "w2")
	renew := func() {
		if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w2", Sweep: live.Sweep, Job: live.Job, Lease: live.LeaseID}); status != HBOK {
			t.Fatalf("heartbeat of the live lease: %q", status)
		}
	}
	clk.advance(6 * time.Second)
	renew()
	clk.advance(6 * time.Second) // w1's first lease lapses; the job redispatches
	if l := mustPoll(t, c, "w1"); l.Job != lost.Job {
		t.Fatalf("redispatched %s, want %s", l.Job, lost.Job)
	}
	renew()
	clk.advance(6 * time.Second)
	renew()
	clk.advance(5 * time.Second) // the second lapses: the budget is spent
	c.Workers()

	var events []dsmc.SweepEvent
	select {
	case events = <-atDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the sweep never finished")
	}
	open, ended := map[string]bool{}, map[string]string{}
	for _, e := range events {
		switch e.Type {
		case "job-started":
			if open[e.Job] || ended[e.Job] != "" {
				t.Errorf("%s started while open or after it ended", e.Job)
			}
			open[e.Job] = true
		case "job-lost", "job-released":
			if !open[e.Job] {
				t.Errorf("%s: %s without a lease", e.Job, e.Type)
			}
			delete(open, e.Job)
		case "job-done", "job-failed", "job-skipped":
			if ended[e.Job] != "" || (!open[e.Job] && e.Type != "job-skipped") {
				t.Errorf("%s: %s answers no open job-started", e.Job, e.Type)
			}
			delete(open, e.Job)
			ended[e.Job] = e.Type
		}
	}
	if len(open) != 0 {
		t.Errorf("started and never answered: %v", open)
	}
	want := map[string]string{
		lost.Job: "job-failed", live.Job: "job-skipped", dsmc.AggregateJobID("rarefied"): "job-skipped",
	}
	for job, typ := range want {
		if ended[job] != typ {
			t.Errorf("%s ended %q, want %q", job, ended[job], typ)
		}
	}
	log.mu.Lock()
	if n := len(log.events); n != len(events) {
		t.Errorf("%d events before onDone, %d in all", len(events), n)
	}
	log.mu.Unlock()

	if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w2", Sweep: live.Sweep, Job: live.Job, Lease: live.LeaseID}); status != HBAbandon {
		t.Errorf("heartbeat of the revoked lease: %q, want abandon", status)
	}
	if err := c.SaveCheckpoint(live.Sweep, live.Job, live.LeaseID, payload([]byte("x"))); !errors.Is(err, ErrStaleLease) {
		t.Errorf("upload under the revoked lease: %v, want ErrStaleLease", err)
	}
	for _, w := range c.Workers() {
		if w.Job != "" {
			t.Errorf("worker %s still shows job %s", w.ID, w.Job)
		}
	}
}
