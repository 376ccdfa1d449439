package dsmc_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"dsmc"
)

// checkBalance asserts the event contract of a sweep that has returned:
// every job-started is answered by exactly one job-done, job-failed or
// job-skipped, a job never started may only be skipped, and no job is
// answered twice. It returns the answers by type.
func checkBalance(t *testing.T, events []dsmc.SweepEvent) map[string]int {
	t.Helper()
	open, ended := map[string]bool{}, map[string]bool{}
	answers := map[string]int{}
	for _, e := range events {
		switch e.Type {
		case "job-started":
			if open[e.Job] || ended[e.Job] {
				t.Errorf("%s started twice", e.Job)
			}
			open[e.Job] = true
		case "job-done", "job-failed", "job-skipped":
			if ended[e.Job] || (!open[e.Job] && e.Type != "job-skipped") {
				t.Errorf("%s: %s answers no open job-started", e.Job, e.Type)
			}
			delete(open, e.Job)
			ended[e.Job] = true
			answers[e.Type]++
		}
	}
	for job := range open {
		t.Errorf("%s started and was never answered", job)
	}
	return answers
}

// balanceSpec is a one-point, two-replica checkpointed sweep long enough
// to cancel mid-job (16 steps, a checkpoint every 4).
func balanceSpec(dir string) dsmc.SweepSpec {
	return dsmc.SweepSpec{
		Name:            "balance",
		Scenario:        specOf(smallPublicConfig()),
		Replicas:        2,
		WarmSteps:       8,
		SampleSteps:     8,
		Pool:            2,
		CheckpointDir:   dir,
		CheckpointEvery: 4,
	}
}

// recordSweep runs a sweep and returns its result, events and error.
func recordSweep(ctx context.Context, spec dsmc.SweepSpec, also func(dsmc.SweepEvent)) (*dsmc.SweepResult, []dsmc.SweepEvent, error) {
	var events []dsmc.SweepEvent
	res, err := dsmc.RunSweep(ctx, spec, func(e dsmc.SweepEvent) {
		events = append(events, e)
		if also != nil {
			also(e)
		}
	})
	return res, events, err
}

// TestRunSweepEventBalance: the event stream balances on success and on
// a job error — here a checkpoint directory reused under another seed,
// which every job rejects: one job fails, the one still in flight and the
// aggregate are skipped, and its own error afterwards is discarded.
func TestRunSweepEventBalance(t *testing.T) {
	dir := t.TempDir()
	spec := balanceSpec(dir)
	_, events, err := recordSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkBalance(t, events); got["job-done"] != 3 || len(got) != 1 {
		t.Errorf("successful sweep answered %v, want 3 job-done", got)
	}

	other := spec
	sc := smallPublicConfig()
	sc.Seed++
	other.Scenario = specOf(sc)
	_, events, err = recordSweep(context.Background(), other, nil)
	if err == nil {
		t.Fatal("a sweep over another seed's checkpoints succeeded")
	}
	if got := checkBalance(t, events); got["job-failed"] != 1 || got["job-skipped"] != 2 || got["job-done"] != 0 {
		t.Errorf("failed sweep answered %v, want 1 job-failed and 2 job-skipped", got)
	}
}

// TestSweepInterruptIsNotFailure: cancelling a checkpointed sweep while
// its jobs run interrupts it — the error wraps context.Canceled, every
// running job is reported skipped and none failed, each has saved its
// checkpoint — and resuming it gives the uninterrupted run's bits.
func TestSweepInterruptIsNotFailure(t *testing.T) {
	straight, err := dsmc.RunSweep(context.Background(), balanceSpec(""), nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	spec := balanceSpec(dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var midJob atomic.Bool
	stepping := map[string]bool{} // jobs that reported progress; events are serialized
	_, events, err := recordSweep(ctx, spec, func(e dsmc.SweepEvent) {
		if e.Type != "job-progress" {
			return
		}
		stepping[e.Job] = true
		// Cancel mid-job only once both replicas run, or the second one
		// may never start and never checkpoint.
		if len(stepping) == spec.Replicas && e.StepsDone >= 4 && e.StepsDone < e.StepsTotal {
			midJob.Store(true)
			cancel()
		}
	})
	if !midJob.Load() {
		t.Fatal("never observed mid-job progress; cannot exercise the interrupt")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want an error wrapping context.Canceled", err)
	}
	if got := checkBalance(t, events); got["job-failed"] != 0 || got["job-skipped"] == 0 {
		t.Errorf("interrupted sweep answered %v, want skips and no job-failed", got)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(ckpts) != spec.Replicas {
		t.Errorf("%d checkpoints after the interrupt, want %d", len(ckpts), spec.Replicas)
	}

	resumed, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if memoHash(t, resumed) != memoHash(t, straight) {
		t.Error("the resumed sweep's result differs from the uninterrupted run's")
	}
}
