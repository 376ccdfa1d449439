package coord

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dsmc"
	"dsmc/internal/run"
)

// within fails the test unless fn returns within five seconds: a call
// that waited on c.mu while a checkpoint write held it would not.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not complete while a checkpoint write was blocked", what)
	}
}

// TestCheckpointSaveFence: a checkpoint write runs outside the
// coordinator's lock, and the lease is checked again before the file is
// renamed into place. While lease A's write is blocked inside its write
// function, a heartbeat and a poll complete; then A's lease expires, B
// is granted the job and saves. Released, A gets ErrStaleLease and its
// temp file is removed, and the job's checkpoint is B's.
func TestCheckpointSaveFence(t *testing.T) {
	clk := newFakeClock()
	spec := tinySpec()
	spec.CheckpointDir = t.TempDir()
	c := newCoord(t, Config{LeaseTTL: 10 * time.Second, MaxAttempts: 3, now: clk.now})
	addSweep(t, c, "sw", sweepOf(t, spec))
	a := mustPoll(t, c, "wA")

	inWrite, release := make(chan struct{}), make(chan struct{})
	saved := make(chan error, 1)
	go func() {
		saved <- c.SaveCheckpoint(a.Sweep, a.Job, a.LeaseID, func(w io.Writer) error {
			if _, err := io.WriteString(w, "A's checkpoint, "); err != nil {
				return err
			}
			close(inWrite)
			<-release
			_, err := io.WriteString(w, "written late")
			return err
		})
	}()
	<-inWrite

	within(t, "a heartbeat", func() {
		if status, err := c.HandleHeartbeat(Heartbeat{Worker: "wA", Sweep: a.Sweep, Job: a.Job, Lease: a.LeaseID}); err != nil || status != HBOK {
			t.Errorf("heartbeat under A during its save: %q, %v", status, err)
		}
	})
	within(t, "a poll", func() {
		if _, err := c.Poll("wOther"); err != nil {
			t.Errorf("poll during A's save: %v", err)
		}
	})

	clk.advance(11 * time.Second)
	var b *Lease
	within(t, "B's poll and save", func() {
		b = mustPoll(t, c, "wB")
		if b.Job != a.Job {
			t.Errorf("B was granted %s, A held %s", b.Job, a.Job)
		}
		if err := c.SaveCheckpoint(b.Sweep, b.Job, b.LeaseID, payload([]byte("B's checkpoint"))); err != nil {
			t.Errorf("B's save: %v", err)
		}
	})

	close(release)
	if err := <-saved; !errors.Is(err, ErrStaleLease) {
		t.Errorf("A's save, its lease expired during the write: %v, want ErrStaleLease", err)
	}
	data, err := c.LoadCheckpoint(b.Sweep, b.Job, b.LeaseID)
	if err != nil || string(data) != "B's checkpoint" {
		t.Errorf("the checkpoint under B reads %q, %v; want B's bytes", data, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(spec.CheckpointDir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// failAt passes the first n bytes written through to w, then fails.
type failAt struct {
	w io.Writer
	n int
}

var errSinkFull = errors.New("sink full")

func (f *failAt) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k, _ := f.w.Write(p[:f.n])
		f.n = 0
		return k, errSinkFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestFailedUploadKeepsCheckpoint: a checkpoint upload through
// LocalQueue whose stream fails at byte k — at the start, on either side
// of a 64 KiB chunk boundary, one byte short — returns the error, leaves
// the job's previous checkpoint byte-identical and no temp file, and
// keeps the lease: the next upload lands.
func TestFailedUploadKeepsCheckpoint(t *testing.T) {
	spec := tinySpec()
	spec.CheckpointDir = t.TempDir()
	c := newCoord(t, Config{LeaseTTL: 30 * time.Second})
	addSweep(t, c, "sw", sweepOf(t, spec))
	l := mustPoll(t, c, "w")
	q := LocalQueue{C: c}
	path := run.JobCkptPath(spec.CheckpointDir, l.Point, l.Replica)

	sc := dsmc.PaperWedgeTunnel()
	sc.GridNX, sc.GridNY = 48, 24
	sc.Wedge = dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30}
	sc.ParticlesPerCell = 4
	sim, err := dsmc.NewSimulation(sc)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(3)
	if err := q.SaveCheckpoint(context.Background(), l, sim.Checkpoint); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(3)
	var next bytes.Buffer
	if err := sim.Checkpoint(&next); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 64<<10 - 1, 64 << 10, 64<<10 + 1, next.Len() - 1} {
		err := q.SaveCheckpoint(context.Background(), l, func(w io.Writer) error { return sim.Checkpoint(&failAt{w, k}) })
		if !errors.Is(err, errSinkFull) {
			t.Errorf("failing at byte %d: the upload returned %v, want the sink's error", k, err)
		}
		if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, good) {
			t.Errorf("failing at byte %d: the previous checkpoint changed (err %v)", k, err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(spec.CheckpointDir, "*.tmp")); len(tmps) > 0 {
			t.Errorf("failing at byte %d: left %v", k, tmps)
		}
	}
	if err := q.SaveCheckpoint(context.Background(), l, sim.Checkpoint); err != nil {
		t.Fatalf("an upload after the failures: %v", err)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, next.Bytes()) {
		t.Error("the upload after the failures did not land")
	}
}
