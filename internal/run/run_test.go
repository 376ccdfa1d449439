package run

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dsmc/internal/geom"
	"dsmc/internal/sim"
)

func testScenario(name string, lambda float64, f32 bool) Scenario {
	cfg := sim.DefaultConfig(1)
	cfg.NX, cfg.NY = 48, 24
	cfg.Wedge = &geom.Wedge{LeadX: 10, Base: 12, Angle: 30 * math.Pi / 180}
	cfg.NPerCell = 4
	cfg.Free.Lambda = lambda
	cfg.Workers = 1
	return Scenario{Name: name, Sim: &cfg, Float32: f32}
}

func testSpec() Spec {
	return Spec{
		Name: "test",
		Scenarios: []Scenario{
			testScenario("rarefied", 0.5, false),
			testScenario("near-continuum", 0, false),
		},
		Replicas:    3,
		WarmSteps:   8,
		SampleSteps: 8,
		BaseSeed:    1988,
	}
}

// bitsEqual compares float64 values bit for bit (NaN-safe).
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func scalarEqual(a, b ScalarStats) bool {
	return bitsEqual(a.Mean, b.Mean) && bitsEqual(a.Variance, b.Variance) &&
		bitsEqual(a.CI95, b.CI95) && a.N == b.N && a.Dropped == b.Dropped
}

func colsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func aggEqual(a, b *Aggregate) bool {
	if a.Scenario != b.Scenario || a.Replicas != b.Replicas ||
		len(a.Fields) != len(b.Fields) {
		return false
	}
	for q, fa := range a.Fields {
		fb, ok := b.Fields[q]
		if !ok || !colsEqual(fa.Mean, fb.Mean) ||
			!colsEqual(fa.Variance, fb.Variance) || !colsEqual(fa.CI95, fb.CI95) {
			return false
		}
	}
	return scalarEqual(a.ShockAngleDeg, b.ShockAngleDeg) &&
		scalarEqual(a.Collisions, b.Collisions) &&
		scalarEqual(a.NFlow, b.NFlow)
}

// TestPoolSizeDeterminism: the same sweep at pool sizes 1 and 8 yields
// byte-identical aggregates — pool size only changes scheduling, and
// aggregation merges in replica-index order inside the fan-in.
func TestPoolSizeDeterminism(t *testing.T) {
	var got [2]*Result
	for i, pool := range []int{1, 8} {
		sp := testSpec()
		sp.Pool = pool
		res, err := Run(context.Background(), sp, nil)
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		got[i] = res
	}
	for k := range got[0].Aggregates {
		if !aggEqual(got[0].Aggregates[k], got[1].Aggregates[k]) {
			t.Errorf("aggregate %q differs between pool 1 and pool 8",
				got[0].Aggregates[k].Scenario)
		}
	}
}

// TestCompletionOrderIndependence drives the table with replica jobs
// whose completion order is forcibly reversed (later replicas finish
// first) and asserts the table folds the same aggregate as the in-order
// execution: outputs fold in replica order, never in landing order.
func TestCompletionOrderIndependence(t *testing.T) {
	build := func(reverse bool) *Aggregate {
		const n = 6
		job := func(_ context.Context, _, r int) (*ReplicaResult, error) {
			if reverse {
				// Later indices finish first.
				time.Sleep(time.Duration(n-r) * 5 * time.Millisecond)
			}
			return &ReplicaResult{
				Fields: map[string][]float64{
					"density":     {float64(r), float64(r) * 0.5},
					"temperature": {1 + float64(r), 2 * float64(r)},
				},
				ShockAngleDeg: 40 + float64(r),
				Collisions:    int64(100 * r),
				NFlow:         1000 + r,
			}, nil
		}
		tab := NewTable(pointSpec([]string{"s"}, n, "density", "temperature"), func(Event) {})
		drive(context.Background(), tab, n, job)
		if err := tab.Err(); err != nil {
			t.Fatal(err)
		}
		return tab.Aggregates()[0]
	}
	if a, b := build(false), build(true); !aggEqual(a, b) {
		t.Error("aggregate depends on completion order")
	}
}

// TestCheckpointResumeBitIdentity: cancel a checkpointed sweep mid-
// flight, re-run it from the checkpoint directory, and require the
// aggregates to match an uninterrupted run bit for bit.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 2
	sp.Pool = 2

	straight, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted := sp
	interrupted.CheckpointDir = dir
	interrupted.CheckpointEvery = 4

	ctx, cancel := context.WithCancel(context.Background())
	var sawCheckpointableProgress atomic.Bool
	_, err = Run(ctx, interrupted, func(e Event) {
		// Cancel once any job has committed at least one checkpoint but
		// none can have finished (total is 16 steps, checkpoint every 4).
		if e.Type == EventJobProgress && e.StepsDone >= 4 && e.StepsDone < e.StepsTotal {
			sawCheckpointableProgress.Store(true)
			cancel()
		}
	})
	cancel()
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !sawCheckpointableProgress.Load() {
		t.Fatal("test never observed mid-job progress; cannot exercise resume")
	}

	resumed, err := Run(context.Background(), interrupted, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !aggEqual(straight.Aggregates[0], resumed.Aggregates[0]) {
		t.Error("killed+resumed sweep aggregates differ from uninterrupted run")
	}

	// A second resume recomputes the same result from each job's last
	// checkpoint, four steps short of its end: a finished job saves
	// nothing after its last step.
	again, err := Run(context.Background(), interrupted, nil)
	if err != nil {
		t.Fatalf("re-resume: %v", err)
	}
	if !aggEqual(straight.Aggregates[0], again.Aggregates[0]) {
		t.Error("re-resumed aggregates differ")
	}
}

// TestFloat32Jobs: the orchestration layer dispatches float32 scenarios
// and they aggregate deterministically too.
func TestFloat32Jobs(t *testing.T) {
	sp := testSpec()
	sp.Scenarios = []Scenario{testScenario("rarefied-f32", 0.5, true)}
	sp.Replicas = 2
	var got [2]*Result
	for i, pool := range []int{1, 4} {
		sp.Pool = pool
		res, err := Run(context.Background(), sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res
	}
	if !aggEqual(got[0].Aggregates[0], got[1].Aggregates[0]) {
		t.Error("float32 aggregates differ across pool sizes")
	}
}

func TestJobSeedsDistinctAcrossScenariosAndReplicas(t *testing.T) {
	seen := map[uint64]string{}
	for si := 0; si < 64; si++ {
		for r := 0; r < 64; r++ {
			s := jobSeed(1988, si, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and s%d/r%d", prev, si, r)
			}
			seen[s] = ""
		}
	}
}

// TestDAGFailurePropagation: a failing replica — or a context cancelled
// while one is in flight — stops new starts; every replica never started
// and every aggregate never run is reported skipped, in point order, and
// the table's error wraps the cause.
func TestDAGFailurePropagation(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		job  func(cancel func()) error // the body of a/r000, the one job that starts
		want error
	}{
		{"job-error", func(func()) error { return boom }, boom},
		{"cancelled", func(cancel func()) error { cancel(); return nil }, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started, skipped []string
			fannedIn := false
			tab := NewTable(pointSpec([]string{"a", "b"}, 2), func(e Event) {
				switch e.Type {
				case EventJobStarted:
					started = append(started, e.Job)
				case EventJobSkipped:
					skipped = append(skipped, e.Job)
				case EventAggregateDone:
					fannedIn = true
				}
			})
			drive(ctx, tab, 1, func(context.Context, int, int) (*ReplicaResult, error) { return nil, tc.job(cancel) })
			if err := tab.Err(); !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
			if fannedIn {
				t.Error("an aggregate ran after the forest stopped")
			}
			if want := []string{"a/r000"}; !slices.Equal(started, want) {
				t.Errorf("started = %v, want %v", started, want)
			}
			want := []string{"a/r001", "a/aggregate", "b/r000", "b/r001", "b/aggregate"}
			if !slices.Equal(skipped, want) {
				t.Errorf("skipped = %v, want %v", skipped, want)
			}
		})
	}
}

// TestDAGBoundedConcurrency: at most pool jobs run at once, and every
// point is aggregated.
func TestDAGBoundedConcurrency(t *testing.T) {
	const pool = 3
	var cur, peak, fanIns atomic.Int64
	busy := func() {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(3 * time.Millisecond)
		cur.Add(-1)
	}
	points := []string{"a", "b", "c", "d"}
	tab := NewTable(pointSpec(points, 3), func(e Event) {
		if e.Type == EventAggregateDone {
			fanIns.Add(1)
		}
	})
	drive(context.Background(), tab, pool,
		func(context.Context, int, int) (*ReplicaResult, error) { busy(); return nil, nil })
	if err := tab.Err(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > pool {
		t.Errorf("observed %d concurrent jobs, pool is %d", p, pool)
	}
	if n := fanIns.Load(); n != int64(len(points)) {
		t.Errorf("%d aggregates ran, want %d", n, len(points))
	}
}

// TestRunSpecValidation: broken specs fail before any simulation runs.
func TestRunSpecValidation(t *testing.T) {
	mutate := []func(*Spec){
		func(sp *Spec) { sp.Scenarios = nil },
		func(sp *Spec) { sp.Replicas = 0 },
		func(sp *Spec) { sp.SampleSteps = 0 },
		func(sp *Spec) { sp.WarmSteps = -1 },
		func(sp *Spec) { sp.Scenarios[1].Name = sp.Scenarios[0].Name },
		func(sp *Spec) { sp.Scenarios[0].Sim.NPerCell = 0 },
	}
	for i, m := range mutate {
		sp := testSpec()
		m(&sp)
		if _, err := Run(context.Background(), sp, nil); err == nil {
			t.Errorf("mutation %d: invalid spec ran", i)
		}
	}
}

// TestCorruptCheckpointFallsBackToFreshRun: a torn or damaged job
// checkpoint (detected by the whole-file checksum before any state is
// applied) is discarded and the job recomputes from scratch — same bits,
// no permanently wedged sweep — instead of failing the run.
func TestCorruptCheckpointFallsBackToFreshRun(t *testing.T) {
	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 1

	straight, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sp.CheckpointDir = dir
	sp.CheckpointEvery = 4
	if _, err := Run(context.Background(), sp, nil); err != nil {
		t.Fatal(err)
	}
	path := JobCkptPath(dir, 0, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatalf("run over corrupt checkpoint failed instead of recomputing: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error("corrupt checkpoint was neither removed nor rewritten")
	}
	if !aggEqual(straight.Aggregates[0], res.Aggregates[0]) {
		t.Error("fresh recomputation after corruption drifted from the straight run")
	}
	// Truncation (the torn-write shape) falls back the same way.
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatalf("run over truncated checkpoint failed: %v", err)
	}
	if !aggEqual(straight.Aggregates[0], res.Aggregates[0]) {
		t.Error("recomputation after truncation drifted from the straight run")
	}
}

// TestStaleVersionCheckpointFallsBackToFreshRun: a structurally intact
// job checkpoint from a different format version (pre-upgrade leftovers)
// is discarded and recomputed fresh — bit-identically — instead of
// failing the sweep. Two forgeries of the header's version word: a
// foreign version sealed with the current trailer, and version 2 sealed
// with FNV-1a, exactly what a build before the CRC trailer wrote.
func TestStaleVersionCheckpointFallsBackToFreshRun(t *testing.T) {
	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 1

	straight, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sp.CheckpointDir = dir
	sp.CheckpointEvery = 4
	if _, err := Run(context.Background(), sp, nil); err != nil {
		t.Fatal(err)
	}
	crc := func(body []byte) uint64 {
		return uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(body))
	}
	fnv64a := func(body []byte) uint64 {
		h := fnv.New64a()
		h.Write(body)
		return h.Sum64()
	}
	for _, forgery := range []struct {
		name    string
		version uint64
		seal    func([]byte) uint64
	}{
		{"foreign-version", 999, crc},
		{"version-2-fnv", 2, fnv64a},
	} {
		t.Run(forgery.name, func(t *testing.T) {
			// Each run leaves a fresh final checkpoint for the next forgery.
			path := JobCkptPath(dir, 0, 0)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(raw[8:16], forgery.version)
			binary.LittleEndian.PutUint64(raw[len(raw)-8:], forgery.seal(raw[:len(raw)-8]))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			res, err := Run(context.Background(), sp, nil)
			if err != nil {
				t.Fatalf("run over stale-version checkpoint failed instead of recomputing: %v", err)
			}
			if !aggEqual(straight.Aggregates[0], res.Aggregates[0]) {
				t.Error("recomputation after version mismatch drifted from the straight run")
			}
		})
	}
}

// bytesCkptStore is a store without SaveStream: it keeps a copy of the
// last checkpoint it was handed.
type bytesCkptStore struct{ last []byte }

func (s *bytesCkptStore) Load() ([]byte, error) { return nil, nil }
func (s *bytesCkptStore) Save(data []byte) error {
	s.last = append(s.last[:0], data...)
	return nil
}
func (s *bytesCkptStore) Discard() error { return nil }

// countingCkptStore counts the saves it is handed and keeps nothing.
type countingCkptStore struct{ saves int }

func (s *countingCkptStore) Load() ([]byte, error) { return nil, nil }
func (s *countingCkptStore) Save([]byte) error     { s.saves++; return nil }
func (s *countingCkptStore) Discard() error        { return nil }

// TestNoSaveAfterLastStep: a job saves every CheckpointEvery steps short
// of its end and never after its last step, whose state nothing reads —
// the job returns its output instead. A 50-step job saving every 10
// steps saves 4 times; a job of CheckpointEvery steps or fewer saves
// none. Its output is the one a job without a store computes.
func TestNoSaveAfterLastStep(t *testing.T) {
	for _, tc := range []struct{ warm, sample, every, saves int }{
		{25, 25, 10, 4},
		{5, 5, 10, 0},
		{5, 5, 9, 1},
		{3, 2, 10, 0},
	} {
		sp := testSpec()
		sp.Scenarios = sp.Scenarios[:1]
		sp.Replicas = 1
		sp.WarmSteps, sp.SampleSteps, sp.CheckpointEvery = tc.warm, tc.sample, tc.every
		var st countingCkptStore
		got, err := RunJob(context.Background(), sp, 0, 0, JobIO{Ckpt: &st})
		if err != nil {
			t.Fatal(err)
		}
		if st.saves != tc.saves {
			t.Errorf("%d steps saving every %d: %d saves, want %d", tc.warm+tc.sample, tc.every, st.saves, tc.saves)
		}
		want, err := RunJob(context.Background(), sp, 0, 0, JobIO{})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Fields["density"]) == 0 || !colsEqual(got.Fields["density"], want.Fields["density"]) || got.Collisions != want.Collisions {
			t.Errorf("%d steps saving every %d: the output differs from the job without a store", tc.warm+tc.sample, tc.every)
		}
	}
}

// sinkCkptStore is a streaming store that writes every checkpoint to sink
// and keeps nothing.
type sinkCkptStore struct{ sink io.Writer }

func (s sinkCkptStore) Load() ([]byte, error) { return nil, nil }
func (s sinkCkptStore) Save(data []byte) error {
	_, err := s.sink.Write(data)
	return err
}
func (s sinkCkptStore) SaveStream(write func(io.Writer) error) error { return write(s.sink) }
func (s sinkCkptStore) Discard() error                               { return nil }

// TestCheckpointEncodeAllocs: a job saving to a streaming store holds no
// checkpoint-sized buffer. Its first save and four more, a step apart,
// allocate under 256 KiB in total (the writer's one 64 KiB chunk and a
// closure per save) at the test's particle count, whose checkpoint is
// about 0.3 MB, and at eight times that. A store without SaveStream gets
// the same bytes from the same writer, in a buffer the job reuses.
func TestCheckpointEncodeAllocs(t *testing.T) {
	const seed = 1988
	for _, perCell := range []float64{4, 32} {
		sc := testScenario("rarefied", 0.5, false)
		sc.Sim.NPerCell = perCell
		job, err := Open(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		acc := job.NewAccumulator()
		fp := specFingerprint(sc, 8, 8)
		job.Run(8)
		var total uint64
		var kept bytesCkptStore
		streamed := fnv.New64a() // a sink that allocates nothing
		for done := 8; done < 13; done++ {
			streamed.Reset()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := job.saveCheckpoint(sinkCkptStore{streamed}, acc, seed, fp, done)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			total += after.TotalAlloc - before.TotalAlloc

			if err := job.saveCheckpoint(&kept, acc, seed, fp, done); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(kept.last)
			if h.Sum64() != streamed.Sum64() {
				t.Fatalf("%g per cell, save %d: a bytes-only store got other bytes than the stream", perCell, done)
			}
			job.Step()
			job.SampleInto(acc)
		}
		if total >= 256<<10 {
			t.Errorf("%g per cell: five streamed saves of a %d-byte checkpoint allocated %d bytes, want < 256 KiB", perCell, len(kept.last), total)
		}

		warm := &job.ckbuf.Bytes()[0]
		save := func() {
			if err := job.saveCheckpoint(&kept, acc, seed, fp, 13); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(5, save); n > 2 {
			t.Errorf("%g per cell: a bytes-only save allocates %.1f times, want O(1)", perCell, n)
		}
		if &job.ckbuf.Bytes()[0] != warm {
			t.Errorf("%g per cell: a bytes-only save reallocated the job's buffer", perCell)
		}
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

// failingFileStore is a FileCkptStore whose file fails at byte n.
type failingFileStore struct {
	FileCkptStore
	n int
}

func (s failingFileStore) SaveStream(write func(io.Writer) error) error {
	return s.FileCkptStore.SaveStream(func(w io.Writer) error { return write(&failAt{w, s.n}) })
}

// TestFailedSaveKeepsCheckpoint: a save whose file fails at byte k —
// at the start, inside the first chunk, on either side of a chunk
// boundary, one byte short — returns the error, leaves the previous
// checkpoint byte-identical, and leaves no temp file.
func TestFailedSaveKeepsCheckpoint(t *testing.T) {
	const seed = 1988
	sc := testScenario("rarefied", 0.5, false)
	job, err := Open(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	acc := job.NewAccumulator()
	fp := specFingerprint(sc, 8, 8)
	dir := t.TempDir()
	st := FileCkptStore{Path: JobCkptPath(dir, 0, 0)}
	job.Run(4)
	if err := job.saveCheckpoint(st, acc, seed, fp, 4); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(st.Path)
	if err != nil {
		t.Fatal(err)
	}
	job.Run(4)
	var next bytes.Buffer
	if err := job.saveCheckpoint(sinkCkptStore{&next}, acc, seed, fp, 8); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 1000, 64<<10 - 1, 64 << 10, 64<<10 + 1, next.Len() - 1} {
		if err := job.saveCheckpoint(failingFileStore{st, k}, acc, seed, fp, 8); !errors.Is(err, errSinkFull) {
			t.Errorf("failing at byte %d: save returned %v, want the sink's error", k, err)
		}
		if now, err := os.ReadFile(st.Path); err != nil || !bytes.Equal(now, good) {
			t.Errorf("failing at byte %d: the previous checkpoint changed (err %v)", k, err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
			t.Errorf("failing at byte %d: left %v", k, tmps)
		}
	}
}

// TestCheckpointSeedMismatchRejected: a checkpoint directory reused by a
// different base seed is rejected rather than silently blended.
func TestCheckpointSeedMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 1
	sp.CheckpointDir = dir
	sp.CheckpointEvery = 4
	if _, err := Run(context.Background(), sp, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "*.ckpt")); err != nil {
		t.Fatal(err)
	}
	sp.BaseSeed++
	if _, err := Run(context.Background(), sp, nil); err == nil {
		t.Error("checkpoint from a different base seed was accepted")
	}
}

// TestCheckpointSpecChangeRejected: reusing a checkpoint directory after
// the step budget or physics knobs changed is a hard error — the old
// state must never be served as the new spec's result.
func TestCheckpointSpecChangeRejected(t *testing.T) {
	base := testSpec()
	base.Scenarios = base.Scenarios[:1]
	base.Replicas = 1
	base.CheckpointDir = t.TempDir()
	base.CheckpointEvery = 4
	if _, err := Run(context.Background(), base, nil); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"warm-steps", func(sp *Spec) { sp.WarmSteps = 2 }},
		{"sample-steps", func(sp *Spec) { sp.SampleSteps = 4 }},
		{"lambda", func(sp *Spec) { sp.Scenarios[0].Sim.Free.Lambda = 0 }},
		{"density", func(sp *Spec) { sp.Scenarios[0].Sim.NPerCell = 5 }},
		{"precision", func(sp *Spec) { sp.Scenarios[0].Float32 = true }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			sp := base
			sp.Scenarios = append([]Scenario(nil), base.Scenarios...)
			// Deep-copy the config so a mutation cannot leak into the
			// base spec of the next subtest through the shared pointer.
			cfg := *base.Scenarios[0].Sim
			sp.Scenarios[0].Sim = &cfg
			m.mutate(&sp)
			if _, err := Run(context.Background(), sp, nil); err == nil {
				t.Error("changed spec resumed over the old checkpoint directory")
			}
		})
	}
}
