//go:build linux

package main

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
)

// perLayerMetrics are the metrics of a traced run, layer by layer (the
// prefix is the module's name). README.md says which end-to-end metric
// each should move, and on which workload.
var perLayerMetrics = []metricDef{
	// dsmc: the public package, on the one-worker paper-scale flow.
	{Name: "dsmc.new_s", Unit: "s", Better: "lower"},
	{Name: "dsmc.window_p50_s", Unit: "s", Better: "lower"},
	{Name: "dsmc.window_p90_s", Unit: "s", Better: "lower"},
	{Name: "dsmc.sample_extra_us", Unit: "us", Better: "lower"},
	{Name: "dsmc.field_s", Unit: "s", Better: "lower"},
	// engine: the engine's own phase totals per 10^6 particle-steps, at
	// one worker and (_wn) at min(nproc,4); unattributed is window wall
	// minus the four phases.
	{Name: "engine.move_s", Unit: "s", Better: "lower"},
	{Name: "engine.sort_s", Unit: "s", Better: "lower"},
	{Name: "engine.select_s", Unit: "s", Better: "lower"},
	{Name: "engine.collide_s", Unit: "s", Better: "lower"},
	{Name: "engine.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "engine.move_wn_s", Unit: "s", Better: "lower"},
	{Name: "engine.sort_wn_s", Unit: "s", Better: "lower"},
	{Name: "engine.select_wn_s", Unit: "s", Better: "lower"},
	{Name: "engine.collide_wn_s", Unit: "s", Better: "lower"},
	{Name: "engine.unattributed_wn_s", Unit: "s", Better: "lower"},
	{Name: "engine.steps", Unit: "count", Better: "lower"},
	{Name: "engine.particle_steps", Unit: "count", Better: "lower"},
	{Name: "engine.collisions", Unit: "count", Better: "lower"},
	// par: the fused cell sort and the pool, on a synthetic store.
	{Name: "par.plan_w1_ns", Unit: "ns", Better: "lower"},
	{Name: "par.scatter_w1_ns", Unit: "ns", Better: "lower"},
	{Name: "par.shuffle_w1_ns", Unit: "ns", Better: "lower"},
	{Name: "par.plan_wn_ns", Unit: "ns", Better: "lower"},
	{Name: "par.scatter_wn_ns", Unit: "ns", Better: "lower"},
	{Name: "par.shuffle_wn_ns", Unit: "ns", Better: "lower"},
	{Name: "par.barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "par.efficiency_wn", Unit: "ratio", Better: "higher"},
	// kernel: the inner loops per element, and the bytes each moves
	// (computed from the layout, not measured).
	{Name: "kernel.advance2_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.pairrelspeeds_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.exchangepair_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.advance2_bytes", Unit: "B", Better: "lower"},
	{Name: "kernel.pairrelspeeds_bytes", Unit: "B", Better: "lower"},
	{Name: "kernel.exchangepair_bytes", Unit: "B", Better: "lower"},
	// ckpt: one simulation of the sweep jobs' size.
	{Name: "ckpt.encode_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},
	{Name: "ckpt.restore_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.saves", Unit: "count", Better: "lower"},
	// run: the in-process scheduler, per sweep, from its own events.
	{Name: "run.jobs", Unit: "count", Better: "lower"},
	{Name: "run.job_busy_s", Unit: "s", Better: "lower"},
	{Name: "run.slot_wait_s", Unit: "s", Better: "lower"},
	{Name: "run.aggregate_s", Unit: "s", Better: "lower"},
	{Name: "run.overhead_s", Unit: "s", Better: "lower"},
	{Name: "run.sweepjob_s", Unit: "s", Better: "lower"},
	// store: a put and a verified get of one replica output, and the
	// server's store counters per sweep (misses and publishes cold, hits
	// warm).
	{Name: "store.put_s", Unit: "s", Better: "lower"},
	{Name: "store.put_bytes", Unit: "B", Better: "lower"},
	{Name: "store.get_s", Unit: "s", Better: "lower"},
	{Name: "store.hits", Unit: "count", Better: "higher"},
	{Name: "store.misses", Unit: "count", Better: "lower"},
	{Name: "store.publishes", Unit: "count", Better: "lower"},
	// coord: dsmcd's /metrics deltas per cold sweep, and event times.
	{Name: "coord.lease_grants", Unit: "count", Better: "lower"},
	{Name: "coord.completions", Unit: "count", Better: "lower"},
	{Name: "coord.heartbeats", Unit: "count", Better: "lower"},
	{Name: "coord.polls", Unit: "count", Better: "lower"},
	{Name: "coord.job_seconds", Unit: "s", Better: "lower"},
	{Name: "coord.first_dispatch_s", Unit: "s", Better: "lower"},
	{Name: "coord.tail_s", Unit: "s", Better: "lower"},
	{Name: "coord.tail_warm_s", Unit: "s", Better: "lower"},
	// dsmcd: the HTTP surface as its client times it.
	{Name: "dsmcd.submit_s", Unit: "s", Better: "lower"},
	{Name: "dsmcd.result_fetch_s", Unit: "s", Better: "lower"},
	{Name: "dsmcd.result_bytes", Unit: "B", Better: "lower"},
	{Name: "dsmcd.result_304_s", Unit: "s", Better: "lower"},
	{Name: "dsmcd.quantity_fetch_s", Unit: "s", Better: "lower"},
	{Name: "dsmcd.sweep_p50_s", Unit: "s", Better: "lower"},
	{Name: "dsmcd.sweep_p90_s", Unit: "s", Better: "lower"},
	{Name: "dsmcd.warm_p50_s", Unit: "s", Better: "lower"},
	{Name: "dsmcd.http_overhead_s", Unit: "s", Better: "lower"},
	{Name: "dsmcd.rss_per_sweep_mb", Unit: "MB", Better: "lower"},
	// obs: step cost with the registry's record paths on over off.
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower"},
	// The selected workload's op_p10_s with spans on over spans off.
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// section is one workload's part of a traced run.
type section struct {
	inst          instance
	traced, plain []float64          // op values with spans on and off
	before, after map[string]float64 // the program under test's registry around the ops
	rssGrowth     float64            // growth of its resident set over the ops, MB
}

func (s *section) all() []float64 { return append(append([]float64(nil), s.traced...), s.plain...) }

// delta is the per-op growth of one registry sample over the section.
func (s *section) delta(key string) float64 {
	return (s.after[key] - s.before[key]) / float64(len(s.traced)+len(s.plain))
}

// runTraced is the attribution run. It runs every workload with spans
// on — the selected one at its full op count, alternating spans on and
// off op by op, which gives trace_overhead_ratio; the others at a small
// fixed count — and then the synthetic layer probes, so that one traced
// run yields every per-layer metric with one meaning each, whichever
// workload was selected. End-to-end metrics never come from this run.
func runTraced(e *env, selected workload, spansPath string) (*record, error) {
	if err := e.buildDsmcd(); err != nil {
		return nil, err
	}
	rec := &record{Workload: selected.name, Context: e.context(selected)}
	tr := newTracer()
	m := map[string]float64{}
	secs := map[string]*section{}
	ref, err := startRef(e, e.nproc) // for the run context's streaming probe only
	if err != nil {
		return nil, err
	}
	defer ref.close()
	if rec.Context.StreamGBps[0], err = ref.ask("stream"); err != nil {
		return nil, err
	}
	for _, w := range workloads {
		sec, err := runSection(e, w, tr, w.name == selected.name, rec, m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		secs[w.name] = sec
		debug.FreeOSMemory()
	}
	cells := 98 * 64
	if err := layerProbes(e, int(e.sz.wedgePerCell*float64(cells)), cells, m); err != nil {
		return nil, err
	}
	if rec.Context.StreamGBps[1], err = ref.ask("stream"); err != nil {
		return nil, err
	}

	wedgeMetrics(secs[nameW1], "", e.sz, m)
	wedgeMetrics(secs[nameWN], "_wn", e.sz, m)
	w1 := secs[nameW1]
	m["dsmc.new_s"] = w1.inst.(*wedgeInst).newS
	m["dsmc.field_s"] = w1.inst.(*wedgeInst).fieldS
	m["dsmc.window_p50_s"] = median(w1.all())
	m["dsmc.window_p90_s"] = quantile(w1.all(), 0.9)

	inproc := secs[nameInproc]
	pool := float64(e.nproc)
	var jobs, busy, wait, agg, overhead []float64
	for _, r := range inproc.inst.(*inprocInst).rows {
		jobs = append(jobs, float64(r.jobs))
		busy = append(busy, r.busy)
		wait = append(wait, r.slotWait)
		agg = append(agg, r.aggregate)
		overhead = append(overhead, r.wall*pool-r.busy-r.aggregate)
	}
	m["run.jobs"], m["run.job_busy_s"], m["run.slot_wait_s"] = median(jobs), median(busy), median(wait)
	m["run.aggregate_s"], m["run.overhead_s"] = median(agg), median(overhead)

	cold, warm := secs[nameCold], secs[nameWarm]
	m["coord.lease_grants"] = cold.delta("dsmc_coord_lease_grants_total")
	m["coord.completions"] = cold.delta("dsmc_coord_completions_total")
	m["coord.heartbeats"] = cold.delta("dsmc_coord_heartbeats_total")
	m["coord.polls"] = cold.delta("dsmc_worker_polls_total")
	m["coord.job_seconds"] = cold.delta("dsmc_coord_job_seconds_sum")
	m["store.misses"] = cold.delta("dsmc_store_misses_total")
	m["store.publishes"] = cold.delta("dsmc_store_publishes_total")
	m["store.hits"] = warm.delta("dsmc_store_hits_total")
	pick := func(s *section, f func(*sweepCall) float64) float64 {
		var xs []float64
		for _, c := range s.inst.(*dsmcdInst).calls {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	m["coord.first_dispatch_s"] = pick(cold, func(c *sweepCall) float64 { return c.firstDispatch })
	m["coord.tail_s"] = pick(cold, func(c *sweepCall) float64 { return c.tail })
	m["coord.tail_warm_s"] = pick(warm, func(c *sweepCall) float64 { return c.tail })
	m["dsmcd.submit_s"] = pick(cold, func(c *sweepCall) float64 { return c.submit })
	m["dsmcd.result_fetch_s"] = pick(cold, func(c *sweepCall) float64 { return c.fetch })
	m["dsmcd.result_bytes"] = pick(cold, func(c *sweepCall) float64 { return float64(c.bytes) })
	m["dsmcd.result_304_s"] = pick(warm, func(c *sweepCall) float64 { return c.revalidate })
	m["dsmcd.quantity_fetch_s"] = pick(warm, func(c *sweepCall) float64 { return c.quantity })
	m["dsmcd.sweep_p50_s"] = median(cold.all())
	m["dsmcd.sweep_p90_s"] = quantile(cold.all(), 0.9)
	m["dsmcd.warm_p50_s"] = median(warm.all())
	m["dsmcd.http_overhead_s"] = p10(cold.all()) - p10(inproc.all())
	m["dsmcd.rss_per_sweep_mb"] = warm.rssGrowth / float64(len(warm.all()))

	sel := secs[selected.name]
	m["trace_overhead_ratio"] = p10(sel.traced) / p10(sel.plain)

	spans := tr.snapshot()
	if err := checkSpans(spans, 0.05); err != nil {
		rec.Notes = append(rec.Notes, "trace: "+err.Error())
	}
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	rec.Attempted = len(sel.all()) + rec.Failed
	rec.Correct = len(rec.Notes) == 0
	rec.OpSeconds = sel.all()
	rec.Metrics = map[string]metricValue{}
	var missing []string
	for _, d := range perLayerMetrics {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		rec.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("traced run produced no %s", strings.Join(missing, ", "))
	}
	return rec, nil
}

// runSection sets one workload up once and runs its ops with spans on.
// The selected workload runs its full count with every second op
// untraced; a failed op is counted against the selected workload only in
// the notes, which make the run incorrect either way.
func runSection(e *env, w workload, tr *tracer, selected bool, rec *record, m map[string]float64) (*section, error) {
	inst, err := w.setup(e, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	sec := &section{inst: inst}
	n := w.section(e.sz)
	if selected {
		n = w.ops(e.sz)
	}
	if sec.before, err = inst.scrape(); err != nil {
		return nil, err
	}
	rss0, err := statusMB(inst.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		opTr := tr
		if selected && i%2 == 1 {
			opTr = nil
		}
		wall, scale, err := inst.op(i, opTr)
		v := wall * scale
		switch {
		case err != nil:
			if selected {
				rec.Failed++
			}
			rec.Notes = append(rec.Notes, fmt.Sprintf("%s op %d: %v", w.name, i, err))
		case opTr != nil:
			sec.traced = append(sec.traced, v)
		default:
			sec.plain = append(sec.plain, v)
		}
	}
	if len(sec.traced) == 0 || selected && len(sec.plain) == 0 {
		return nil, fmt.Errorf("every op failed: %s", strings.Join(rec.Notes, "; "))
	}
	if sec.after, err = inst.scrape(); err != nil {
		return nil, err
	}
	rss1, err := statusMB(inst.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	sec.rssGrowth = rss1 - rss0
	if wi, ok := inst.(*wedgeInst); ok && wi.workers == 1 {
		wedgeProbes(wi, m)
	}
	if err := inst.check(); err != nil {
		rec.Notes = append(rec.Notes, fmt.Sprintf("%s check: %v", w.name, err))
	}
	return sec, inst.close()
}

// wedgeMetrics turns a wedge section's traced windows into the engine
// layer's numbers: the median over windows of each phase, scaled like
// the op to 10^6 particle-steps, and the work counts, which repeat
// exactly for a seed.
func wedgeMetrics(s *section, suffix string, sz sizes, m map[string]float64) {
	rows := s.inst.(*wedgeInst).rows
	names := [4]string{"move", "sort", "select", "collide"}
	per := make([][]float64, 5)
	var particleSteps float64
	var collisions int64
	for _, r := range rows {
		scale := 1e6 / r.particleSteps
		rest := r.wall
		for i, p := range r.phase {
			per[i] = append(per[i], p*scale)
			rest -= p
		}
		per[4] = append(per[4], rest*scale)
		particleSteps += r.particleSteps
		collisions += r.collisions
	}
	for i, name := range names {
		m["engine."+name+suffix+"_s"] = median(per[i])
	}
	m["engine.unattributed"+suffix+"_s"] = median(per[4])
	if suffix == "" {
		m["engine.steps"] = float64(len(rows) * sz.windowSteps)
		m["engine.particle_steps"] = particleSteps
		m["engine.collisions"] = float64(collisions)
	}
}
