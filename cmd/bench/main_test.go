package main

import "testing"

// TestIsTrajectoryRecord pins which -out names a -quick run refuses.
func TestIsTrajectoryRecord(t *testing.T) {
	for path, want := range map[string]bool{
		"BENCH_PR10.json":           true,
		"BENCH_PR13.json":           true,
		"records/BENCH_PR9.json":    true,
		"/tmp/bench_smoke.json":     false,
		"BENCH_PR10.json.bak":       false,
		"bench_pr10.json":           false,
		"/tmp/BENCH_PR/smoke.json":  false,
		"BENCH_PR13_quick.json.txt": false,
	} {
		if got := isTrajectoryRecord(path); got != want {
			t.Errorf("isTrajectoryRecord(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestCompareReadsHistoricalRecord: a committed record written when
// cases still carried tile/regions fields and the scatter-tile and
// region-sweep groups loads as a -baseline; cases it shares with the
// current record get their speedup, the rest are ignored.
func TestCompareReadsHistoricalRecord(t *testing.T) {
	rec := Record{Cases: []Case{
		{Name: "fig4-rarefied", UsPerParticleStep: 0.05},
		{Name: "no-such-case", UsPerParticleStep: 0.05},
	}}
	if err := rec.compare("../../BENCH_PR10.json"); err != nil {
		t.Fatal(err)
	}
	if c := rec.Cases[0]; c.BaselineUsPerParticleStep <= 0 || c.SpeedupVsBaseline <= 0 {
		t.Errorf("shared case got no baseline: %+v", c)
	}
	if c := rec.Cases[1]; c.BaselineUsPerParticleStep != 0 || c.SpeedupVsBaseline != 0 {
		t.Errorf("unshared case got a baseline: %+v", c)
	}
}
