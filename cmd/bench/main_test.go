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
