package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs the traced form of all four workloads (which is the
// untraced form plus the in-process replay) at -scale 0.02 against a cameod
// it builds: every run must pass its own output checks and yield both of
// the driver's result lines, and every per-layer metric BENCHMARK.json
// names must be reported by some workload. It exists so that a change to a
// layer's public functions that breaks the harness fails a test and not
// the next benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts cameod and compresses for several seconds")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	e := &env{
		root:    root,
		outDir:  t.TempDir(),
		binDir:  t.TempDir(),
		seed:    1,
		seconds: 0.02 * float64(spec.RunSeconds),
		trace:   true,
	}
	reported := make(map[string]bool)
	for _, name := range workloadOrder {
		res, err := e.runWorkload(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d checks failed: %v", name, res.Failed, res.Attempted, res.Notes)
		}
		if _, err := contractLine(spec, res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		untraced := *res
		untraced.Trace = false
		if _, err := contractLine(spec, &untraced); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for m := range res.Metrics {
			reported[m] = true
		}
	}
	// These need a window of seconds: a tail percentile needs hundreds of
	// samples, the cache and the maintenance loop need time to be used.
	fullRunOnly := map[string]bool{
		"write_p95_ms": true, "write_p99_ms": true, "query_p95_ms": true, "query_p99_ms": true,
		"agg_p95_ms": true, "agg_p99_ms": true,
		"tsdb.cache_hit_ratio": true, "tsdb.maintain_ms_per_pass": true, "tsdb.maintain_passes": true,
	}
	for _, m := range spec.PerLayer {
		if !reported[m.Name] && !fullRunOnly[m.Name] {
			t.Errorf("per-layer metric %q is in BENCHMARK.json but no workload reported it", m.Name)
		}
	}
}
