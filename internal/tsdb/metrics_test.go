package tsdb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/metrics"
)

// TestQueryLatencyColdWarmSplit pins the cold/warm classification: the
// first query over durable blocks decodes off disk (cold), a repeat of
// the same range is served from the decoded cache (warm), and the decode
// itself lands in the per-codec histogram.
func TestQueryLatencyColdWarmSplit(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	xs := sensorData(2048, 1)
	if err := w.Append("cpu", xs...); err != nil {
		t.Fatal(err)
	}
	// Reopen so the decoded-block cache starts empty: writers cache each
	// block's reconstruction as they persist it, which would make the
	// first query warm on a freshly written store.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Query("cpu", 0, 1024); err != nil { // cold: decodes blocks
		t.Fatal(err)
	}
	if _, err := db.Query("cpu", 0, 1024); err != nil { // warm: cache-resident
		t.Fatal(err)
	}
	s := db.Stats()
	if s.QueryCold.Count == 0 {
		t.Fatalf("no cold query observed: %+v", s.QueryCold)
	}
	if s.QueryWarm.Count == 0 {
		t.Fatalf("no warm query observed: %+v", s.QueryWarm)
	}
	if len(s.DecodeByCodec) == 0 {
		t.Fatal("no per-codec decode observed")
	}
	if d, ok := s.DecodeByCodec["cameo"]; !ok || d.Count == 0 {
		t.Fatalf("cameo decode histogram empty: %+v", s.DecodeByCodec)
	}
	if s.QueryCold.P50 > s.QueryCold.P99 || s.QueryCold.P99 > s.QueryCold.Max {
		t.Fatalf("cold summary ordering: %+v", s.QueryCold)
	}

	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().LifecyclePass.Count; got == 0 {
		t.Fatal("Maintain pass not observed")
	}
}

// TestRegisterMetricsCoversStats renders the registry both ways and pins
// the exposition against a direct DB.Stats read: every counter family
// must carry the exact value Stats reports, and the append histogram's
// _count must equal Stats().Appends.
func TestRegisterMetricsCoversStats(t *testing.T) {
	db, err := Open(t.TempDir(), dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Append("cpu", sensorData(1500, 2)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("cpu", 0, 1500); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	db.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	s := db.Stats()

	pin := func(format string, args ...any) {
		t.Helper()
		line := fmt.Sprintf(format, args...)
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("exposition missing %q\n%s", line, out)
		}
	}
	pin("cameo_store_series %d", s.Series)
	pin("cameo_store_samples %d", s.Samples)
	pin("cameo_store_blocks_written_total %d", s.BlocksWritten)
	pin("cameo_store_bytes_written_total %d", s.BytesWritten)
	pin("cameo_store_disk_bytes %d", s.DiskBytes)
	pin("cameo_store_cache_hits_total %d", s.CacheHits)
	pin("cameo_store_cache_misses_total %d", s.CacheMisses)
	pin("cameo_store_append_latency_seconds_count %d", s.Appends)
	pin(`cameo_store_query_latency_seconds_count{cache="cold"} %d`, s.QueryCold.Count)
	pin(`cameo_store_query_latency_seconds_count{cache="warm"} %d`, s.QueryWarm.Count)
	if d, ok := s.DecodeByCodec["cameo"]; ok {
		pin(`cameo_store_block_decode_seconds_count{codec="cameo"} %d`, d.Count)
	}

	var jb strings.Builder
	if err := reg.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cameo_store_samples"`, `"cameo_store_append_latency_seconds"`} {
		if !strings.Contains(jb.String(), key) {
			t.Fatalf("JSON view missing %s:\n%s", key, jb.String())
		}
	}
}

// TestCoreEvalsMetric pins the cameo_core_* families: a CAMEO store exports
// the evaluations behind its blocks split by path, the blocks by why their
// run ended and the heap pops; the streaming write mode (which slices the
// batch algorithm's exact work) counts the same totals as the batch one,
// and a store under another codec has no such families to export. At 24
// lags no block runs in sketch order; at 120 every one does, and the three
// paths add up to the work units core.Compress reports for the blocks.
func TestCoreEvalsMetric(t *testing.T) {
	const blocks = 3
	scrape := func(opt Options, xs []float64) string {
		t.Helper()
		db, err := Open(t.TempDir(), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Append("cpu", xs...); err != nil {
			t.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		db.RegisterMetrics(reg)
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(l, "cameo_core_") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	type counts struct{ full, cached, sketch, done, bound, ratio, probe, pops uint64 }
	parse := func(expo string) counts {
		t.Helper()
		var c counts
		if _, err := fmt.Sscanf(expo, `cameo_core_evals_total{path="full"} %d
cameo_core_evals_total{path="cached"} %d
cameo_core_evals_total{path="sketch"} %d
cameo_core_blocks_total{stop="done"} %d
cameo_core_blocks_total{stop="bound"} %d
cameo_core_blocks_total{stop="ratio"} %d
cameo_core_blocks_total{stop="probe"} %d
cameo_core_pops_total %d`, &c.full, &c.cached, &c.sketch, &c.done, &c.bound, &c.ratio, &c.probe, &c.pops); err != nil {
			t.Fatalf("unexpected exposition %q: %v", expo, err)
		}
		return c
	}
	for _, lags := range []int{24, 120} {
		opt := dbOptions()
		opt.Compression.Lags = lags
		xs := sensorData(blocks*opt.BlockSize+10, 2)
		batch := scrape(opt, xs)
		c := parse(batch)
		// Noisy sensor data stops at the bound, after at least one pop a block.
		if c.bound != blocks || c.done+c.ratio+c.probe != 0 || c.pops < blocks {
			t.Fatalf("L=%d: blocks done/bound/ratio/probe = %d/%d/%d/%d, pops = %d after three blocks", lags, c.done, c.bound, c.ratio, c.probe, c.pops)
		}
		if lags < 96 {
			// At least the 510 initial impacts a block in full, and the heap
			// loop's far neighbours from the cache.
			if c.full < blocks*510 || c.cached == 0 || c.sketch != 0 {
				t.Fatalf("L=%d: full=%d cached=%d sketch=%d after three blocks", lags, c.full, c.cached, c.sketch)
			}
		} else {
			// The initial impacts and refreshes are sketch keys; the full
			// evaluations are the pops' exact checks.
			var units uint64
			for b := 0; b < blocks; b++ {
				res, err := core.Compress(xs[b*opt.BlockSize:(b+1)*opt.BlockSize], opt.Compression)
				if err != nil {
					t.Fatal(err)
				}
				units += uint64(res.Evals + res.SketchEvals)
			}
			if c.sketch < blocks*510 || c.full == 0 || c.full+c.cached+c.sketch != units {
				t.Fatalf("L=%d: full=%d cached=%d sketch=%d after three blocks, core.Compress charged %d units", lags, c.full, c.cached, c.sketch, units)
			}
		}
		streaming := opt
		streaming.Streaming = true
		if got := scrape(streaming, xs); got != batch {
			t.Fatalf("L=%d: streaming store counted\n%s\nbatch store\n%s", lags, got, batch)
		}
	}
	lossless := dbOptions()
	lossless.Codec = codec.Gorilla{}
	if got := scrape(lossless, sensorData(blocks*lossless.BlockSize+10, 2)); got != "" {
		t.Fatalf("gorilla store exports %q", got)
	}
}
