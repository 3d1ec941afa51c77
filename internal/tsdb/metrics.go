package tsdb

import (
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/metrics"
)

// RegisterMetrics registers a collector on reg exposing every DB.Stats
// field under the cameo_store_* namespace, plus the full bucket
// distributions of the append, query (cold/warm), per-codec decode,
// checkpoint-seek, and lifecycle histograms that DBStats only summarizes.
// The collector performs one Stats() pass per render, so a scrape costs
// the same as one /statusz-style snapshot; nothing is collected until a
// renderer runs.
func (db *DB) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(e *metrics.Emitter) {
		s := db.Stats()
		e.Gauge("cameo_store_series", "Distinct series in the store.", float64(s.Series))
		e.Gauge("cameo_store_samples", "Total samples across series, including tails.", float64(s.Samples))
		e.Counter("cameo_store_blocks_written_total", "Blocks persisted since Open.", s.BlocksWritten)
		e.Counter("cameo_store_bytes_written_total", "Compressed bytes persisted since Open.", s.BytesWritten)
		e.Gauge("cameo_store_disk_bytes", "Current durable block bytes across series.", float64(s.DiskBytes))
		e.Gauge("cameo_store_cache_shards", "Independent decoded-block caches (0 = caching off).", float64(s.CacheShards))
		e.Counter("cameo_store_cache_hits_total", "Decoded-block cache hits.", s.CacheHits)
		e.Counter("cameo_store_cache_misses_total", "Decoded-block cache misses (single-flight leaders).", s.CacheMisses)
		e.Counter("cameo_store_cache_waits_total", "Cold queries that waited on another query's in-flight decode.", s.CacheWaits)
		e.Counter("cameo_store_range_decodes_total", "Cold partial-range decodes pushed down to the codec.", s.RangeDecodes)
		e.Counter("cameo_store_agg_pushdowns_total", "Blocks aggregated straight from the compressed form.", s.AggPushdowns)
		e.Counter("cameo_store_prefetch_hits_total", "Prefetched chunks consumed by a cursor.", s.PrefetchHits)
		e.Counter("cameo_store_prefetch_wasted_total", "Prefetches completed but discarded.", s.PrefetchWasted)
		e.Counter("cameo_store_fanout_queries_total", "Multi-series scatter-gather query calls.", s.FanoutQueries)
		e.Counter("cameo_store_checkpoint_seeks_total", "Cold bit-stream block reads served via the checkpoint sidecar.", s.CheckpointSeeks)
		e.Counter("cameo_store_checkpoint_bytes_total", "Compressed stream bytes traversed by checkpoint-assisted reads.", s.CheckpointBytes)
		e.Gauge("cameo_store_queued_compressions", "Compressions waiting in the worker queue.", float64(s.Queued))
		e.Gauge("cameo_store_inflight_compressions", "Compressions currently executing.", float64(s.Inflight))
		e.Counter("cameo_store_stream_blocks_total", "Blocks compressed incrementally on the append path.", s.StreamBlocks)
		e.Counter("cameo_store_stream_forced_total", "Streaming blocks force-finished.", s.StreamForced)
		e.Counter("cameo_store_lifecycle_passes_total", "Completed Maintain passes.", s.LifecyclePasses)
		e.Counter("cameo_store_lifecycle_errors_total", "Maintain passes that reported at least one error.", s.LifecycleErrors)
		e.Counter("cameo_store_compaction_runs_total", "Block groups merged by compaction.", s.CompactionRuns)
		e.Counter("cameo_store_compacted_blocks_total", "Source blocks consumed by compaction merges.", s.CompactedBlocks)
		e.Counter("cameo_store_rollup_samples_total", "Samples appended to rollup series.", s.RollupSamples)
		e.Counter("cameo_store_trimmed_blocks_total", "Blocks deleted by retention.", s.TrimmedBlocks)
		e.Counter("cameo_store_trimmed_bytes_total", "Compressed bytes reclaimed by retention.", s.TrimmedBytes)
		e.Counter("cameo_store_series_deleted_total", "Series removed by DeleteSeries.", s.SeriesDeleted)

		if c, ok := db.opt.Codec.(*codec.CAMEO); ok {
			const help = "CAMEO evaluations behind the blocks written: impact evaluations whose cross terms were computed (full) or reused (cached), and keys over the lag sketch of large-lag shapes (sketch)."
			full, cached, sketch := c.EvalTotals()
			e.CounterL("cameo_core_evals_total", help, metrics.Labels("path", "full"), full)
			e.CounterL("cameo_core_evals_total", help, metrics.Labels("path", "cached"), cached)
			e.CounterL("cameo_core_evals_total", help, metrics.Labels("path", "sketch"), sketch)
			const blocksHelp = "CAMEO blocks written, by why the run ended: every interior point removed (done), the deviation bound (bound), the target ratio (ratio), or the two endpoints alone within the bound (probe)."
			pops, blocks := c.RunTotals()
			for stop := core.StopDone; stop <= core.StopProbe; stop++ {
				e.CounterL("cameo_core_blocks_total", blocksHelp, metrics.Labels("stop", stop.String()), blocks[stop])
			}
			e.Counter("cameo_core_pops_total", "Heap pops (candidate revalidations) behind the CAMEO blocks written.", pops)
		}

		e.Histogram("cameo_store_append_latency_seconds",
			"Append wall time (all modes).", 1e-9, db.appendLatency.Snapshot())
		e.HistogramL("cameo_store_query_latency_seconds",
			"Whole-query wall time by cache behavior (cold = touched disk).",
			metrics.Labels("cache", "cold"), 1e-9, db.queryCold.Snapshot())
		e.HistogramL("cameo_store_query_latency_seconds",
			"Whole-query wall time by cache behavior (cold = touched disk).",
			metrics.Labels("cache", "warm"), 1e-9, db.queryWarm.Snapshot())
		e.Histogram("cameo_store_checkpoint_seek_bytes",
			"Compressed bytes traversed per checkpoint-assisted read.", 1, db.ckptSeekBytes.Snapshot())
		e.Histogram("cameo_store_lifecycle_pass_seconds",
			"Maintain pass wall time.", 1e-9, db.lifecyclePass.Snapshot())
		for _, c := range codec.Registered() {
			h, ok := db.decodeHists[c.ID()]
			if !ok {
				continue
			}
			snap := h.Snapshot()
			if snap.Count == 0 {
				continue // keep the family to codecs this store actually decoded
			}
			e.HistogramL("cameo_store_block_decode_seconds",
				"Cold block decode wall time by codec.",
				metrics.Labels("codec", c.Name()), 1e-9, snap)
		}
	})
}
