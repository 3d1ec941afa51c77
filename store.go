package cameo

import (
	"repro/internal/core"
	"repro/internal/tsdb"
)

// Store is an embedded time-series database that persists regularly
// sampled series as codec-compressed, binary-encoded blocks. The engine is
// sharded and concurrent: series names hash across independent lock
// domains, full blocks compress on a bounded worker pool off the append
// path, and a per-shard LRU cache of decoded blocks serves repeated range
// queries from memory (cold misses for one block are single-flighted, so
// concurrent queries never redundantly decode the same block). Appends
// buffer in memory, full blocks compress under the configured codec, and
// queries reconstruct only the blocks overlapping the requested range.
//
// Block compression is pluggable (see Codec): the default is CAMEO, whose
// lossy reconstruction preserves the series' autocorrelation structure
// within the configured bound; the lossless codecs (CodecGorilla,
// CodecChimp, CodecELF) make the store an exact-replay archive at a lower
// compression ratio, and the pointwise-lossy segment codecs (CodecPMC,
// CodecSwing, CodecSimPiece) bound per-value error instead. Every block
// file carries a self-describing header (magic, format version, codec
// ID, sample count, and — for the bit-stream codecs — a checkpoint
// sidecar enabling random access), so a store may mix blocks written
// under different codecs and format versions across reopens, and stores
// written by the pre-header engine remain fully readable (their
// headerless blocks decode as CAMEO).
//
// The read path is a streaming cursor architecture with pushdown:
//
//   - Query(name, from, to) materializes a range as one slice (a thin
//     wrapper that collects a cursor); QueryInto appends into a caller
//     buffer instead, amortizing the allocation across queries.
//   - Cursor(name, from, to) streams the range chunk by chunk without
//     materializing it: cache-resident blocks are yielded as sub-slices
//     with no copy, cold blocks of the segment codecs and CAMEO decode
//     only the overlapping samples (codec range pushdown), cold
//     bit-stream blocks seek via their checkpoint sidecar and decode
//     O(overlap + CheckpointInterval) samples, and blocks still
//     compressing are waited for only when reached.
//   - QueryAgg(name, from, to, step, f) answers downsampled aggregate
//     queries (one value per step-sample window, f one of AggMean,
//     AggSum, AggMax, AggMin): for cold blocks of the segment codecs and
//     CAMEO the sums/extrema are computed straight from the compressed
//     segment forms without materializing samples at all, and cold
//     bit-stream blocks fold their windows in one seek-assisted pass.
//   - QueryMulti / QueryAggMulti answer one query over several series at
//     once: per-series scans scatter across the worker pool (bounded by
//     QueryFanout) and gather in the caller's series order, each result's
//     Err carrying that series' failure instead of failing the batch.
//     MultiCursor is the streaming form. With ReadAhead set, a single
//     cursor additionally prefetches upcoming cold blocks on the pool
//     while the caller consumes earlier chunks.
//   - Series() returns the stored names in lexicographically sorted
//     order — a documented guarantee, stable across reopens.
//
// Long-running stores manage their own disk budget through background
// lifecycle jobs (see the lifecycle knobs in StoreOptions): compaction
// merges the under-filled blocks trickle ingest leaves behind into full
// ones with bit-identical reconstructions, retention trims each series to
// an age and the store to a byte budget, and rollup tiers materialize
// downsampled aggregates that QueryAgg answers from transparently. The
// jobs run on the same bounded worker pool as ingest compression when
// LifecycleInterval is set, or on demand via Maintain(); DeleteSeries
// removes one series (and its rollup tiers) atomically and durably.
type Store = tsdb.DB

// StoreCursor streams one query range chunk by chunk (see Store.Cursor):
// Next yields block-sized read-only chunks valid until the next call,
// Err reports the first resolution error, Close releases pooled buffers.
type StoreCursor = tsdb.Cursor

// StoreMultiCursor streams a multi-series scatter-gather query section by
// section in request order (see Store.MultiCursor): Section advances to
// the next series, Next yields its chunks, Err reports that section's
// failure, Close stops outstanding work and releases every pooled buffer.
type StoreMultiCursor = tsdb.MultiCursor

// MultiResult is one series' section of a Store.QueryMulti or
// Store.QueryAggMulti response; per-series failures land in Err so one
// bad series never fails the batch.
type MultiResult = tsdb.MultiResult

// StoreOptions configures a Store:
//
//   - Compression: the per-block CAMEO options (Lags and Epsilon or
//     TargetRatio required); consulted only when Codec is nil.
//   - Codec: the block compressor for newly written blocks. nil selects
//     CAMEO built from Compression; any Codec* constructor's result may be
//     supplied instead (Compression is then ignored). Reads always resolve
//     each block's codec from its on-disk header, so switching Codec
//     between opens never invalidates existing data.
//   - BlockSize: samples per compressed block (default 4096; must be at
//     least the codec's minimum — for CAMEO, 4x lags[*window]).
//   - Shards: independent lock domains for series (default 16); appends to
//     series in different shards never contend. Shards=1 restores a single
//     global lock.
//   - Workers: block-compression pool size; 0 picks GOMAXPROCS, negative
//     disables the pool so appends compress inline (synchronous mode).
//   - CacheBlocks: total LRU capacity, in blocks, of decoded
//     reconstructions kept for queries, split evenly across per-shard
//     caches (a single series always lives in one shard, so budget
//     Shards x its working set for hot-series scans); 0 picks 128,
//     negative disables caching.
//   - ReadAhead: cursor prefetch depth — while a query consumes one chunk,
//     up to this many upcoming cold blocks read and decode concurrently on
//     the worker pool into pooled buffers. The streamed samples are
//     bit-identical to the sequential path's. 0 (default) disables
//     prefetch, the right setting on single-core hosts; negative errors.
//   - QueryFanout: per-call concurrency cap of the multi-series read path
//     (QueryMulti, QueryAggMulti, MultiCursor); 0 picks the worker-pool
//     width, negative errors.
//   - CheckpointInterval: checkpoint spacing, in samples, recorded in the
//     sidecar of every bit-stream-coded block (gorilla, chimp, elf) so a
//     cold partial read seeks to the nearest checkpoint instead of
//     replaying the block front: 0 picks the codec default of 128,
//     negative disables checkpoints (version-1 blocks, no sidecar).
//     Smaller intervals cut cold point-read latency at ~11 sidecar bytes
//     per checkpoint; the compressed bit stream is identical under every
//     setting, so mixed-interval stores replay bit-identically.
//   - Streaming: spread each block's compression across the appends that
//     feed it instead of paying the whole cost at block-cut time — every
//     Append performs a small, latency-capped slice of the in-progress
//     block's compression, paced to finish just ahead of the next cut.
//     Blocks written this way are byte-identical to batch-compressed ones,
//     so readers, recovery, and compaction treat them identically.
//     Requires a codec with a streaming encode path (CAMEO).
//   - MaxAppendLatency: wall-clock cap on the compression slice one Append
//     performs in streaming mode (default 1ms); leftover work defers to
//     later appends or to the forced finish at the next cut.
//   - Retention: per-series age budget in samples; maintenance trims each
//     series to at most this many trailing samples (0 keeps everything).
//   - RetainBytes: store-wide compressed-byte budget; maintenance deletes
//     oldest blocks of the largest series first until under it (0 = no cap).
//   - CompactMinFill: blocks holding less than this fraction of BlockSize
//     are compaction candidates (0 picks 0.5; negative disables
//     compaction). Merged reconstructions are bit-identical to the
//     originals'.
//   - Rollups: pre-aggregated tiers (RollupSpec per step) materialized as
//     ordinary series named "<name>@<agg>:<step>" and stored losslessly;
//     QueryAgg answers tier-aligned queries from the coarsest satisfying
//     tier without touching raw blocks.
//   - LifecycleInterval: period of the background maintenance pass
//     (compaction, rollups, retention); 0 disables it — call
//     Store.Maintain explicitly instead.
type StoreOptions = tsdb.Options

// RollupSpec declares one pre-aggregated tier in StoreOptions.Rollups: a
// window width in samples (Step, at least 2), the aggregate functions to
// materialize (default mean/sum/min/max), and an optional per-tier
// Retention in rollup samples. Tiers are stored as ordinary series named
// "<base>@<agg>:<step>" under a lossless codec, so tier-served answers
// equal the aggregates of the raw reconstruction exactly.
type RollupSpec = tsdb.RollupSpec

// StoreStats summarizes one stored series (see Store.SeriesStats).
type StoreStats = tsdb.Stats

// StoreTotals aggregates engine-level counters — blocks/bytes written,
// per-shard cache hits/misses/single-flight waits, read-path pushdowns
// (RangeDecodes: cold partial decodes that skipped full reconstruction;
// AggPushdowns: blocks aggregated without materializing samples;
// CheckpointSeeks/CheckpointBytes: cold bit-stream reads served via the
// checkpoint sidecar and the compressed bytes they traversed;
// PrefetchHits/PrefetchWasted: readahead decodes consumed by the cursor
// versus completed but discarded; FanoutQueries: multi-series batch
// calls), the compression queue backlog, the append-latency histogram (Appends,
// AppendP50/AppendP99/AppendMax — log-spaced buckets, so the percentiles
// are conservative upper bounds within 2x; the max is exact), the
// streaming-ingest counters (StreamBlocks: blocks compressed incrementally
// on the append path; StreamForced: streaming blocks finished by a reader,
// Sync/Flush, or a cut outrunning the pacing), and the lifecycle totals
// (maintenance passes, blocks compacted, rollup samples materialized,
// blocks/bytes trimmed by retention, series deleted) — see Store.Stats.
type StoreTotals = tsdb.DBStats

// ErrUnknownSeries is returned by Store queries for absent series names.
var ErrUnknownSeries = tsdb.ErrUnknownSeries

// ErrBadSeriesName is returned by Store.Append for series names that
// cannot name a directory of their own under the store root ("", ".", "..").
var ErrBadSeriesName = tsdb.ErrBadSeriesName

// ErrNonFinite is returned by Store.Append for a NaN or ±Inf sample when
// the store's codec is lossy; the append is refused whole and the store
// keeps serving. Lossless codecs (gorilla, chimp, elf) accept such samples
// and return them bit-exactly.
var ErrNonFinite = tsdb.ErrNonFinite

// ErrInvalidRange is returned by Store.Query, QueryInto, Cursor, and
// QueryAgg when from > to: an inverted range is a caller bug and errors
// instead of yielding a silent empty result. Out-of-bounds ranges in the
// right order still clamp to the stored samples, and from == to is a
// legitimate empty range.
var ErrInvalidRange = tsdb.ErrInvalidRange

// OpenStore creates or reopens a compressed time-series store rooted at
// dir with default engine settings (CAMEO codec, 16 shards, GOMAXPROCS
// compression workers, 128-block decoded cache). Use OpenStoreOptions to
// tune them or select a different Codec.
func OpenStore(dir string, compression Options, blockSize int) (*Store, error) {
	return tsdb.Open(dir, tsdb.Options{
		Compression: core.Options(compression),
		BlockSize:   blockSize,
	})
}

// OpenStoreOptions creates or reopens a store with full control over the
// engine knobs in StoreOptions.
func OpenStoreOptions(dir string, opt StoreOptions) (*Store, error) {
	return tsdb.Open(dir, opt)
}
