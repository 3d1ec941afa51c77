package tsdb

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
)

// Streaming ingest (Options.Streaming) spreads each block's compression
// across the appends that feed it instead of paying the whole cost at
// block-cut time. The mechanism is a per-series codec.BlockStream that is
// advanced by small, latency-capped work slices on the appender's own
// goroutine, off every shard lock:
//
//   - Append buffers samples under the shard lock exactly as before, then
//     releases it and calls streamDrain, which serializes compression work
//     for the series behind a dedicated token (streamState.mu). Readers and
//     appends to other series never wait behind compression.
//   - When the tail reaches BlockSize, the drain cuts a pending block (no
//     worker-pool reservation — the appenders themselves are the workers)
//     and starts the stream on it; subsequent appends each advance it by a
//     slice sized to arrival rate and capped by Options.MaxAppendLatency.
//   - A finished block is sealed: encoded into the standard self-describing
//     block layout (byte-identical to batch compression of the same cut)
//     and handed to the worker pool for the fsync + publish step, or
//     persisted inline when the pool is disabled.
//   - Anyone who cannot wait for arrival-paced completion — a reader
//     hitting the pending block, Sync, Flush, or the next cut arriving
//     early — force-finishes the stream on its own goroutine (counted in
//     DBStats.StreamForced).
//
// Lock order: streamState.mu is taken only with no shard lock held, and
// the shard lock is taken inside drained sections as needed; never the
// reverse.
type streamState struct {
	mu sync.Mutex // drain token: serializes this series' compression work

	bs codec.BlockStream // lazily created on first cut; nil until then
	pb *pendingBlock     // block being compressed; nil when idle

	// inFlight mirrors pb != nil, readable without the token: Append's
	// fast path uses it to decide whether streamDrain is worth calling.
	inFlight atomic.Bool

	// Pacing state (guarded by mu): unitsPerPoint estimates compression
	// work per arriving sample from completed blocks; nsPerUnit estimates
	// wall cost per unit from recent slices; blockUnits counts work spent
	// on the current block.
	unitsPerPoint float64
	nsPerUnit     float64
	blockUnits    int
}

const (
	// paceHeadroom makes the paced schedule run 25% ahead of arrival, so a
	// block normally finishes before the next cut instead of exactly at it.
	paceHeadroom = 1.25
	// initUnitsPerPoint seeds pacing before the first block calibrates it:
	// a CAMEO block at the store's default shape costs 16-34 units a sample
	// (one each for the aggregates, the probe and the initial impacts, the
	// rest in the removal loop). An overestimate merely front-loads work
	// (still latency-capped); with paceHeadroom this covers the costliest.
	initUnitsPerPoint = 32
	// initNsPerUnit seeds the per-unit wall-cost estimate (a block's units
	// average 340-450 ns at default options).
	initNsPerUnit = 400
	// maxStepUnits bounds one uninterrupted Advance slice so the latency
	// deadline is re-checked at fine granularity.
	maxStepUnits = 512
)

func (ss *streamState) busy() bool { return ss.inFlight.Load() }

// streamDrain performs this append's share of compression work for one
// series: an arrival-paced, latency-capped advance of the in-progress
// block, then any block cuts the grown tail allows. Called with no locks
// held; arrived is the number of samples this append buffered.
func (db *DB) streamDrain(sh *shard, name string, st *seriesState, arrived int) {
	ss := st.stream
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.pb != nil && ss.advance(db, arrived) {
		db.sealStream(sh, name, st)
	}
	for {
		sh.mu.Lock()
		if len(st.tail) < db.opt.BlockSize || st.flushing > 0 {
			// Nothing to cut (or a Flush is stamping this series — it
			// persists the whole tail itself; cutting now would make its
			// wait-for-in-flight loop chase a moving target).
			sh.mu.Unlock()
			return
		}
		if ss.pb != nil {
			// The next cut arrived before the current block finished
			// (arrival outpaced the pacing estimate). Finish it now — the
			// remaining work lands on this append, bounded by one block's
			// residue, and the forced counter records the pacing miss.
			sh.mu.Unlock()
			db.streamForced.Add(1)
			ss.runToCompletion()
			db.sealStream(sh, name, st)
			continue
		}
		pb := db.sliceBlockLocked(st)
		sh.mu.Unlock()
		db.beginStream(sh, pb, ss)
	}
}

// beginStream starts the per-series stream session on a freshly cut block.
// Caller holds the stream token and no shard lock.
func (db *DB) beginStream(sh *shard, pb *pendingBlock, ss *streamState) {
	if ss.bs == nil {
		bs, err := db.opt.Codec.(codec.StreamEncoder).NewBlockStream() // capability checked at Open
		if err != nil {
			db.failStreamBlock(sh, pb, err)
			return
		}
		ss.bs = bs
	}
	if err := ss.bs.Begin(pb.raw); err != nil {
		// Same contract as a failed async compression: the block stays
		// pending with its raw samples, Append surfaces the error, Flush
		// repairs (or re-reports) it.
		db.failStreamBlock(sh, pb, err)
		return
	}
	ss.pb = pb
	ss.blockUnits = 0
	ss.inFlight.Store(true)
}

// failStreamBlock marks a cut block failed before its compression could
// finish, mirroring the worker pool's failure path.
func (db *DB) failStreamBlock(sh *shard, pb *pendingBlock, err error) {
	sh.mu.Lock()
	pb.err = err
	db.noteFailure(err)
	sh.mu.Unlock()
	close(pb.done)
}

// advance performs the paced work slice for arrived newly buffered
// samples, capped by MaxAppendLatency, and reports whether the block
// finished. Caller holds the stream token.
func (ss *streamState) advance(db *DB, arrived int) bool {
	if ss.unitsPerPoint == 0 {
		ss.unitsPerPoint = initUnitsPerPoint
	}
	if ss.nsPerUnit == 0 {
		ss.nsPerUnit = initNsPerUnit
	}
	budget := int(ss.unitsPerPoint*float64(arrived)*paceHeadroom) + 1
	deadline := db.opt.MaxAppendLatency.Nanoseconds()
	var spent int64
	for budget > 0 {
		step := budget
		if step > maxStepUnits {
			step = maxStepUnits
		}
		if fit := int(float64(deadline-spent) / ss.nsPerUnit); fit < step {
			// Shrink the slice so the deadline is not overshot by a whole
			// step; always make at least minimal progress.
			step = max(fit, 16)
		}
		t0 := time.Now()
		used, done := ss.bs.Advance(step)
		el := time.Since(t0).Nanoseconds()
		ss.blockUnits += used
		if used > 0 && el > 0 {
			ss.nsPerUnit = 0.5*ss.nsPerUnit + 0.5*float64(el)/float64(used)
		}
		if done {
			return true
		}
		budget -= used
		spent += el
		if spent >= deadline {
			return false
		}
	}
	return false
}

// runToCompletion drives the current block to done, still accounting the
// units for pacing calibration. Caller holds the stream token.
func (ss *streamState) runToCompletion() {
	for {
		used, done := ss.bs.Advance(1 << 20)
		ss.blockUnits += used
		if done {
			return
		}
	}
}

// sealStream encodes the finished block, frees the stream for the next
// cut, and persists the result — on the worker pool when one exists (the
// fsync leaves the append path), inline otherwise. Caller holds the stream
// token and no shard lock; ss.pb must be finished.
func (db *DB) sealStream(sh *shard, name string, st *seriesState) {
	ss := st.stream
	pb := ss.pb
	n := len(pb.raw)
	if n > 0 && ss.blockUnits > 0 {
		// Rise at once, fall by an eighth a block: a block the codec
		// finished in set-up (CAMEO's two-point probe: 2 units a sample)
		// must not halve the budget of the full-cost block that may follow,
		// whose shortfall would land on one append as a forced finish.
		obs := float64(ss.blockUnits) / float64(n)
		ss.unitsPerPoint = max(obs, 0.875*ss.unitsPerPoint+0.125*obs)
	}
	data, hdrOff, recon, err := codec.EncodeStreamBlock(db.opt.Codec, ss.bs, n)
	ss.pb = nil
	ss.inFlight.Store(false)
	if err != nil {
		db.failStreamBlock(sh, pb, err)
		return
	}
	db.streamBlocks.Add(1)
	persist := func() {
		meta, werr := db.writeBlockData(name, pb.start, data, hdrOff, db.opt.Codec.ID())
		meta.n = n
		var raw []float64
		sh.mu.Lock()
		if werr != nil {
			pb.err = werr
			db.noteFailure(werr)
		} else {
			delete(st.pending, pb.start)
			st.insertBlock(meta)
			pb.recon = recon
			raw, pb.raw = pb.raw, nil
			sh.cache.put(meta.key(), recon)
		}
		sh.mu.Unlock()
		close(pb.done)
		if raw != nil {
			db.putBlockBuf(raw)
		}
	}
	if db.pool != nil {
		// Reserve before releasing the stream token: a Sync that finds the
		// stream idle must still count this block in its drain barrier.
		db.pool.reserve()
		db.pool.submit(compressJob{fn: persist})
	} else {
		persist()
	}
}

// forceFinishStream completes the series' in-progress streaming block, if
// any, on the calling goroutine: readers that reached the pending block,
// Sync, and Flush use it, since arrival-paced completion would otherwise
// wait on future appends. Called with no locks held.
func (db *DB) forceFinishStream(sh *shard, name string, st *seriesState) {
	ss := st.stream
	if ss == nil || !ss.busy() {
		return
	}
	ss.mu.Lock()
	if ss.pb != nil {
		db.streamForced.Add(1)
		ss.runToCompletion()
		db.sealStream(sh, name, st)
	}
	ss.mu.Unlock()
}

// finishAllStreams force-finishes every series' in-progress streaming
// block (Sync's pre-drain step). Called with no locks held.
func (db *DB) finishAllStreams() {
	for _, sh := range db.shards {
		sh.mu.RLock()
		type pair struct {
			name string
			st   *seriesState
		}
		var busy []pair
		for name, st := range sh.series {
			if st.stream != nil && st.stream.busy() {
				busy = append(busy, pair{name, st})
			}
		}
		sh.mu.RUnlock()
		for _, p := range busy {
			db.forceFinishStream(sh, p.name, p.st)
		}
	}
}

// closeStreams releases every series' stream session (Close, after all
// blocks are sealed and the pool is stopped; must not race other calls).
func (db *DB) closeStreams() {
	for _, sh := range db.shards {
		for _, st := range sh.series {
			if st.stream != nil && st.stream.bs != nil {
				st.stream.bs.Close()
				st.stream.bs = nil
			}
		}
	}
}
