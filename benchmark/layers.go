package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	cameo "repro"
	"repro/internal/acf"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/lossless"
	"repro/internal/pheap"
	"repro/internal/series"
	"repro/internal/server"
	"repro/internal/tsdb"
)

// coreCounts are the exact work counts of the heap loop over a set of
// compressed inputs.
type coreCounts struct {
	samples, removed, iterations, evals int
}

func (c *coreCounts) report(res *Result) {
	if c.samples == 0 || c.removed == 0 {
		return
	}
	if c.evals > 0 {
		res.set("core.evals_per_sample", float64(c.evals)/float64(c.samples), "count")
	}
	res.set("core.iterations_per_removal", float64(c.iterations)/float64(c.removed), "count")
	res.set("core.removed_fraction", float64(c.removed)/float64(c.samples), "ratio")
}

// countEvals runs xs through the streaming engine, which does the batch
// algorithm's exact work in budgeted steps and reports the units it used
// (one unit = one impact evaluation, or one sample of set-up).
func countEvals(xs []float64, opt core.Options) (int, error) {
	se, err := core.NewStreamEngine(opt)
	if err != nil {
		return 0, err
	}
	defer se.Close()
	if err := se.Begin(xs); err != nil {
		return 0, err
	}
	total := 0
	for {
		used, done := se.Advance(1 << 20)
		total += used
		if done {
			return total, nil
		}
	}
}

// traceCompress is the traced half of compress-batch: each replica is
// compressed once more through the batch entry point under a span (it must
// keep the points the sliced run kept), with the tracker build timed beside
// it and the set-up share measured through InitialImpacts.
func (e *env) traceCompress(res *Result, specs []datasets.Spec, inputs [][]float64, opts []cameo.Options, sliced []*cameo.Result) error {
	tr := newTracer()
	var counts coreCounts
	var initial time.Duration
	for i, sp := range specs {
		xs, opt := inputs[i], opts[i]
		var r *core.Result
		var err error
		top := tr.do("core.compress", 0, i, func() { r, err = core.Compress(xs, opt) })
		if err != nil {
			return err
		}
		res.Attempted++
		if !samePoints(r, sliced[i]) {
			res.fail("%s: core.Compress and the sliced engine kept different points", sp.Name)
		}
		tr.do("acf.tracker_build", top, i, func() {
			if sp.Group2() {
				acf.NewWindowTracker(xs, sp.AggWindow, sp.AggFunc, sp.Lags)
			} else {
				acf.NewDirectTracker(xs, sp.Lags)
			}
		})
		start := time.Now()
		if _, err := core.InitialImpacts(xs, opt); err != nil {
			return err
		}
		initial += time.Since(start)
		counts.samples += len(xs)
		counts.removed += r.Removed
		counts.iterations += r.Iterations
	}
	by := tr.fold(allRequests)
	cmp := by["core.compress"]
	res.set("core.compress_us_per_sample", perUS(cmp.total, counts.samples), "us")
	res.set("core.initial_impacts_share", float64(initial)/float64(cmp.total), "ratio")
	res.set("acf.tracker_build_us_per_block", perUS(by["acf.tracker_build"].total, len(specs)), "us")
	counts.report(res)
	if err := microProbes(res, inputs[0], e.seed); err != nil {
		return err
	}
	return tr.write(e, res.Workload)
}

// microProbes times the innermost operations of the heap loop on one
// block: a hypothetical-ACF evaluation at gap width 1 and 16 (which must
// not allocate) and a heap key update.
func microProbes(res *Result, xs []float64, seed int64) error {
	block := xs[:min(len(xs), blockSize)]
	tk := acf.NewDirectTracker(block, serverLags)
	sc := tk.NewScratch()
	rng := rand.New(rand.NewSource(seed))
	for _, m := range []int{1, 16} {
		deltas := make([]float64, m)
		for i := range deltas {
			deltas[i] = rng.NormFloat64() * 0.01
		}
		const evals = 20000
		span := len(block) - 2*serverLags - m
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < evals; i++ {
			tk.Hypothetical(block, serverLags+i%span, deltas, sc)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > 8 {
			// A handful of runtime-internal allocations can land in the
			// window; one per evaluation cannot hide among them.
			return fmt.Errorf("acf Hypothetical allocated %d times in %d evaluations; the hot path must not allocate", n, evals)
		}
		res.set("acf.hypothetical_ns_per_eval_m"+strconv.Itoa(m), float64(d)/evals, "ns")
	}

	n := len(block)
	points := make([]int32, n)
	keys := make([]float64, n)
	for i := range points {
		points[i] = int32(i)
		keys[i] = rng.Float64()
	}
	h := pheap.New(n, points, keys)
	const fixes = 200000
	ps := make([]int32, fixes)
	ks := make([]float64, fixes)
	for i := range ps {
		ps[i], ks[i] = int32(rng.Intn(n)), rng.Float64()
	}
	start := time.Now()
	for i := range ps {
		h.Fix(ps[i], ks[i])
	}
	res.set("pheap.fix_ns", float64(time.Since(start))/fixes, "ns")
	return nil
}

// traceInput says which paths a server workload's traced run replays.
type traceInput struct {
	data         [][]float64
	block        int     // the daemon's -block
	batch        int     // write batch size; 0 = the workload writes nothing
	observedRate float64 // samples/s the real run ingested; 0 = not an ingest-bound run
	readDir      string  // flushed store to replay reads against; "" = the workload reads nothing
	readLen      int     // samples per series the reads range over
	cold         bool    // uniform offsets over cold blocks (query-cold) or newest data (serve-mixed)
}

// How often each request is replayed; see trace.go. A write that cuts a
// block is four quarter-second compressions deep, so it gets more repeats
// on fewer blocks.
const (
	writeReps = 5
	readReps  = 3
)

// traceServer is the traced half of a server workload's -trace run: the
// write path and/or the read path replayed in-process under spans.
func (e *env) traceServer(res *Result, in traceInput) error {
	res.set("build.cameod_s", e.buildS, "s")
	tr := newTracer()
	if in.batch > 0 {
		if err := e.replayWrites(res, tr, in); err != nil {
			return err
		}
		if err := microProbes(res, in.data[0], e.seed); err != nil {
			return err
		}
	}
	if in.readDir != "" {
		if err := e.replayReads(res, tr, in); err != nil {
			return err
		}
	}
	return tr.write(e, res.Workload)
}

// replayWrites pushes the first block of three series (replica kinds
// ElecPower, UKElecDem, IRBioTemp) through the whole write path: the HTTP
// handler over one store and, beside it, Append on a second identical store; for
// the batch that cuts the block also EncodeBlockRecon, the core compressor,
// the tracker build and the payload encode on that block.
func (e *env) replayWrites(res *Result, tr *tracer, in traceInput) error {
	replayed, reps := []int{0, 3, 6}, writeReps
	if e.quick() {
		replayed, reps = replayed[:1], 1
	}
	var handlers [writeReps]http.Handler
	var stores [writeReps]*tsdb.DB
	for r := 0; r < reps; r++ {
		for _, kind := range []string{"http", "append"} {
			dir, err := e.freshDir(fmt.Sprintf("trace-%s-%d", kind, r))
			if err != nil {
				return err
			}
			db, err := tsdb.Open(dir, storeOptions(-1, in.block))
			if err != nil {
				return err
			}
			defer db.Close()
			if kind == "http" {
				handlers[r] = server.NewHandler(db, server.Options{})
			} else {
				stores[r] = db
			}
		}
	}
	cdc := codec.NewCAMEO(serverCompression)
	cmp, err := core.NewCompressor(serverCompression)
	if err != nil {
		return err
	}
	defer cmp.Close()

	cuts := make(map[int]bool) // requests whose batch cut the block
	var (
		counts            coreCounts
		initial           time.Duration
		batches, nSamples int
		fail              error
	)
	for _, s := range replayed {
		name := seriesName(s)
		block := in.data[s][:in.block]
		for off := 0; off < in.block; off += in.batch {
			vals := block[off : off+in.batch]
			body := renderBatch(name, vals)
			req := s*1000 + off/in.batch
			cut := off+in.batch >= in.block
			cuts[req] = cut
			batches++
			nSamples += len(vals)
			var r *core.Result
			for tr.rep = 0; tr.rep < reps; tr.rep++ {
				top := tr.do("server.write", 0, req, func() {
					rec := httptest.NewRecorder()
					handlers[tr.rep].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						fail = fmt.Errorf("replayed write: status %d: %s", rec.Code, rec.Body.String())
					}
				})
				app := tr.do("tsdb.append", top, req, func() {
					if err := stores[tr.rep].Append(name, vals...); err != nil {
						fail = err
					}
				})
				if !cut {
					continue
				}
				enc := tr.do("codec.encode", app, req, func() {
					if _, _, _, err := codec.EncodeBlockRecon(cdc, block); err != nil {
						fail = err
					}
				})
				cm := tr.do("core.compress", enc, req, func() {
					if r, err = cmp.Compress(block); err != nil {
						fail = err
					}
				})
				if fail != nil {
					return fail
				}
				tr.do("acf.tracker_build", cm, req, func() { acf.NewDirectTracker(block, serverLags) })
				tr.do("series.encode", enc, req, func() { r.Compressed.Encode() })
			}
			if fail != nil {
				return fail
			}
			if !cut {
				continue
			}
			start := time.Now()
			if _, err := core.InitialImpacts(block, serverCompression); err != nil {
				return err
			}
			initial += time.Since(start)
			evals, err := countEvals(block, serverCompression)
			if err != nil {
				return err
			}
			counts.samples += in.block
			counts.removed += r.Removed
			counts.iterations += r.Iterations
			counts.evals += evals
		}
	}
	tr.rep = 0

	// The cut block's reconstruction is now cache-resident in the append
	// stores and their tails are empty: the warm read the serve-mixed
	// reader mostly sees.
	const warmReads = 2000
	start := time.Now()
	for i := 0; i < warmReads; i++ {
		if _, err := drain(stores[0], seriesName(replayed[i%len(replayed)]), in.block-queryLen, in.block); err != nil {
			return err
		}
	}
	res.set("tsdb.cursor_warm_us_per_req", us(time.Since(start))/warmReads, "us")

	// A batch that only buffers resolves the handler's own cost cleanly;
	// in a batch that cuts a block it would be the difference of two
	// quarter-second compressions.
	plain := tr.fold(func(req int) bool { cut, ok := cuts[req]; return ok && !cut })
	res.set("server.write_self_us_per_batch", perUS(plain["server.write"].self, plain["server.write"].n), "us")
	by := tr.fold(func(req int) bool { _, ok := cuts[req]; return ok })
	top := by["server.write"]
	nBlocks := len(replayed)
	res.set("tsdb.append_self_us_per_sample", perUS(by["tsdb.append"].self, nSamples), "us")
	res.set("codec.encode_self_us_per_block", perUS(by["codec.encode"].self, nBlocks), "us")
	res.set("core.compress_us_per_sample", perUS(by["core.compress"].total, counts.samples), "us")
	res.set("core.initial_impacts_share", float64(initial)/float64(by["core.compress"].total), "ratio")
	res.set("acf.tracker_build_us_per_block", perUS(by["acf.tracker_build"].total, nBlocks), "us")
	res.set("series.encode_us_per_block", perUS(by["series.encode"].total, nBlocks), "us")
	res.set("budget.write_core_share", float64(by["core.compress"].total)/float64(top.total), "ratio")
	counts.report(res)
	share := unexplained(by, "server.write", "tsdb.append", "codec.encode", "core.compress", "acf.tracker_build", "series.encode")
	res.set("budget.write_unexplained_share", share, "ratio")
	if share >= 0.1 {
		res.note("budget.write_unexplained_share %.3f is not under 0.1: the write-path budget does not add up, which is the benchmark's fault", share)
	}
	if in.observedRate > 0 {
		// One request's whole cost, per sample, times the workers that
		// compress in parallel in the real daemon.
		predicted := float64(runtime.GOMAXPROCS(0)) * float64(nSamples) / top.total.Seconds()
		ratio := predicted / in.observedRate
		res.set("budget.ingest_predicted_over_observed", ratio, "ratio")
		if ratio < 0.5 || ratio > 2 {
			res.note("budget.ingest_predicted_over_observed %.2f outside [0.5, 2]: the in-process budget does not predict the daemon's rate", ratio)
		}
	}
	return nil
}

// drain reads [from, to) through a cursor, the call the query handler
// makes, and returns how many samples came back.
func drain(db *tsdb.DB, name string, from, to int) (int, error) {
	cur, err := db.Cursor(name, from, to)
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for {
		chunk, ok := cur.Next()
		if !ok {
			break
		}
		n += len(chunk)
	}
	return n, cur.Err()
}

// replayReads replays the workload's read mix against the flushed store:
// the HTTP handler, then the cursor drain or QueryAgg it makes, and — on
// the cold workload, where every block comes off disk — the file read and
// the codec's range decode or window-aggregate pushdown for each block the
// request overlaps, with the payload parse timed under the decode.
func (e *env) replayReads(res *Result, tr *tracer, in traceInput) error {
	opt := storeOptions(-1, in.block)
	if in.cold {
		opt.CacheBlocks = 8
	} else {
		opt.Rollups = []tsdb.RollupSpec{{Step: aggStep}}
	}
	db, err := tsdb.Open(in.readDir, opt)
	if err != nil {
		return err
	}
	defer db.Close()
	handler := server.NewHandler(db, server.Options{})
	blocks := make([][]blockRef, len(in.data))
	for s := range blocks {
		if blocks[s], err = listBlocks(in.readDir, seriesName(s)); err != nil {
			return err
		}
	}
	// get serves one GET through the handler as a request's top span and
	// returns the span and the body size.
	get := func(name string, req int, url string) (id, size int, err error) {
		var rec *httptest.ResponseRecorder
		id = tr.do(name, 0, req, func() {
			rec = httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		})
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("replayed %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		return id, rec.Body.Len(), nil
	}
	// overlap calls fn for every durable block of series s overlapping
	// [from, to), after reading its file under an fs span.
	overlap := func(s, from, to, parent, req int, fn func(h codec.BlockHeader, c codec.Codec, payload []byte, b blockRef, lo, hi int) error) error {
		for _, b := range blocks[s] {
			lo, hi := max(from, b.start), min(to, b.start+b.n)
			if lo >= hi {
				continue
			}
			var data []byte
			var err error
			tr.do("fs.block_read", parent, req, func() { data, err = os.ReadFile(b.path) })
			if err != nil {
				return err
			}
			h, _, payload, err := codec.SplitBlock(data)
			if err != nil {
				return err
			}
			c, err := codec.ByID(h.CodecID)
			if err != nil {
				return err
			}
			if err := fn(h, c, payload, b, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	requests := 300
	if e.quick() {
		requests = 30
	}
	const queryReq, aggReq = 100000, 200000
	rng := rand.New(rand.NewSource(e.seed*1000 + 99))
	var bodyBytes int
	var dst []float64
	accs := make([]codec.RangeAgg, aggLen/aggStep)
	for i := 0; i < requests; i++ {
		s := rng.Intn(len(in.data))
		name := seriesName(s)
		st, err := db.SeriesStats(name)
		if err != nil {
			return err
		}
		qFrom := st.Samples - queryLen
		aFrom := st.Samples/in.block*in.block - aggLen
		if in.cold {
			qFrom = rng.Intn(in.readLen - queryLen + 1)
			aFrom = rng.Intn((in.readLen-aggLen)/aggStep+1) * aggStep
		}
		qTo, aTo := qFrom+queryLen, aFrom+aggLen
		qURL := "/api/v1/query?series=" + name + "&from=" + strconv.Itoa(qFrom) + "&to=" + strconv.Itoa(qTo)
		aURL := "/api/v1/query_agg?series=" + name + "&from=" + strconv.Itoa(aFrom) + "&to=" + strconv.Itoa(aTo) + "&step=" + strconv.Itoa(aggStep) + "&aggfn=mean"
		for tr.rep = 0; tr.rep < readReps; tr.rep++ {
			// The range query.
			req := queryReq + i
			top, size, err := get("server.query", req, qURL)
			if err != nil {
				return err
			}
			if tr.rep == 0 {
				bodyBytes += size
			}
			var n int
			cur := tr.do("tsdb.cursor", top, req, func() { n, err = drain(db, name, qFrom, qTo) })
			if err != nil || n != queryLen {
				return fmt.Errorf("replayed cursor %s [%d,%d): %d samples, %v", name, qFrom, qTo, n, err)
			}
			if in.cold {
				err := overlap(s, qFrom, qTo, cur, req, func(h codec.BlockHeader, c codec.Codec, payload []byte, b blockRef, lo, hi int) error {
					var err error
					dec := tr.do("codec.decode_range", cur, req, func() {
						dst, err = codec.DecodeRange(c, payload, h.N, lo-b.start, hi-b.start, dst[:0])
					})
					if err != nil {
						return err
					}
					tr.do("series.decode", dec, req, func() { _, err = series.DecodeIrregular(payload) })
					return err
				})
				if err != nil {
					return err
				}
			}

			// The aggregate query.
			req = aggReq + i
			if top, _, err = get("server.agg", req, aURL); err != nil {
				return err
			}
			var vals []float64
			qa := tr.do("tsdb.query_agg", top, req, func() { vals, err = db.QueryAgg(name, aFrom, aTo, aggStep, series.AggMean) })
			if err != nil || len(vals) != aggLen/aggStep {
				return fmt.Errorf("replayed QueryAgg %s [%d,%d): %d windows, %v", name, aFrom, aTo, len(vals), err)
			}
			if !in.cold {
				continue
			}
			for j := range accs {
				accs[j] = codec.NewRangeAgg()
			}
			err = overlap(s, aFrom, aTo, qa, req, func(h codec.BlockHeader, c codec.Codec, payload []byte, b blockRef, lo, hi int) error {
				ad, ok := c.(codec.AggDecoder)
				if !ok {
					return fmt.Errorf("codec %s cannot push aggregates down", c.Name())
				}
				var err error
				tr.do("codec.window_aggs", qa, req, func() {
					w0, w1 := (lo-aFrom)/aggStep, (hi-1-aFrom)/aggStep
					err = ad.DecodeWindowAggs(payload, h.N, lo-b.start, hi-b.start, aFrom-b.start, aggStep, accs[w0:w1+1])
				})
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	tr.rep = 0

	q := tr.fold(func(req int) bool { return req >= queryReq && req < aggReq })
	a := tr.fold(func(req int) bool { return req >= aggReq })
	res.set("server.query_self_us_per_req", perUS(q["server.query"].self, requests), "us")
	res.set("server.agg_self_us_per_req", perUS(a["server.agg"].self, requests), "us")
	res.set("server.response_bytes_per_sample", float64(bodyBytes)/float64(requests*queryLen), "B")
	if in.cold {
		res.set("tsdb.cursor_cold_us_per_req", perUS(q["tsdb.cursor"].self, requests), "us")
		res.set("tsdb.agg_cold_us_per_req", perUS(a["tsdb.query_agg"].self, requests), "us")
		res.set("codec.decode_range_us_per_block", perUS(q["codec.decode_range"].total, q["codec.decode_range"].n), "us")
		res.set("codec.window_aggs_us_per_block", perUS(a["codec.window_aggs"].total, a["codec.window_aggs"].n), "us")
		res.set("series.decode_us_per_block", perUS(q["series.decode"].total, q["series.decode"].n), "us")
		reads := q["fs.block_read"].n + a["fs.block_read"].n
		res.set("fs.block_read_us", perUS(q["fs.block_read"].total+a["fs.block_read"].total, reads), "us")
	}
	share := math.Max(
		unexplained(q, "server.query", "tsdb.cursor", "fs.block_read", "codec.decode_range", "series.decode"),
		unexplained(a, "server.agg", "tsdb.query_agg", "fs.block_read", "codec.window_aggs"))
	res.set("budget.read_unexplained_share", share, "ratio")
	if share >= 0.1 {
		res.note("budget.read_unexplained_share %.3f is not under 0.1: the read-path budget does not add up, which is the benchmark's fault", share)
	}

	// Whole-block decode, the cost of filling the cache on a miss.
	var full time.Duration
	nBlocks := 0
	for s := range blocks {
		for _, b := range blocks[s] {
			data, err := os.ReadFile(b.path)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, _, err := codec.DecodeBlock(data); err != nil {
				return err
			}
			full += time.Since(start)
			nBlocks++
		}
	}
	res.set("codec.decode_full_us_per_block", us(full)/float64(nBlocks), "us")
	return gorillaProbe(res, in.data[0], e.seed)
}

// gorillaProbe times a 64-window read out of a rollup block: the step-64
// means of a series, Gorilla-compressed with the default checkpoint
// spacing, which is how the store keeps its rollup tiers.
func gorillaProbe(res *Result, xs []float64, seed int64) error {
	means := denseMeans(xs, aggStep)
	enc, ck := lossless.GorillaCheckpointed(means, codec.DefaultCheckpointInterval)
	windows := min(aggLen/aggStep, len(means))
	const reads = 2000
	rng := rand.New(rand.NewSource(seed))
	sum := 0.0
	start := time.Now()
	for i := 0; i < reads; i++ {
		lo := rng.Intn(len(means) - windows + 1)
		if _, err := lossless.DecompressRange("gorilla", enc.Data, len(means), ck, lo, lo+windows, func(v float64) { sum += v }); err != nil {
			return err
		}
	}
	res.set("lossless.gorilla_range_us_per_block", us(time.Since(start))/reads, "us")
	if math.IsNaN(sum) {
		return fmt.Errorf("gorilla rollup block decoded to NaN")
	}
	return nil
}
