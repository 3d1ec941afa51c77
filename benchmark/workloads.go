package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cameo "repro"
	"repro/internal/core"
	"repro/internal/datasets"
)

// Work sizes as a function of the measured seconds. The fixed-work
// workloads (compress-batch, ingest-steady) do an amount of work that
// takes about that long at the rate of the commit that defined the
// benchmark, so their counts repeat exactly for a seed; the query
// workloads run for the time itself.
const (
	compressEps = 0.01
	// group-1 replicas run at paper length (about 4 s a pass, undisturbed);
	// group-2 replicas at group2PerSecond*seconds samples (another 1.5 s).
	group2PerSecond = 1000
	compressPasses  = 3 // see compressBatch
	// ingest-steady: whole blocks per series so nothing is left in a tail.
	ingestBatch          = 512
	ingestBlocksPerSec   = 0.45 // per series: 16*4096*0.45 = 29.5k samples/s
	querySeries          = 8    // of the 16 names; 16 blocks in all
	queryPreload         = 2 * blockSize
	queryLen             = 512
	aggLen, aggStep      = 4096, 64
	mixedBlock           = 1024 // see serveMixed
	mixedPreload         = 4 * mixedBlock
	mixedBatch           = 128
	mixedWritesPerSecond = 64
)

// quick reports a smoke-sized run: one set-up, one pass, one replayed
// block, so that all four workloads finish in seconds.
func (e *env) quick() bool { return e.seconds < 6 }

func (e *env) setups(n int) int {
	if e.quick() {
		return 1
	}
	return n
}

// warmup is the discarded lead-in of the timed query workloads.
func (e *env) warmup() time.Duration {
	return time.Duration(math.Min(2, e.seconds/8) * float64(time.Second))
}

// timeSetups runs setup n times and reports the median of its wall times
// at reference host speed (slow says how slow the host was between two
// instants; see host.go); every iteration but the last is torn down by the
// undo it returns.
func timeSetups(n int, slow func(from, to time.Time) float64, setup func() (undo func(), err error)) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		undo, err := setup()
		if err != nil {
			return 0, err
		}
		end := time.Now()
		times = append(times, end.Sub(start).Seconds()/slow(start, end))
		if i < n-1 && undo != nil {
			undo()
		}
	}
	return median(times), nil
}

// compressBatch is the paper's own experiment: CAMEO at eps 0.01 over the
// eight dataset replicas with each one's paper configuration, in this
// process, on one goroutine.
//
// A call takes tenths of a second to two seconds, too long to fall between
// this host's slow phases (see bestQuartile), so a single timing carries
// whatever share of the call ran at half speed. The run therefore drives
// core.StreamEngine, which does the batch algorithm's exact work — the same
// heap loop, the same retained points — in slices of a fixed number of work
// units, a few milliseconds each. The set is compressed three times; slice
// k of a replica is the same work in every pass, and its time is the
// fastest of the three. A replica's time is the sum over its slices.
//
// Slices, set-ups and the speed kernel between them are timed on the
// thread's CPU clock: see threadCPU.
func (e *env) compressBatch(res *Result) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	specs := datasets.Replicas()
	lengths := make([]int, len(specs))
	passes := compressPasses
	if e.quick() {
		passes = 1
	}
	for i, sp := range specs {
		lengths[i] = sp.Length
		if sp.Group2() {
			lengths[i] = int(group2PerSecond * e.seconds)
		} else if e.quick() {
			lengths[i] = int(float64(sp.Length) * e.seconds / 6)
		}
		// The statistic needs 4 lags' worth of (aggregated) samples.
		lengths[i] = max(lengths[i], 4*sp.Lags*max(sp.AggWindow, 1))
	}
	var inputs [][]float64
	var setups []float64
	for range e.setups(25) {
		start := threadCPU()
		inputs = make([][]float64, len(specs))
		for i, sp := range specs {
			inputs[i] = sp.GenerateN(lengths[i], e.seed+int64(i))
			if err := checkFinite(sp.Name, inputs[i]); err != nil {
				return err
			}
		}
		d := threadCPU() - start
		setups = append(setups, d.Seconds()/slowdown(min(calibrateCPU(), calibrateCPU(), calibrateCPU())))
	}
	setupS := median(setups)

	const sliceUnits = 20000 // impact evaluations per timed slice: 3 to 10 ms
	results := make([]*cameo.Result, len(specs))
	opts := make([]cameo.Options, len(specs))
	slices := make([][]time.Duration, len(specs))
	samples, units := 0, 0
	for i, sp := range specs {
		opts[i] = cameo.Options{Lags: sp.Lags, Epsilon: compressEps, AggWindow: sp.AggWindow, AggFunc: sp.AggFunc}
		samples += len(inputs[i])
	}
	var whole time.Duration // all passes as timed, for the ungated whole-run rate
	for pass := 0; pass < passes; pass++ {
		for i, sp := range specs {
			se, err := core.NewStreamEngine(opts[i])
			if err != nil {
				return fmt.Errorf("%s: %w", sp.Name, err)
			}
			if err := se.Begin(inputs[i]); err != nil {
				return fmt.Errorf("%s: %w", sp.Name, err)
			}
			calBefore := calibrateCPU()
			for k := 0; ; k++ {
				wall, start := time.Now(), threadCPU()
				used, done := se.Advance(sliceUnits)
				d := threadCPU() - start
				whole += time.Since(wall)
				// The slice's time at reference host speed: the kernel ran
				// just before and just after it, on this thread (the
				// faster of the two: an interrupt can only lengthen one).
				calAfter := calibrateCPU()
				d = time.Duration(float64(d) / slowdown(min(calBefore, calAfter)))
				calBefore = calAfter
				switch {
				case pass == 0:
					slices[i] = append(slices[i], d)
					units += used
				case k >= len(slices[i]):
					return fmt.Errorf("%s: pass %d took more slices than pass 0", sp.Name, pass)
				case d < slices[i][k]:
					slices[i][k] = d
				}
				if done {
					break
				}
			}
			r := *se.Result() // valid until the next Begin
			r.Compressed = r.Compressed.Clone()
			se.Close()
			if pass > 0 && !samePoints(&r, results[i]) {
				res.Attempted++
				res.fail("%s: pass %d kept different points than pass 0", sp.Name, pass)
			}
			results[i] = &r
		}
	}
	var calls timings
	var busy time.Duration
	for i := range specs {
		var d time.Duration
		for _, s := range slices[i] {
			d += s
		}
		calls.add(d)
		busy += d
	}

	// Checks, outside the timed region: the bound is recomputed from the
	// input and the retained points alone, the result must decompress to
	// the input's length with both endpoints kept, and the batch entry
	// point must keep exactly the same points.
	worst, logRatio, stored := 0.0, 0.0, 0
	for i, sp := range specs {
		r := results[i]
		res.Attempted++
		dev, err := cameo.Deviation(inputs[i], r.Compressed, opts[i])
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		n := len(inputs[i])
		pts := r.Compressed.Points
		switch {
		case dev > compressEps*(1+1e-9):
			res.fail("%s: recomputed deviation %g over eps %g", sp.Name, dev, compressEps)
		case len(r.Compressed.Decompress()) != n || pts[0].Index != 0 || pts[len(pts)-1].Index != n-1:
			res.fail("%s: result does not span the %d input samples", sp.Name, n)
		case r.Removed != n-len(pts):
			res.fail("%s: reports %d removed, kept %d of %d", sp.Name, r.Removed, len(pts), n)
		}
		worst = math.Max(worst, dev/compressEps)
		logRatio += math.Log(r.CompressionRatio())
		stored += len(r.Compressed.Encode())
	}

	sorted := sortedCopy(calls)
	res.set("setup_s", setupS, "s")
	res.set("samples_per_s", float64(samples)/busy.Seconds(), "samples/s")
	res.set("compress_samples_per_s", float64(passes*samples)/whole.Seconds(), "samples/s")
	res.set("op_p50_ms", median(sorted), "ms")
	res.set("op_tail_ms", sorted[len(sorted)-1], "ms") // the slowest replica: eight calls support no percentile
	res.set("loadgen.op_samples", float64(len(sorted)), "count")
	res.set("core.evals_per_sample", float64(units)/float64(samples), "count")
	res.set("stored_bytes_per_raw_byte", float64(stored)/float64(8*samples), "B/B")
	res.set("acf_deviation_over_eps", worst, "ratio")
	res.set("compression_ratio", math.Exp(logRatio/float64(len(specs))), "ratio")
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss, "MB")
	if e.trace {
		return e.traceCompress(res, specs, inputs, opts, results)
	}
	return nil
}

// samePoints reports whether two results retained the same points.
func samePoints(a, b *cameo.Result) bool {
	if len(a.Compressed.Points) != len(b.Compressed.Points) {
		return false
	}
	for i, p := range a.Compressed.Points {
		if p != b.Compressed.Points[i] {
			return false
		}
	}
	return true
}

// serverRun is the state the three server workloads share around their
// measured window.
type serverRun struct {
	e         *env
	res       *Result
	d         *daemon
	dir       string
	startSnap *snapshot
	endSnap   *snapshot
	cpu0      float64 // child CPU at window start
	self0     float64 // harness CPU at window start
	wall0     time.Time
	pollStop  chan struct{}
	pollDepth chan float64
	admin     *conn      // scrapes; used only outside the window
	probe     *hostProbe // host speed, from before set-up until shutdown
}

func (e *env) newServerRun(res *Result) *serverRun {
	return &serverRun{e: e, res: res, probe: startHostProbe()}
}

// cpuAt is how much longer CPU-bound work took over an interval given
// relative to the start of the window: slower and withheld vCPUs.
func (s *serverRun) cpuAt(from, to time.Duration) float64 {
	return s.probe.cpuSlowdown(s.wall0.Add(from), s.wall0.Add(to))
}

// reqAt and reqRateAt are the same for the latency and the rate of the
// request loops of query-cold and serve-mixed: see requestSlowdown.
func (s *serverRun) reqAt(from, to time.Duration) float64 {
	return s.probe.requestSlowdown(s.wall0.Add(from), s.wall0.Add(to))
}

func (s *serverRun) reqRateAt(from, to time.Duration) float64 {
	return s.reqAt(from, to) * s.probe.withheld(s.wall0.Add(from), s.wall0.Add(to))
}

// begin marks the start of the measured window: counters are snapshotted
// so every layer metric is a difference over exactly this window.
func (s *serverRun) begin() error {
	s.admin = newConn(s.d.base)
	var err error
	if s.startSnap, err = scrapeMetrics(s.admin); err != nil {
		return err
	}
	if s.cpu0, err = procCPUSeconds(s.d.cmd.Process.Pid); err != nil {
		return err
	}
	if s.e.trace {
		s.pollStop = make(chan struct{})
		s.pollDepth = make(chan float64, 1)
		go pollQueueDepth(s.d.base, 250*time.Millisecond, s.pollStop, s.pollDepth)
	}
	s.self0 = selfCPUSeconds()
	if s.wall0.IsZero() { // serve-mixed opens its window on a schedule
		s.wall0 = time.Now()
	}
	return nil
}

// end closes the window: the common per-layer lines are derived from the
// counter differences and the process accounting. ackedSamples and writes
// are what the load generator sent in the window.
func (s *serverRun) end(ackedSamples, writes, queries, aggs int) error {
	res := s.res
	pid := s.d.cmd.Process.Pid
	selfCPU := selfCPUSeconds() - s.self0
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return err
	}
	if s.pollStop != nil {
		close(s.pollStop)
		res.set("tsdb.queue_depth_max", <-s.pollDepth, "count")
	}
	if s.endSnap, err = scrapeMetrics(s.admin); err != nil {
		return err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss, "MB")
	res.set("metrics.scrape_ms", float64(s.endSnap.took)/float64(time.Millisecond), "ms")
	res.set("host.slowdown", s.probe.slowdown(s.wall0, time.Now()), "ratio")
	res.set("host.withheld", s.probe.withheld(s.wall0, time.Now()), "ratio")

	childCPU := cpu1 - s.cpu0
	if share := selfCPU / (selfCPU + childCPU); childCPU > 0 {
		res.set("loadgen.cpu_share", share, "ratio")
		if share > 0.3 {
			res.note("loadgen.cpu_share %.2f over 0.3: the load generator, not cameod, may bound this run", share)
		}
	}
	d := func(name string) float64 { return delta(s.startSnap, s.endSnap, name) }
	if ackedSamples > 0 {
		res.set("cameod.cpu_s_per_million_samples", childCPU/float64(ackedSamples)*1e6, "s")
		res.set("tsdb.bytes_written_per_raw_byte", d("cameo_store_bytes_written_total")/float64(8*ackedSamples), "B/B")
	}
	if writes > 0 {
		res.set("server.write_throttled_ratio", d("cameo_http_throttled_writes_total")/float64(writes), "ratio")
	}
	if hits, misses := d("cameo_store_cache_hits_total"), d("cameo_store_cache_misses_total"); hits+misses > 0 {
		res.set("tsdb.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	if queries > 0 {
		res.set("tsdb.range_decodes_per_query", d("cameo_store_range_decodes_total")/float64(queries), "count")
	}
	if aggs > 0 {
		res.set("tsdb.agg_pushdowns_per_agg", d("cameo_store_agg_pushdowns_total")/float64(aggs), "count")
	}
	if passes := d("cameo_store_lifecycle_pass_seconds_count"); passes > 0 {
		res.set("tsdb.maintain_ms_per_pass", 1000*d("cameo_store_lifecycle_pass_seconds_sum")/passes, "ms")
		res.set("tsdb.maintain_passes", passes, "count")
	}
	return nil
}

// agreement sets metrics.client_over_server_p50.<kind>: the client's
// median over the upper bound of the bucket holding the server's median
// for the same window. The server's buckets are powers of two, so within
// [0.5, 2] is agreement; outside is a finding about the instrumentation.
func (s *serverRun) agreement(kind, endpoint string, client timings) {
	if len(client) == 0 {
		return
	}
	ub, n := histDeltaQuantile(s.startSnap, s.endSnap, "cameo_http_request_seconds", `endpoint="`+endpoint+`"`, 0.5)
	if n == 0 || ub == 0 {
		return
	}
	ratio := percentile(sortedCopy(client), 50) / (ub * 1000)
	s.res.set("metrics.client_over_server_p50."+kind, ratio, "ratio")
	if ratio < 0.5 || ratio > 2 {
		s.res.note("finding: client %s median is %.2fx the server histogram's p50 bound (expected within [0.5, 2]): %.2f ms of HTTP, loopback and client time around a handler of at most %.2f ms", kind, ratio, ratio*ub*1000-ub*1000, ub*1000)
	}
}

// shutdown stops the daemon cleanly (SIGTERM: drain, flush, close).
func (s *serverRun) shutdown() error {
	s.probe.close()
	s.admin.close()
	return s.d.stop()
}

// ingestSteady: closed loop, 2 connections, 512-sample text batches
// round-robin over each connection's 8 of 16 series, a fixed number of
// whole blocks per series; the window closes when every block is durable.
// The series start at eight different offsets into their first block (the
// head start is written during set-up), so block cuts arrive evenly and
// the compression queue stays full: from then on every write that cuts a
// block waits for a queue slot, and the times those writes complete are
// the times the daemon finishes blocks.
func (e *env) ingestSteady(res *Result) error {
	if err := e.buildCameod(); err != nil {
		return err
	}
	defer e.cleanup()
	const conns = 2
	const perBlock = blockSize / ingestBatch
	blocks := max(1, int(math.Round(ingestBlocksPerSec*e.seconds)))
	perSeries := blocks * blockSize
	batches := perSeries / ingestBatch
	// In batches. A connection's eight series (s, s+2, ...) get the eight
	// different offsets, so each of its rounds cuts exactly one block.
	headStart := func(s int) int { return s / conns % perBlock }
	var (
		data   [][]float64
		bodies [][][]byte
		run    = e.newServerRun(res)
	)
	setupS, err := timeSetups(e.setups(5), run.probe.cpuSlowdown, func() (func(), error) {
		var err error
		if data, err = genAll(e.seed, nSeries, perSeries); err != nil {
			return nil, err
		}
		bodies = renderBatches(data, ingestBatch)
		if run.dir, err = e.freshDir("ingest"); err != nil {
			return nil, err
		}
		if run.d, err = e.startDaemon(run.dir); err != nil {
			return nil, err
		}
		cn := newConn(run.d.base)
		defer cn.close()
		for s := 0; s < nSeries; s++ {
			for b := 0; b < headStart(s); b++ {
				if err := cn.write(bodies[s][b], ingestBatch); err != nil {
					run.d.kill()
					return nil, err
				}
			}
		}
		return run.d.kill, nil
	})
	if err != nil {
		return err
	}
	defer run.d.kill()
	if err := run.begin(); err != nil {
		return err
	}

	var (
		wg     sync.WaitGroup
		lat    [conns]timings
		cuts   [conns][]time.Duration // when each block-cutting write completed
		rounds [conns][]opRec         // whole rounds: a write to each of the 8 series
		failed [conns][]string
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(run.d.base)
			defer cn.close()
			for round := 0; round < batches; round++ {
				roundStart, wrote := time.Now(), 0
				for s := c; s < nSeries; s += conns {
					b := headStart(s) + round
					if b >= batches {
						continue // this series is complete
					}
					wrote++
					start := time.Now()
					err := cn.write(bodies[s][b], ingestBatch)
					d := time.Since(start)
					lat[c].add(d)
					if err != nil {
						failed[c] = append(failed[c], err.Error())
					}
					if (b+1)%perBlock == 0 {
						cuts[c] = append(cuts[c], time.Since(run.wall0))
					}
				}
				if wrote == nSeries/conns {
					rounds[c] = append(rounds[c], opRec{end: time.Since(run.wall0), ms: float64(time.Since(roundStart)) / float64(time.Millisecond)})
				}
			}
		}(c)
	}
	wg.Wait()
	if err := waitDrained(run.admin); err != nil {
		return err
	}
	elapsed := time.Since(run.wall0)

	var writes timings
	for c := range lat {
		writes = append(writes, lat[c]...)
		for _, msg := range failed[c] {
			res.fail("%s", msg)
		}
	}
	res.Attempted += int64(len(writes))
	acked := (len(writes) - int(res.Failed)) * ingestBatch
	if err := run.end(acked, len(writes), 0, 0); err != nil {
		return err
	}
	run.agreement("write", "write", writes)
	if err := run.shutdown(); err != nil {
		return err
	}

	want := make([]int, nSeries)
	for i := range want {
		want[i] = perSeries
	}
	worst, _, err := checkStore(res, run.dir, data, want)
	if err != nil {
		return err
	}
	stored, err := dirBytes(run.dir)
	if err != nil {
		return err
	}

	// The gated rate. From the moment the queue is full, a block-cutting
	// write is let through exactly when the daemon finishes a block, so the
	// count of such writes completed by time t, interpolated between them,
	// is the daemon's progress in blocks. The rate is that progress over
	// one-second windows sliding by a quarter, best quartile.
	all := append(append([]time.Duration(nil), cuts[0]...), cuts[1]...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	const queueFill = 6 // the first cuts find the 2 workers and 4 queue slots free
	progress := func(t time.Duration) float64 {
		i := sort.Search(len(all), func(i int) bool { return all[i] > t })
		if i == 0 || i == len(all) {
			return float64(i)
		}
		return float64(i) + float64(t-all[i-1])/float64(all[i]-all[i-1])
	}
	var rates []float64
	if len(all) > queueFill+1 {
		const width, step = time.Second, 250 * time.Millisecond
		for t := all[queueFill]; t+width <= all[len(all)-1]; t += step {
			rates = append(rates, (progress(t+width)-progress(t))*blockSize/width.Seconds()*run.cpuAt(t, t+width))
		}
	}
	res.set("setup_s", setupS, "s")
	res.set("ingest_samples_per_s", float64(acked)/elapsed.Seconds(), "samples/s")
	if len(rates) > 0 {
		res.set("samples_per_s", bestQuartile(rates, true), "samples/s")
	} else {
		res.set("samples_per_s", float64(acked)/elapsed.Seconds(), "samples/s")
		res.note("samples_per_s is the whole-run rate: too few blocks for windows")
	}
	// The gated latency is that of one round of a connection: a batch to
	// each of its 8 series, 4096 samples, one of which cuts a block and
	// waits for a compression slot. (That one write's own latency comes in
	// steps of 20 ms, the Go scheduler's preemption tick when both
	// processors are compressing; it is the layer line write_p95_ms.)
	// Median and p75 of every run of eight consecutive rounds, best
	// quartile over those runs.
	allRounds := append(append([]opRec(nil), rounds[0]...), rounds[1]...)
	sort.Slice(allRounds, func(i, j int) bool { return allRounds[i].end < allRounds[j].end })
	const group = 8
	var p50s, p75s []float64
	for i := 0; i+group <= len(allRounds) || i == 0; i++ {
		var ms []float64
		for _, r := range allRounds[i:min(i+group, len(allRounds))] {
			began := r.end - time.Duration(r.ms*float64(time.Millisecond))
			ms = append(ms, r.ms/run.cpuAt(began, r.end))
		}
		sort.Float64s(ms)
		p50s = append(p50s, percentile(ms, 50))
		p75s = append(p75s, percentile(ms, 75))
	}
	res.set("op_p50_ms", bestQuartile(p50s, false), "ms")
	res.set("op_tail_ms", bestQuartile(p75s, false), "ms")
	res.set("loadgen.op_samples", float64(len(allRounds)), "count")
	res.set("loadgen.windows", float64(len(p50s)), "count")
	reportKind(res, "write", writes)
	res.set("stored_bytes_per_raw_byte", float64(stored)/float64(8*nSeries*perSeries), "B/B")
	res.set("acf_deviation_over_eps", worst, "ratio")
	if e.trace {
		return e.traceServer(res, traceInput{data: data, block: blockSize, batch: ingestBatch, observedRate: float64(acked) / elapsed.Seconds()})
	}
	return nil
}

// reader is one closed-loop read connection's tally.
type reader struct {
	queries, aggs timings
	ops           []opRec // every measured read, for the windows
	attempted     int
	failed        []string
}

// done records one measured read that succeeded.
func (r *reader) done(kind *timings, wall0 time.Time, d time.Duration, samples int) {
	kind.add(d)
	r.ops = append(r.ops, opRec{time.Since(wall0), float64(d) / float64(time.Millisecond), samples})
}

func (r *reader) failf(format string, a ...any) {
	r.failed = append(r.failed, fmt.Sprintf(format, a...))
}

func mergeReaders(res *Result, rs []reader) (queries, aggs timings, ops []opRec) {
	for i := range rs {
		queries = append(queries, rs[i].queries...)
		aggs = append(aggs, rs[i].aggs...)
		ops = append(ops, rs[i].ops...)
		res.Attempted += int64(rs[i].attempted)
		for _, msg := range rs[i].failed {
			res.fail("%s", msg)
		}
	}
	return queries, aggs, ops
}

// queryCold: a preloaded store twice the size of the block cache, read
// only. Closed loop, 2 connections: 70% range queries of 512 samples at a
// uniform series and offset, 30% query_agg of 64 windows of 64 samples at
// a 64-aligned offset.
func (e *env) queryCold(res *Result) error {
	if err := e.buildCameod(); err != nil {
		return err
	}
	defer e.cleanup()
	var (
		data [][]float64
		run  = e.newServerRun(res)
	)
	setupS, err := timeSetups(e.setups(3), run.probe.cpuSlowdown, func() (func(), error) {
		var err error
		if data, err = genAll(e.seed, querySeries, queryPreload); err != nil {
			return nil, err
		}
		if run.dir, err = e.freshDir("query"); err != nil {
			return nil, err
		}
		if err := preload(run.dir, data, queryPreload, blockSize); err != nil {
			return nil, err
		}
		if run.d, err = e.startDaemon(run.dir, "-cache", "8"); err != nil {
			return nil, err
		}
		return run.d.kill, nil
	})
	if err != nil {
		return err
	}
	defer run.d.kill()

	const conns = 2
	readers := make([]reader, conns)
	// recon is what the store answers with; the sampled deep checks need
	// it, and it can only be read while no daemon owns the directory, so
	// the checks keep what they sampled and compare after shutdown.
	type sampled struct {
		series, from int
		vals         []float64
	}
	sq := make([][]sampled, conns) // range queries
	sa := make([][]sampled, conns) // aggregates

	warm := e.warmup()
	total := warm + time.Duration(e.seconds*float64(time.Second))
	var wg sync.WaitGroup
	startAll := time.Now()
	measuring := make(chan struct{})
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*1000 + int64(c)))
			cn := newConn(run.d.base)
			defer cn.close()
			r := &readers[c]
			for {
				now := time.Since(startAll)
				if now >= total {
					return
				}
				measured := now >= warm
				if measured {
					<-measuring // opens once the window's first snapshot is taken
				}
				s := rng.Intn(querySeries)
				deep := rng.Intn(100) == 0
				if rng.Float64() < 0.7 {
					from := rng.Intn(queryPreload - queryLen + 1)
					var dst *[]float64
					var vals []float64
					if deep {
						dst = &vals
					}
					start := time.Now()
					err := cn.query(seriesName(s), from, from+queryLen, dst)
					d := time.Since(start)
					if !measured {
						continue
					}
					r.attempted++
					if err != nil {
						r.failf("%v", err)
						continue
					}
					r.done(&r.queries, run.wall0, d, queryLen)
					if deep {
						sq[c] = append(sq[c], sampled{s, from, vals})
					}
				} else {
					from := rng.Intn((queryPreload-aggLen)/aggStep+1) * aggStep
					start := time.Now()
					vals, err := cn.agg(seriesName(s), from, from+aggLen, aggStep)
					d := time.Since(start)
					if !measured {
						continue
					}
					r.attempted++
					if err != nil {
						r.failf("%v", err)
						continue
					}
					r.done(&r.aggs, run.wall0, d, aggLen)
					if deep {
						sa[c] = append(sa[c], sampled{s, from, vals})
					}
				}
			}
		}(c)
	}
	time.Sleep(time.Until(startAll.Add(warm)))
	if err := run.begin(); err != nil {
		return err
	}
	close(measuring)
	wg.Wait()
	elapsed := time.Since(run.wall0)

	queries, aggs, ops := mergeReaders(res, readers)
	if err := run.end(0, 0, len(queries), len(aggs)); err != nil {
		return err
	}
	run.agreement("query", "query", queries)
	run.agreement("agg", "query_agg", aggs)
	if err := run.shutdown(); err != nil {
		return err
	}

	want := make([]int, querySeries)
	for i := range want {
		want[i] = queryPreload
	}
	worst, recon, err := checkStore(res, run.dir, data, want)
	if err != nil {
		return err
	}
	if res.Failed == 0 {
		for c := 0; c < conns; c++ {
			for _, q := range sq[c] {
				res.Attempted++
				for j, v := range q.vals {
					if math.Float64bits(v) != math.Float64bits(recon[q.series][q.from+j]) {
						res.fail("query %s [%d,+%d): value %d is %v, store holds %v", seriesName(q.series), q.from, queryLen, j, v, recon[q.series][q.from+j])
						break
					}
				}
			}
			for _, a := range sa[c] {
				res.Attempted++
				ref := denseMeans(recon[a.series][a.from:a.from+aggLen], aggStep)
				for j, v := range a.vals {
					if !closeTo(v, ref[j]) {
						res.fail("query_agg %s [%d,+%d): window %d is %v, dense fold gives %v", seriesName(a.series), a.from, aggLen, j, v, ref[j])
						break
					}
				}
			}
		}
	}
	stored, err := dirBytes(run.dir)
	if err != nil {
		return err
	}
	res.set("setup_s", setupS, "s")
	res.set("samples_per_s", reportWindows(res, ops, 250*time.Millisecond, elapsed, 99, run.reqAt, run.reqRateAt), "samples/s")
	reportKind(res, "query", queries)
	reportKind(res, "agg", aggs)
	res.set("queries_per_s", float64(len(queries)+len(aggs))/elapsed.Seconds(), "1/s")
	res.set("stored_bytes_per_raw_byte", float64(stored)/float64(8*querySeries*queryPreload), "B/B")
	res.set("acf_deviation_over_eps", worst, "ratio")
	if e.trace {
		return e.traceServer(res, traceInput{data: data, block: blockSize, readDir: run.dir, readLen: queryPreload, cold: true})
	}
	return nil
}

// serveMixed: writes beside reads on the same shards, pool and cache, with
// background maintenance running. Connection 1 is an open-loop writer (64
// batches/s of 128 samples round-robin over the 16 series, a third of the
// ingest ceiling); connection 2 is a closed-loop reader (half range queries
// of a series' newest 512 samples, half query_agg over the 4096 samples
// below its newest block boundary at step 64, which the rollup tier answers
// once maintenance has materialized it). The reader has no think time: with
// 5 ms of it the daemon idles between requests and the latencies are half
// wake-up cost, twice as long and three times as scattered.
//
// The daemon runs with -block 1024 here. A read of a series whose block
// is being compressed waits for it, so with the default 4096 a 12 s run
// holds two dozen stalls of up to 300 ms: too few to measure and enough to
// swing the reader's rate by a tenth from run to run. At 1024 there are
// four times as many, each a quarter as long, and their sum is steady. The
// default block size is covered by the other two server workloads.
func (e *env) serveMixed(res *Result) error {
	if err := e.buildCameod(); err != nil {
		return err
	}
	defer e.cleanup()
	warm := e.warmup()
	total := warm + time.Duration(e.seconds*float64(time.Second))
	nWrites := int(total.Seconds() * mixedWritesPerSecond)
	livePerSeries := (nWrites + nSeries - 1) / nSeries * mixedBatch
	// Series s starts headStart(s) batches into its next block, so the
	// series cut their blocks evenly spread in time and not all within one
	// round of the writer, which would be a stall of the schedule's making.
	headStart := func(s int) int { return s % (mixedBlock / mixedBatch) }
	var (
		data   [][]float64
		bodies [][][]byte // everything past the preload, in batches
		run    = e.newServerRun(res)
	)
	setupS, err := timeSetups(e.setups(3), run.probe.cpuSlowdown, func() (func(), error) {
		var err error
		if data, err = genAll(e.seed, nSeries, mixedPreload+mixedBlock+livePerSeries); err != nil {
			return nil, err
		}
		live := make([][]float64, nSeries)
		for i := range live {
			live[i] = data[i][mixedPreload:]
		}
		bodies = renderBatches(live, mixedBatch)
		if run.dir, err = e.freshDir("mixed"); err != nil {
			return nil, err
		}
		if err := preload(run.dir, data, mixedPreload, mixedBlock); err != nil {
			return nil, err
		}
		if run.d, err = e.startDaemon(run.dir, "-block", strconv.Itoa(mixedBlock), "-maintain-interval", "2s", "-rollups", strconv.Itoa(aggStep)); err != nil {
			return nil, err
		}
		cn := newConn(run.d.base)
		defer cn.close()
		for s := 0; s < nSeries; s++ {
			for b := 0; b < headStart(s); b++ {
				if err := cn.write(bodies[s][b], mixedBatch); err != nil {
					run.d.kill()
					return nil, err
				}
			}
		}
		return run.d.kill, nil
	})
	if err != nil {
		return err
	}
	defer run.d.kill()

	// acked[s] is the live samples of series s the server has acknowledged;
	// the reader aims at the newest data through it.
	var acked [nSeries]atomic.Int64
	for s := range acked {
		acked[s].Store(int64(headStart(s) * mixedBatch))
	}
	var (
		wg        sync.WaitGroup
		writes    timings // measured window only
		wOps      []opRec
		writeSvc  timings // the same writes from send to ack, as the server sees them
		late      timings
		wFailed   []string
		wMeasured int
		rd        reader
		aggChecks int
	)
	startAll := time.Now()
	run.wall0 = startAll.Add(warm) // before the loops start: the writer never waits for the window
	measuring := make(chan struct{})
	interval := time.Second / mixedWritesPerSecond

	wg.Add(2)
	go func() { // open-loop writer
		defer wg.Done()
		cn := newConn(run.d.base)
		defer cn.close()
		var prevDone time.Time
		for k := 0; k < nWrites; k++ {
			due := startAll.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(due))
			s := k % nSeries
			sent := time.Now()
			err := cn.write(bodies[s][headStart(s)+k/nSeries], mixedBatch)
			done := time.Now()
			if err == nil {
				acked[s].Add(mixedBatch)
			}
			if due.Sub(startAll) < warm {
				if err != nil {
					wFailed = append(wFailed, "warm-up "+err.Error())
				}
				continue
			}
			wMeasured++
			// Timed from the due time when the schedule slipped because the
			// previous write was still out; a late timer wake-up alone is
			// the generator's, not the daemon's, and is reported apart.
			from := sent
			if prevDone.After(due) {
				from = due
			}
			prevDone = done
			writes.add(done.Sub(from))
			wOps = append(wOps, opRec{done.Sub(run.wall0), float64(done.Sub(from)) / float64(time.Millisecond), mixedBatch})
			writeSvc.add(done.Sub(sent))
			late.add(sent.Sub(due))
			if err != nil {
				wFailed = append(wFailed, err.Error())
			}
		}
	}()
	go func() { // closed-loop reader
		defer wg.Done()
		rng := rand.New(rand.NewSource(e.seed*1000 + 7))
		cn := newConn(run.d.base)
		defer cn.close()
		var dense []float64
		for {
			now := time.Since(startAll)
			if now >= total {
				return
			}
			measured := now >= warm
			if measured {
				<-measuring // opens once the window's first snapshot is taken
			}
			s := rng.Intn(nSeries)
			name := seriesName(s)
			have := mixedPreload + int(acked[s].Load())
			if rng.Intn(2) == 0 {
				start := time.Now()
				err := cn.query(name, have-queryLen, have, nil)
				d := time.Since(start)
				if !measured {
					continue
				}
				rd.attempted++
				if err != nil {
					rd.failf("%v", err)
					continue
				}
				rd.done(&rd.queries, run.wall0, d, queryLen)
				continue
			}
			to := have / mixedBlock * mixedBlock
			deep := measured && rng.Intn(100) == 0
			start := time.Now()
			vals, err := cn.agg(name, to-aggLen, to, aggStep)
			d := time.Since(start)
			if !measured {
				continue
			}
			rd.attempted++
			if err != nil {
				rd.failf("%v", err)
				continue
			}
			rd.done(&rd.aggs, run.wall0, d, aggLen)
			if !deep {
				continue
			}
			// Deep check: the same range read densely must fold to the
			// same means. The range is one whole cut block, and a read of
			// a cut block always sees its reconstruction (it waits for a
			// compression in flight), so the two reads see the same data.
			rd.attempted++
			aggChecks++
			dense = dense[:0]
			if err := cn.query(name, to-aggLen, to, &dense); err != nil {
				rd.failf("check %v", err)
				continue
			}
			for j, m := range denseMeans(dense, aggStep) {
				if !closeTo(vals[j], m) {
					rd.failf("query_agg %s [%d,%d): window %d is %v, dense fold of the range query gives %v", name, to-aggLen, to, j, vals[j], m)
					break
				}
			}
		}
	}()
	time.Sleep(time.Until(startAll.Add(warm)))
	if err := run.begin(); err != nil {
		return err
	}
	close(measuring)
	wg.Wait()
	elapsed := time.Since(run.wall0)

	res.Attempted += int64(wMeasured)
	for _, msg := range wFailed {
		res.fail("%s", msg)
	}
	queries, aggs, ops := mergeReaders(res, []reader{rd})
	if err := run.end(wMeasured*mixedBatch, wMeasured, len(queries), len(aggs)); err != nil {
		return err
	}
	run.agreement("write", "write", writeSvc)
	run.agreement("query", "query", queries)
	run.agreement("agg", "query_agg", aggs)
	if err := run.shutdown(); err != nil {
		return err
	}

	want := make([]int, nSeries)
	totalSamples := 0
	for i := range want {
		want[i] = mixedPreload + int(acked[i].Load())
		totalSamples += want[i]
	}
	worst, _, err := checkStore(res, run.dir, data, want)
	if err != nil {
		return err
	}
	stored, err := dirBytes(run.dir)
	if err != nil {
		return err
	}
	res.set("setup_s", setupS, "s")
	// The rate is the writer's: samples acked over the window. The writer
	// runs on a schedule, so this reads the offered 8,192/s until the daemon
	// falls behind it, and the latencies carry this workload. The reader's
	// rate is not gated: a read of a series whose block is being compressed
	// waits for the block (the reads' mean is 0.28 ms beside a median of
	// 0.16), and how long those waits are follows the seed's data and the
	// host's speed, 15 to 30% from run to run. It is the layer line
	// queries_per_s.
	res.set("samples_per_s", float64(wMeasured*mixedBatch)/elapsed.Seconds(), "samples/s")
	reportWindows(res, append(ops, wOps...), 250*time.Millisecond, elapsed, 99, run.reqAt, run.reqRateAt)
	reportKind(res, "write", writes)
	reportKind(res, "query", queries)
	reportKind(res, "agg", aggs)
	res.set("queries_per_s", float64(len(queries)+len(aggs))/elapsed.Seconds(), "1/s")
	res.set("stored_bytes_per_raw_byte", float64(stored)/float64(8*totalSamples), "B/B")
	res.set("acf_deviation_over_eps", worst, "ratio")
	res.set("loadgen.agg_checks", float64(aggChecks), "count")
	_, lateTail := tail(sortedCopy(late), 99)
	res.set("loadgen.late_p99_ms", lateTail, "ms")
	if lateTail > float64(interval)/float64(time.Millisecond) {
		res.note("loadgen.late_p99_ms %.2f over one send interval (%.2f ms): the open loop fell behind its schedule", lateTail, float64(interval)/float64(time.Millisecond))
	}
	if e.trace {
		return e.traceServer(res, traceInput{data: data, block: mixedBlock, batch: mixedBatch, readDir: run.dir, readLen: mixedPreload})
	}
	return nil
}
