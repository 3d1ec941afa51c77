package tsdb

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/series"
)

func streamOptions() Options {
	return Options{
		Compression: core.Options{Lags: 24, Epsilon: 0.02},
		BlockSize:   512,
		Streaming:   true,
	}
}

// TestStreamingMatchesBatchStore feeds identical samples to a streaming
// store and a synchronous batch store and requires every read path to
// return bit-identical results: streaming compression is a deterministic
// time-slicing of the batch algorithm, so the stores must be
// indistinguishable to readers, before and after a reopen.
func TestStreamingMatchesBatchStore(t *testing.T) {
	xs := sensorData(3000, 11)
	batchDir, streamDir := t.TempDir(), t.TempDir()

	batchOpt := dbOptions()
	batchOpt.Workers = -1 // inline: fully deterministic reference
	batch, err := Open(batchDir, batchOpt)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Open(streamDir, streamOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Varied chunk sizes so cuts land mid-append, on the boundary, and
	// multiple blocks deep in a single call.
	chunks := []int{1, 7, 64, 512, 1300}
	for i, ci := 0, 0; i < len(xs); ci++ {
		c := chunks[ci%len(chunks)]
		if i+c > len(xs) {
			c = len(xs) - i
		}
		for _, db := range []*DB{batch, stream} {
			if err := db.Append("s", xs[i:i+c]...); err != nil {
				t.Fatal(err)
			}
		}
		i += c
	}
	if err := stream.Sync(); err != nil {
		t.Fatal(err)
	}

	compareStores(t, batch, stream, len(xs))

	st := stream.Stats()
	if want := uint64(len(xs) / 512); st.StreamBlocks != want {
		t.Fatalf("StreamBlocks = %d, want %d", st.StreamBlocks, want)
	}
	if st.Appends == 0 || st.AppendMax == 0 {
		t.Fatalf("append latency histogram not recording: %+v", st)
	}
	if st.AppendP50 > st.AppendP99 || st.AppendP99 > st.AppendMax {
		t.Fatalf("latency percentiles out of order: %+v", st)
	}

	// Reopen both stores (Close flushes each tail into a final block):
	// streaming blocks are standard self-describing blocks, so recovery and
	// reads work unchanged and the stores stay bit-identical.
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}
	stream, err = Open(streamDir, streamOptions())
	if err != nil {
		t.Fatal(err)
	}
	batch, err = Open(batchDir, batchOpt)
	if err != nil {
		t.Fatal(err)
	}
	compareStores(t, batch, stream, len(xs))
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}
}

// compareStores checks the full read surface (Query, Cursor, QueryAgg) for
// bit-identity between two stores holding the same series.
func compareStores(t *testing.T, a, b *DB, n int) {
	t.Helper()
	ga, err := a.Query("s", 0, n)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.Query("s", 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ga) != len(gb) {
		t.Fatalf("query lengths differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, ga[i], gb[i])
		}
	}
	// Cursor over an unaligned sub-range.
	ca, err := a.Cursor("s", 100, n-100)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Cursor("s", 100, n-100)
	if err != nil {
		t.Fatal(err)
	}
	flatten := func(c *Cursor) []float64 {
		var out []float64
		for {
			chunk, ok := c.Next()
			if !ok {
				break
			}
			out = append(out, chunk...)
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fa, fb := flatten(ca), flatten(cb)
	if len(fa) != len(fb) {
		t.Fatalf("cursor lengths differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("cursor sample %d differs: %v vs %v", i, fa[i], fb[i])
		}
	}
	// Windowed aggregates (exercises the pushdown on compressed blocks).
	wa, err := a.QueryAgg("s", 0, n, 100, series.AggMean)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.QueryAgg("s", 0, n, 100, series.AggMean)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("window %d aggregate differs: %v vs %v", i, wa[i], wb[i])
		}
	}
}

// TestStreamingReaderForcesFinish arranges a freshly cut, barely started
// streaming block and queries into it: the reader must finish the block on
// its own goroutine instead of waiting for appends that never come.
func TestStreamingReaderForcesFinish(t *testing.T) {
	opt := streamOptions()
	opt.MaxAppendLatency = time.Nanosecond // paced slices do almost no work
	db, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	xs := sensorData(513, 12)
	if err := db.Append("s", xs...); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query("s", 0, len(xs)) // overlaps the in-progress block
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("query returned %d samples, want %d", len(got), len(xs))
	}
	if f := db.Stats().StreamForced; f == 0 {
		t.Fatal("expected the reader to force-finish the streaming block")
	}
}

// TestStreamingKnobValidation covers the Options surface: streaming
// requires a stream-capable codec, and the latency cap must be sane.
func TestStreamingKnobValidation(t *testing.T) {
	_, err := Open(t.TempDir(), Options{Codec: codec.Gorilla{}, BlockSize: 64, Streaming: true})
	if err == nil || !strings.Contains(err.Error(), "streaming encode path") {
		t.Fatalf("expected stream-capability error, got %v", err)
	}
	opt := streamOptions()
	opt.MaxAppendLatency = -time.Second
	if _, err := Open(t.TempDir(), opt); err == nil {
		t.Fatal("expected error for negative MaxAppendLatency")
	}
	// Default cap is applied when streaming is on.
	opt = streamOptions()
	db, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.opt.MaxAppendLatency; got != time.Millisecond {
		t.Fatalf("default MaxAppendLatency = %v, want 1ms", got)
	}
	db.Close()
}

// TestStreamingFlushUnderIngest checks Flush correctness with a streaming
// block in flight: the flush force-finishes it, everything appended before
// the flush is durable, and the store reads back bit-identical to a batch
// store flushed at the same point.
func TestStreamingFlushUnderIngest(t *testing.T) {
	opt := streamOptions()
	opt.MaxAppendLatency = time.Nanosecond
	dir := t.TempDir()
	db, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	batchOpt := dbOptions()
	batchOpt.Workers = -1
	batch, err := Open(t.TempDir(), batchOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	xs := sensorData(700, 13)
	for _, d := range []*DB{db, batch} {
		if err := d.Append("s", xs...); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	compareStores(t, batch, db, len(xs))
}

// TestStreamingIngestSoak hammers a streaming store with concurrent
// writers, readers, and lifecycle passes. Run under -race this is the
// CI soak for the streaming ingest path.
func TestStreamingIngestSoak(t *testing.T) {
	opt := streamOptions()
	opt.Shards = 4
	opt.MaxAppendLatency = 100 * time.Microsecond
	db, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 4
		perWriter = 1600
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: random ranges and window aggregates across all series.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := []string{"w0", "w1", "w2", "w3"}[rng.Intn(writers)]
				lo := rng.Intn(perWriter)
				if _, err := db.Query(name, lo, lo+rng.Intn(600)); err != nil && !errors.Is(err, ErrUnknownSeries) {
					t.Error(err)
					return
				}
				if _, err := db.QueryAgg(name, 0, perWriter, 128, series.AggMax); err != nil && !errors.Is(err, ErrUnknownSeries) {
					t.Error(err)
					return
				}
			}
		}(int64(100 + r))
	}
	// A maintenance ticker racing the ingest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				if err := db.Maintain(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			name := []string{"w0", "w1", "w2", "w3"}[w]
			xs := sensorData(perWriter, int64(w))
			for i := 0; i < len(xs); i += 37 {
				end := min(i+37, len(xs))
				if err := db.Append(name, xs[i:end]...); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	wg.Wait()
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Every writer's data reads back at full length, and compressed blocks
	// carry the configured ACF bound (checked cheaply via sample count).
	for w := 0; w < writers; w++ {
		name := []string{"w0", "w1", "w2", "w3"}[w]
		got, err := db.Query(name, 0, perWriter)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != perWriter {
			t.Fatalf("%s: %d samples, want %d", name, len(got), perWriter)
		}
	}
	st := db.Stats()
	if st.StreamBlocks == 0 {
		t.Fatal("soak produced no streaming blocks")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingPacingSeed pins the pacing seeds to what a block costs. The
// latency cap is lifted so the unit budget alone paces (unit counts repeat
// exactly): from a fresh series' first block on, every block must finish
// within the appends that fill the next one — no forced finish — on the
// cheapest and the costliest replica at the store's default shape and on one
// whose blocks alternate between full cost and the two-point probe's 2 units
// a sample; and the seed must lie within 2x of the costliest block measured.
func TestStreamingPacingSeed(t *testing.T) {
	const blockSize, blocks, batch = 4096, 5, 128
	opt := Options{
		Compression:      core.Options{Lags: 24, Epsilon: 0.01},
		BlockSize:        blockSize,
		Streaming:        true,
		MaxAppendLatency: time.Minute,
	}
	for _, name := range []string{"ElecPower", "MinTemp", "Humidity"} {
		sp, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// Enough samples past the last cut for its paced finish, not for
		// another cut.
		xs := sp.GenerateN((blocks+1)*blockSize-batch, 6)

		bs, err := codec.NewCAMEO(opt.Compression).NewBlockStream()
		if err != nil {
			t.Fatal(err)
		}
		worst, probed := 0.0, 0
		for b := 0; b < blocks; b++ {
			if err := bs.Begin(xs[b*blockSize : (b+1)*blockSize]); err != nil {
				t.Fatal(err)
			}
			units, _ := bs.Advance(1 << 30)
			if units == 2*blockSize {
				probed++
			}
			worst = max(worst, float64(units)/blockSize)
		}
		bs.Close()
		if name == "Humidity" && (probed == 0 || probed == blocks) {
			t.Fatalf("%s: %d of %d blocks probed, want a mix", name, probed, blocks)
		}
		if initUnitsPerPoint > 2*worst || worst > 2*initUnitsPerPoint {
			t.Errorf("%s: seed %d units a sample, costliest block %.1f", name, initUnitsPerPoint, worst)
		}

		db, err := Open(t.TempDir(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < len(xs); j += batch {
			if err := db.Append("s", xs[j:j+batch]...); err != nil {
				t.Fatal(err)
			}
		}
		st := db.Stats()
		if st.StreamForced != 0 || st.StreamBlocks != blocks {
			t.Errorf("%s: %d blocks streamed, %d forced; want %d and 0", name, st.StreamBlocks, st.StreamForced, blocks)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
