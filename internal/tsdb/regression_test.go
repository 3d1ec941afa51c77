package tsdb

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/codec"
)

// TestRejectsUnsafeSeriesNames covers the path-traversal fix: "", ".", and
// ".." survive url.PathEscape unchanged, so without validation Append("..")
// would create block files in the PARENT of the store root (and "."/".."
// series would silently vanish on reopen, since ReadDir never lists them).
func TestRejectsUnsafeSeriesNames(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	db, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{"", ".", ".."} {
		if err := db.Append(name, 1, 2, 3); !errors.Is(err, ErrBadSeriesName) {
			t.Fatalf("Append(%q) = %v, want ErrBadSeriesName", name, err)
		}
		if _, err := db.Query(name, 0, 10); !errors.Is(err, ErrUnknownSeries) {
			t.Fatalf("Query(%q) = %v, want ErrUnknownSeries", name, err)
		}
	}
	// A sibling name that merely contains dots must still work.
	if err := db.Append("a..b", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Nothing may have been written outside the store root.
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("store escaped its root; parent now holds %q", names)
	}
}

// TestOpenRejectsNonCanonicalSeriesDirs covers the reopen side of the
// traversal fix: a planted "%2E%2E" directory decodes to "..", whose
// seriesDir resolves to the PARENT of the store root, so loading it would
// let crash-artifact cleanup delete files outside the store. Open must
// refuse such a directory — and leave the parent untouched.
func TestOpenRejectsNonCanonicalSeriesDirs(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	db, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append("s", sensorData(100, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(parent, "victim.tmp")
	if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, planted := range []string{"%2E%2E", "%2E", "%73"} { // "..", ".", non-canonical "s"
		if err := os.Mkdir(filepath.Join(dir, planted), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, dbOptions()); err == nil {
			t.Fatalf("Open accepted planted series directory %q", planted)
		}
		if err := os.Remove(filepath.Join(dir, planted)); err != nil {
			t.Fatal(err)
		}
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "precious" {
		t.Fatalf("file outside the store root was touched: %q, %v", data, err)
	}
	// With the planted directories gone, the store opens fine again.
	db2, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st, err := db2.SeriesStats("s"); err != nil || st.Samples != 100 {
		t.Fatalf("legitimate series after recovery: %+v, %v", st, err)
	}
}

// plantPendingBlock moves the first n buffered tail samples of a series
// into a hand-built pending block, mimicking a cut whose compression is
// still in flight (done open) — the state an Append racing Flush's Sync
// drain produces. It returns the planted block; the caller plays the
// worker's role.
func plantPendingBlock(t *testing.T, db *DB, name string, n int) *pendingBlock {
	t.Helper()
	sh := db.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.series[name]
	if st == nil || len(st.tail) < n {
		t.Fatalf("series %q has no %d-sample tail to cut", name, n)
	}
	raw := append([]float64(nil), st.tail[:n]...)
	st.tail = append(st.tail[:0], st.tail[n:]...)
	pb := &pendingBlock{start: st.assigned, raw: raw, done: make(chan struct{})}
	st.pending[pb.start] = pb
	st.assigned += n
	return pb
}

// TestFlushWaitsForInflightCutBlocks covers the tail-stamp race: a block
// cut by an Append racing Flush's drain is still in flight when the tail
// is persisted. The old code stamped the tail at st.assigned anyway —
// counting the undurable block — so a crash before that block landed made
// recovery discard the tail as superseded, losing samples Flush had
// reported durable. Flush must instead wait for the in-flight block.
func TestFlushWaitsForInflightCutBlocks(t *testing.T) {
	opt := dbOptions()
	opt.Workers = -1 // no pool: the test plays the worker deterministically
	dir := t.TempDir()
	db, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	xs := sensorData(500, 7)
	if err := db.Append("s", xs...); err != nil { // < BlockSize: all buffered
		t.Fatal(err)
	}
	pb := plantPendingBlock(t, db, "s", 400)

	flushed := make(chan error, 1)
	go func() { flushed <- db.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) while a cut block was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Play the worker: persist the block, publish it, then signal done.
	meta, recon, err := db.buildBlock("s", pb.start, pb.raw)
	if err != nil {
		t.Fatal(err)
	}
	sh := db.shardFor("s")
	sh.mu.Lock()
	st := sh.series["s"]
	delete(st.pending, pb.start)
	st.insertBlock(meta)
	pb.recon = recon
	pb.raw = nil
	sh.mu.Unlock()
	close(pb.done)

	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush did not return after the in-flight block landed")
	}
	sh.mu.RLock()
	frontier, assigned, npending := st.durableFrontier(), st.assigned, len(st.pending)
	sh.mu.RUnlock()
	if npending != 0 || frontier != assigned {
		t.Fatalf("after Flush: %d pending, frontier %d != assigned %d", npending, frontier, assigned)
	}

	// Crash (no Close) and reopen: the tail Flush stamped must survive,
	// because its stamp now matches the durable frontier.
	want, err := db.Query("s", 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Query("s", 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("reopen lost samples: got %d, want 500", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs after crash+reopen: %v != %v", i, got[i], want[i])
		}
	}
}

// TestFlushDefersCutsSoWaitIsBounded covers the liveness side of the
// tail-stamp fix: while a Flush waits out a series' in-flight blocks,
// Appends must not cut new ones (they would make the wait chase a moving
// target, starving Flush under sustained ingest). Deferred samples ride
// along in the tail the flush persists; cutting resumes afterwards.
func TestFlushDefersCutsSoWaitIsBounded(t *testing.T) {
	opt := dbOptions()
	opt.Workers = 1 // real pool: Append takes the async-cut path
	db, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	xs := sensorData(1200, 11)
	if err := db.Append("s", xs[:500]...); err != nil { // < BlockSize: buffers
		t.Fatal(err)
	}
	pb := plantPendingBlock(t, db, "s", 400) // tail now 100

	flushed := make(chan error, 1)
	go func() { flushed <- db.Flush() }()
	sh := db.shardFor("s")
	waitFlushing := func() {
		for {
			sh.mu.RLock()
			f := sh.series["s"].flushing
			sh.mu.RUnlock()
			if f > 0 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFlushing()

	// Enough samples to cut a block — but the flush is mid-wait, so the
	// cut must be deferred, not added to the pending set.
	if err := db.Append("s", xs[500:]...); err != nil { // tail 100+700 >= 512
		t.Fatal(err)
	}
	sh.mu.RLock()
	npending := len(sh.series["s"].pending)
	sh.mu.RUnlock()
	if npending != 1 {
		t.Fatalf("Append cut a block mid-flush: %d pending, want only the planted 1", npending)
	}

	// Let the planted block land; Flush must now finish and persist the
	// whole (oversized) tail.
	meta, recon, err := db.buildBlock("s", pb.start, pb.raw)
	if err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	st := sh.series["s"]
	delete(st.pending, pb.start)
	st.insertBlock(meta)
	pb.recon = recon
	pb.raw = nil
	sh.mu.Unlock()
	close(pb.done)
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush did not finish after the in-flight block landed")
	}
	stats, err := db.SeriesStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if stats.TailLen != 0 || stats.Samples != 1200 {
		t.Fatalf("flush left tail %d / samples %d, want 0 / 1200", stats.TailLen, stats.Samples)
	}

	// Cutting resumes once the flush is done.
	sh.mu.RLock()
	flushing := st.flushing
	sh.mu.RUnlock()
	if flushing != 0 {
		t.Fatalf("flushing count %d after Flush, want 0", flushing)
	}
	if err := db.Append("s", sensorData(600, 12)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Query("s", 0, 1800); err != nil || len(got) != 1800 {
		t.Fatalf("after resume: len=%d err=%v", len(got), err)
	}
}

// TestQueryServesRepairedBlock covers the stale-error fix: a Query that
// snapshots a failed pending block, then loses the race with the Flush
// that repairs it, must serve the repaired durable block instead of the
// dead snapshot's error.
func TestQueryServesRepairedBlock(t *testing.T) {
	opt := dbOptions()
	opt.Workers = -1 // no pool: the test plays the worker deterministically
	db, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	xs := sensorData(500, 9)
	if err := db.Append("s", xs...); err != nil {
		t.Fatal(err)
	}
	// Leave fewer than minBlock (96) samples buffered so Flush keeps the
	// tail verbatim: the parked query's tail snapshot and the fresh
	// post-Flush query then agree exactly on the tail region too.
	pb := plantPendingBlock(t, db, "s", 420)

	// The query snapshots the pending block and parks on its done channel.
	type result struct {
		got []float64
		err error
	}
	res := make(chan result, 1)
	go func() {
		got, err := db.Query("s", 0, 500)
		res <- result{got, err}
	}()
	time.Sleep(100 * time.Millisecond)

	// Play the worker failing, then Flush repairing, before the parked
	// query gets to look at pb.err — the exact interleaving the old code
	// answered with the stale error.
	injected := errors.New("injected compression failure")
	sh := db.shardFor("s")
	sh.mu.Lock()
	pb.err = injected
	sh.mu.Unlock()
	db.noteFailure(injected)
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush should repair the failed block: %v", err)
	}
	close(pb.done)

	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("Query returned the stale pending error after repair: %v", r.err)
		}
		want, err := db.Query("s", 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.got) != len(want) {
			t.Fatalf("parked query returned %d samples, want %d", len(r.got), len(want))
		}
		for i := range want {
			if r.got[i] != want[i] {
				t.Fatalf("sample %d: parked query %v != fresh query %v", i, r.got[i], want[i])
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked query never returned")
	}
}

// TestAppendRejectsNonFinite covers the poison-pill fix: a NaN or ±Inf
// sample used to be buffered, fail its block in the compressor ("input
// contains non-finite values"), latch the store-wide first error, and from
// then on every Append to every series was refused and Flush failed
// forever. It is now refused at the boundary with ErrNonFinite, before
// anything is buffered, in every write mode; the series' earlier data
// stays queryable and every series — the offending one included — keeps
// appending and flushing. Lossless codecs store the bits and accept them.
func TestAppendRejectsNonFinite(t *testing.T) {
	modes := map[string]func(*Options){
		"async":     func(o *Options) { o.Workers = 2 },
		"inline":    func(o *Options) { o.Workers = -1 },
		"streaming": func(o *Options) { o.Workers = 2; o.Streaming = true },
	}
	for mode, set := range modes {
		t.Run(mode, func(t *testing.T) {
			opt := dbOptions()
			set(&opt)
			db, err := Open(t.TempDir(), opt)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			good := sensorData(700, 5) // one cut block and a tail
			if err := db.Append("a", good...); err != nil {
				t.Fatal(err)
			}
			if err := db.Append("b", good[:100]...); err != nil {
				t.Fatal(err)
			}
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				err := db.Append("a", 1, 2, bad, 4)
				if !errors.Is(err, ErrNonFinite) {
					t.Fatalf("Append with %v = %v, want ErrNonFinite", bad, err)
				}
			}
			// Nothing of the refused appends was buffered, and "a" still
			// serves what it held.
			got, err := db.Query("a", 0, 10000)
			if err != nil {
				t.Fatalf("Query(a) after the refused append: %v", err)
			}
			if len(got) != len(good) {
				t.Fatalf("a holds %d samples after the refused appends, want %d", len(got), len(good))
			}
			// Every series keeps appending, cutting blocks and flushing.
			for _, name := range []string{"a", "b", "c"} {
				if err := db.Append(name, good...); err != nil {
					t.Fatalf("Append(%s) after the refused append: %v", name, err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatalf("Flush after the refused append: %v", err)
			}
			for name, want := range map[string]int{"a": 1400, "b": 800, "c": 700} {
				if got, err := db.Query(name, 0, 10000); err != nil || len(got) != want {
					t.Fatalf("Query(%s) = %d samples, %v; want %d", name, len(got), err, want)
				}
			}
		})
	}

	t.Run("lossless", func(t *testing.T) {
		opt := dbOptions()
		opt.Codec = codec.Gorilla{}
		db, err := Open(t.TempDir(), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if !db.AcceptsNonFinite("a") {
			t.Fatal("a gorilla store claims to refuse non-finite samples")
		}
		in := sensorData(600, 6)
		in[3], in[300], in[599] = math.NaN(), math.Inf(1), math.Inf(-1)
		if err := db.Append("a", in...); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := db.Query("a", 0, len(in))
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if math.Float64bits(got[i]) != math.Float64bits(in[i]) {
				t.Fatalf("sample %d = %v, want %v bit-exactly", i, got[i], in[i])
			}
		}
	})
}
