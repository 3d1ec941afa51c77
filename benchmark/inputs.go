package main

import (
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// The store shape the server workloads use: cameod's defaults.
const (
	nSeries    = 16
	blockSize  = 4096 // -block default; serve-mixed runs at mixedBlock
	serverLags = 24
	serverEps  = 0.01
)

var serverCompression = core.Options{Lags: serverLags, Epsilon: serverEps}

func seriesName(i int) string { return fmt.Sprintf("s%02d", i) }

// checkFinite refuses a generated input with a non-finite sample: it would
// exercise a known open bug (ROADMAP item 4), not the benchmark's subject.
func checkFinite(replica string, xs []float64) error {
	for j, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("replica %s: non-finite sample at %d", replica, j)
		}
	}
	return nil
}

// genAll generates the first count series of a server workload at n
// samples each: series i is replica i mod 8 of the paper's datasets, seeded
// seed+i.
func genAll(seed int64, count, n int) ([][]float64, error) {
	all := make([][]float64, count)
	for i := range all {
		sp := datasets.Replicas()[i%8]
		all[i] = sp.GenerateN(n, seed+int64(i))
		if err := checkFinite(sp.Name, all[i]); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// renderBatch is the text form of POST /api/v1/write: one "series value"
// line per sample, floats in shortest round-trip form.
func renderBatch(name string, vals []float64) []byte {
	b := make([]byte, 0, len(vals)*(len(name)+20))
	for _, v := range vals {
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}

// renderBatches cuts each series into size-sample request bodies.
func renderBatches(data [][]float64, size int) [][][]byte {
	out := make([][][]byte, len(data))
	for i, xs := range data {
		for off := 0; off < len(xs); off += size {
			out[i] = append(out[i], renderBatch(seriesName(i), xs[off:min(off+size, len(xs))]))
		}
	}
	return out
}

// storeOptions mirrors the tsdb.Options cameod builds from its flags
// (-block as given, the rest default); workers < 0 compresses inline on
// the appending goroutine.
func storeOptions(workers, block int) tsdb.Options {
	return tsdb.Options{Compression: serverCompression, BlockSize: block, Workers: workers}
}

// preload writes the first n samples of every series into a fresh store at
// dir, in-process, and closes it: the state a server workload starts from.
func preload(dir string, data [][]float64, n, block int) error {
	db, err := tsdb.Open(dir, storeOptions(0, block))
	if err != nil {
		return err
	}
	for i, xs := range data {
		for off := 0; off < n; off += block {
			if err := db.Append(seriesName(i), xs[off:min(off+block, n)]...); err != nil {
				db.Close()
				return err
			}
		}
	}
	return db.Close()
}

// freshDir empties and recreates a run directory under benchmark/out.
func (e *env) freshDir(name string) (string, error) {
	dir := filepath.Join(e.outDir, fmt.Sprintf("run-%d", os.Getpid()), name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// cleanup removes this process's run directory (store data); span files
// stay in benchmark/out.
func (e *env) cleanup() {
	os.RemoveAll(filepath.Join(e.outDir, fmt.Sprintf("run-%d", os.Getpid())))
}

// blockRef is one durable block file of a series.
type blockRef struct {
	start, n int
	path     string
}

// listBlocks reads the store's documented on-disk layout from outside: one
// directory per series, one "<start>.blk" file per block, each with a
// self-describing header. The harness needs it to check the deviation
// bound block by block and to time the file reads a cold query pays.
func listBlocks(dir, name string) ([]blockRef, error) {
	paths, err := filepath.Glob(filepath.Join(dir, url.PathEscape(name), "*.blk"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	blocks := make([]blockRef, 0, len(paths))
	for _, p := range paths {
		start, err := strconv.Atoi(strings.TrimSuffix(filepath.Base(p), ".blk"))
		if err != nil {
			return nil, fmt.Errorf("unexpected block file %s", p)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		h, _, err := codec.ParseBlockHeader(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		blocks = append(blocks, blockRef{start, h.N, p})
	}
	return blocks, nil
}

// checkStore reopens a store that has been flushed and closed, and checks
// the contract on it against the generated input: every series holds
// exactly want[i] samples, every block's reconstruction keeps the ACF
// within eps of the input it was cut from, and samples past the last block
// (the verbatim tail) are bit-identical. Each check counts as attempted;
// it returns the largest deviation/eps seen and the store's reconstruction
// of every series.
func checkStore(res *Result, dir string, data [][]float64, want []int) (worst float64, recon [][]float64, err error) {
	db, err := tsdb.Open(dir, storeOptions(-1, blockSize))
	if err != nil {
		return 0, nil, err
	}
	defer db.Close()
	recon = make([][]float64, len(data))
	for i, xs := range data {
		name := seriesName(i)
		res.Attempted++
		got, err := db.Query(name, 0, want[i]+1)
		if err != nil || len(got) != want[i] {
			res.fail("%s: %d samples readable after restart, %d acked (%v)", name, len(got), want[i], err)
			continue
		}
		recon[i] = got
		blocks, err := listBlocks(dir, name)
		if err != nil {
			return 0, nil, err
		}
		end := 0
		for _, b := range blocks {
			res.Attempted++
			if b.start != end || b.start+b.n > want[i] {
				res.fail("%s: block [%d,%d) does not continue the run ending at %d of %d", name, b.start, b.start+b.n, end, want[i])
				break
			}
			end = b.start + b.n
			dev, err := core.Deviation(xs[b.start:end], series.FromDense(got[b.start:end]), serverCompression)
			if err != nil {
				return 0, nil, err
			}
			worst = math.Max(worst, dev/serverEps)
			if dev > serverEps*(1+1e-9) {
				res.fail("%s block [%d,%d): ACF deviation %g over eps %g", name, b.start, end, dev, serverEps)
			}
		}
		res.Attempted++
		for j := end; j < want[i]; j++ {
			if math.Float64bits(got[j]) != math.Float64bits(xs[j]) {
				res.fail("%s: tail sample %d read back as %v, wrote %v", name, j, got[j], xs[j])
				break
			}
		}
	}
	return worst, recon, nil
}
