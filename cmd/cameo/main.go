// Command cameo compresses and decompresses CSV time series with the CAMEO
// algorithm or any other registered block codec.
//
// Compress a CSV column under an ACF bound and write the retained points:
//
//	cameo -in data.csv -out compressed.csv -lags 24 -eps 0.01
//
// Compress to a target ratio instead, preserving the PACF of hourly means:
//
//	cameo -in data.csv -out c.csv -lags 24 -ratio 10 -stat pacf -agg 60
//
// Decompress a previously produced file back to a dense series:
//
//	cameo -decompress -in compressed.csv -out restored.csv -n 86400
//
// Compressed CSV format: header "index,value", one row per retained point.
//
// With -codec the series is instead compressed through the named block
// codec (cameo, gorilla, chimp, elf, pmc, swing, simpiece) into a binary
// block file — the same self-describing format the embedded Store
// persists:
//
//	cameo -codec elf -in data.csv -out data.blk
//	cameo -decompress -in data.blk -out restored.csv
//
// Decompression detects block files automatically (the header names the
// codec), so -decompress needs no flags for them. Block files additionally
// support range and aggregate queries that exploit the codecs' random
// access instead of reconstructing the whole series:
//
//	cameo -decompress -in data.blk -out window.csv -from 1000 -to 2000
//	cameo -decompress -in data.blk -out daily.csv -step 24 -aggfn max
//
// -from/-to decode only the requested sample range (segment codecs and
// CAMEO evaluate just the pieces spanning it); -step N emits one -aggfn
// value (mean, sum, max, min) per N-sample window, computed for the
// segment codecs and CAMEO straight from the compressed form without
// materializing samples.
package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	cameo "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/series"
	"repro/internal/stats"
)

func main() {
	var (
		in         = flag.String("in", "", "input CSV path (required)")
		out        = flag.String("out", "", "output CSV path (required)")
		column     = flag.Int("col", 0, "input column (0-based)")
		lags       = flag.Int("lags", 24, "ACF/PACF lags to preserve")
		eps        = flag.Float64("eps", 0, "max statistic deviation (MAE)")
		ratio      = flag.Float64("ratio", 0, "target compression ratio (compression-centric mode)")
		stat       = flag.String("stat", "acf", "statistic to preserve: acf or pacf")
		agg        = flag.Int("agg", 0, "tumbling-window size for on-aggregates mode (0 = direct)")
		aggFn      = flag.String("aggfn", "mean", "aggregation function: mean, sum, max, min")
		hops       = flag.Int("hops", 0, "blocking neighbourhood: alive neighbours a side re-evaluated after a removal (0 = default 4, -1 = unlimited)")
		threads    = flag.Int("threads", 1, "fine-grained threads")
		partitions = flag.Int("partitions", 1, "coarse-grained partitions (requires -eps)")
		decomp     = flag.Bool("decompress", false, "decompress a compressed CSV or block file instead")
		n          = flag.Int("n", 0, "original length for -decompress")
		from       = flag.Int("from", 0, "with -decompress on a block file: first sample of the range to decode")
		to         = flag.Int("to", -1, "with -decompress on a block file: end (exclusive) of the range to decode (-1 = block end)")
		step       = flag.Int("step", 0, "with -decompress on a block file: emit one -aggfn value per step-sample window instead of raw samples (aggregate query mode)")
		codecName  = flag.String("codec", "", "compress through this block codec to a binary block file instead of CSV ("+strings.Join(cameo.CodecNames(), ", ")+")")
		verbose    = flag.Bool("v", true, "print a summary to stderr")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *decomp {
		if err := decompress(*in, *out, *n, *from, *to, *step, *aggFn, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	xs, err := datasets.LoadCSV(*in, *column)
	if err != nil {
		fatal(err)
	}
	opt := core.Options{
		Lags:        *lags,
		Epsilon:     *eps,
		TargetRatio: *ratio,
		Measure:     stats.MeasureMAE,
		AggWindow:   *agg,
		BlockHops:   *hops,
		Threads:     *threads,
	}
	switch *stat {
	case "acf":
		opt.Statistic = core.StatACF
	case "pacf":
		opt.Statistic = core.StatPACF
	default:
		fatal(fmt.Errorf("unknown statistic %q", *stat))
	}
	if opt.AggFunc, err = parseAggFunc(*aggFn); err != nil {
		fatal(err)
	}

	if *codecName != "" {
		if err := compressBlock(*codecName, xs, opt, *out, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	var res *core.Result
	if *partitions > 1 {
		res, err = core.CompressCoarse(xs, core.CoarseOptions{Options: opt, Partitions: *partitions})
	} else {
		res, err = core.Compress(xs, opt)
	}
	if err != nil {
		fatal(err)
	}
	if err := writeCompressed(*out, res.Compressed); err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "cameo: %d -> %d points (CR %.2fx), %s deviation %.3g\n",
			len(xs), res.Compressed.Len(), res.CompressionRatio(), *stat, res.Deviation)
	}
}

// compressBlock encodes the whole series as one self-describing binary
// block under the named codec. The cameo codec takes its options from the
// regular flags; every other codec uses its registry defaults.
func compressBlock(name string, xs []float64, opt core.Options, out string, verbose bool) error {
	var c cameo.Codec
	var err error
	if name == "cameo" {
		c = cameo.CodecCAMEO(opt)
	} else if c, err = cameo.CodecByName(name); err != nil {
		return fmt.Errorf("%w (have: %s)", err, strings.Join(cameo.CodecNames(), ", "))
	}
	data, err := cameo.EncodeBlock(c, xs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	if verbose {
		raw := 8 * len(xs)
		fmt.Fprintf(os.Stderr, "cameo: %d values -> %d bytes with codec %s (%.2fx vs raw float64, lossy=%v)\n",
			len(xs), len(data), c.Name(), float64(raw)/float64(len(data)), c.Lossy())
	}
	return nil
}

// writeCompressed stores the retained points as index,value rows.
func writeCompressed(path string, ir *series.Irregular) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"index", "value"}); err != nil {
		return err
	}
	for _, p := range ir.Points {
		rec := []string{strconv.Itoa(p.Index), strconv.FormatFloat(p.Value, 'g', -1, 64)}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// decompress reads a compressed input — a binary block file (detected by
// its header magic and decoded with the codec it names) or index,value CSV
// rows — and writes the dense reconstruction. Block files support range
// ([from, to)) and aggregate (-step windows of -aggfn) query modes that
// use the codec's random access instead of a full reconstruction.
func decompress(in, out string, n, from, to, step int, aggFn string, verbose bool) error {
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	if cameo.IsBlockFormat(data) {
		if step > 0 {
			return queryBlockAgg(data, out, from, to, step, aggFn, verbose)
		}
		var (
			xs  []float64
			hdr cameo.BlockHeader
		)
		if from > 0 || to >= 0 {
			hiEnd := to
			if hiEnd < 0 {
				hiEnd = math.MaxInt // -1: clamp to the block end
			}
			xs, hdr, err = cameo.DecodeBlockRange(data, from, hiEnd)
			if err == nil && len(xs) == 0 {
				err = fmt.Errorf("empty range [%d,%d) in a %d-sample block", from, min(hiEnd, hdr.N), hdr.N)
			}
		} else {
			xs, hdr, err = cameo.DecodeBlock(data)
		}
		if err != nil {
			return err
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "cameo: decoded %d values from block file (codec %s, format v%d)\n",
				len(xs), codecName(hdr.CodecID), hdr.Version)
		}
		return datasets.SaveCSV(out, "value", xs)
	}
	if from > 0 || to >= 0 || step > 0 {
		return fmt.Errorf("-from/-to/-step need a block-file input (CSV holds retained points, not blocks)")
	}
	r := csv.NewReader(bytes.NewReader(data))
	recs, err := r.ReadAll()
	if err != nil {
		return err
	}
	var pts []series.Point
	for i, rec := range recs {
		if len(rec) < 2 {
			return fmt.Errorf("row %d: need index,value", i+1)
		}
		idx, err := strconv.Atoi(rec[0])
		if err != nil {
			if i == 0 {
				continue // header
			}
			return fmt.Errorf("row %d: %w", i+1, err)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return fmt.Errorf("row %d: %w", i+1, err)
		}
		pts = append(pts, series.Point{Index: idx, Value: v})
	}
	if len(pts) == 0 {
		return fmt.Errorf("no points in %s", in)
	}
	if n == 0 {
		n = pts[len(pts)-1].Index + 1
	}
	ir, err := series.NewIrregular(n, pts)
	if err != nil {
		return err
	}
	return datasets.SaveCSV(out, "value", ir.Decompress())
}

// queryBlockAgg answers the -step aggregate query mode: one -aggfn value
// per step-sample window of [from, to), computed in one pass over the
// compressed payload via codec pushdown (segment codecs and CAMEO
// aggregate without materializing samples).
func queryBlockAgg(data []byte, out string, from, to, step int, aggFn string, verbose bool) error {
	f, err := parseAggFunc(aggFn)
	if err != nil {
		return err
	}
	if to < 0 {
		to = math.MaxInt // -1: clamp to the block end
	}
	aggs, h, err := cameo.DecodeBlockWindowAggs(data, from, to, step)
	if err != nil {
		return err
	}
	if len(aggs) == 0 {
		return fmt.Errorf("empty range [%d,%d) in a %d-sample block", max(from, 0), min(to, h.N), h.N)
	}
	vals := make([]float64, len(aggs))
	for i, agg := range aggs {
		vals[i] = agg.Eval(f)
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "cameo: aggregated samples [%d,%d) of a %d-sample block into %d %s windows of %d (codec %s)\n",
			max(from, 0), min(to, h.N), h.N, len(vals), aggFn, step, codecName(h.CodecID))
	}
	return datasets.SaveCSV(out, aggFn, vals)
}

// parseAggFunc maps the -aggfn flag to the shared aggregation enum.
func parseAggFunc(name string) (cameo.AggFunc, error) {
	switch name {
	case "mean":
		return series.AggMean, nil
	case "sum":
		return series.AggSum, nil
	case "max":
		return series.AggMax, nil
	case "min":
		return series.AggMin, nil
	}
	return 0, fmt.Errorf("unknown aggregation %q (want mean, sum, max, min)", name)
}

// codecName resolves a codec ID for log lines, falling back to the number.
func codecName(id uint8) string {
	if c, err := cameo.CodecByID(id); err == nil {
		return c.Name()
	}
	return fmt.Sprintf("id %d", id)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cameo:", err)
	os.Exit(1)
}
