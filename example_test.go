package cameo_test

import (
	"fmt"
	"math"

	cameo "repro"
)

// sine480 is a deterministic noiseless daily cycle used by the examples.
func sine480() []float64 {
	xs := make([]float64, 480)
	for i := range xs {
		xs[i] = 20 + 8*math.Sin(2*math.Pi*float64(i)/24)
	}
	return xs
}

// The basic workflow: bound the ACF deviation, maximize compression.
func ExampleCompress() {
	res, err := cameo.Compress(sine480(), cameo.Options{Lags: 24, Epsilon: 0.01})
	if err != nil {
		panic(err)
	}
	fmt.Printf("retained %d of 480 points, deviation under bound: %v\n",
		res.Compressed.Len(), res.Deviation <= 0.01)
	// Output: retained 75 of 480 points, deviation under bound: true
}

// Compression-centric mode (Definition 3): hit a ratio, observe the
// deviation.
func ExampleCompress_targetRatio() {
	res, err := cameo.Compress(sine480(), cameo.Options{Lags: 24, TargetRatio: 10})
	if err != nil {
		panic(err)
	}
	fmt.Printf("CR %.0fx with %d points\n", res.CompressionRatio(), res.Compressed.Len())
	// Output: CR 10x with 48 points
}

// Preserving the ACF of hourly means of minutely data (Definition 2).
func ExampleCompress_onAggregates() {
	minutely := make([]float64, 4*1440) // four days, 1-minute samples
	for i := range minutely {
		minutely[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/1440)
	}
	res, err := cameo.Compress(minutely, cameo.Options{
		Lags: 24, Epsilon: 0.01, AggWindow: 60, AggFunc: cameo.AggMean,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("bounded the hourly ACF: %v\n", res.Deviation <= 0.01)
	// Output: bounded the hourly ACF: true
}

// Verifying a result's guarantee independently.
func ExampleDeviation() {
	xs := sine480()
	opt := cameo.Options{Lags: 24, Epsilon: 0.02}
	res, _ := cameo.Compress(xs, opt)
	dev, err := cameo.Deviation(xs, res.Compressed, opt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("re-verified: %v\n", dev <= 0.02)
	// Output: re-verified: true
}

// Reconstructing the dense series from the retained points.
func ExampleIrregular_Decompress() {
	xs := sine480()
	res, _ := cameo.Compress(xs, cameo.Options{Lags: 24, Epsilon: 0.01})
	recon := res.Compressed.Decompress()
	fmt.Printf("lengths match: %v; endpoints exact: %v\n",
		len(recon) == len(xs), recon[0] == xs[0] && recon[479] == xs[479])
	// Output: lengths match: true; endpoints exact: true
}

// Round-tripping the compact binary encoding.
func ExampleDecodeIrregular() {
	res, _ := cameo.Compress(sine480(), cameo.Options{Lags: 24, Epsilon: 0.01})
	data := res.Compressed.Encode()
	back, err := cameo.DecodeIrregular(data)
	if err != nil {
		panic(err)
	}
	fmt.Printf("points preserved: %v\n", back.Len() == res.Compressed.Len())
	// Output: points preserved: true
}

// Computing the statistic CAMEO preserves.
func ExampleACF() {
	acf := cameo.ACF(sine480(), 24)
	fmt.Printf("lag-24 autocorrelation of a daily cycle: %.2f\n", acf[23])
	// Output: lag-24 autocorrelation of a daily cycle: 1.00
}
