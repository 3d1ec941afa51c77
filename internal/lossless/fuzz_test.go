package lossless

import (
	"math"
	"testing"
)

// FuzzGorillaDecode feeds arbitrary bytes to the Gorilla decoder with
// arbitrary claimed lengths: it must reject or decode, never panic.
func FuzzGorillaDecode(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add(Gorilla([]float64{1, 2, 3}).Data, 3)
	f.Add(Gorilla([]float64{0, 0, 0, 5}).Data, 4)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			return
		}
		out, err := (&Encoded{Method: "gorilla", N: n, Data: data}).Decompress()
		if err == nil && len(out) != n {
			t.Fatalf("decoded %d values, claimed %d", len(out), n)
		}
	})
}

// FuzzChimpDecode is the Chimp equivalent.
func FuzzChimpDecode(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add(Chimp([]float64{1, 2, 3}).Data, 3)
	f.Add(Chimp([]float64{math.Pi, math.Pi, -1}).Data, 3)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			return
		}
		out, err := (&Encoded{Method: "chimp", N: n, Data: data}).Decompress()
		if err == nil && len(out) != n {
			t.Fatalf("decoded %d values, claimed %d", len(out), n)
		}
	})
}

// FuzzElfDecode is the Elf equivalent: erased and unerased values mixed.
func FuzzElfDecode(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add(Elf([]float64{1, 2, 3}).Data, 3)
	f.Add(Elf([]float64{20.5, 21.25, math.Pi, math.NaN(), -0.001}).Data, 5)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			return
		}
		out, err := (&Encoded{Method: "elf", N: n, Data: data}).Decompress()
		if err == nil && len(out) != n {
			t.Fatalf("decoded %d values, claimed %d", len(out), n)
		}
	})
}

// FuzzGorillaRoundtrip checks the XOR encoder/decoder pairs (Gorilla,
// Chimp and Elf) over arbitrary float bit patterns.
func FuzzGorillaRoundtrip(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(math.MaxUint64))
	f.Add(math.Float64bits(1.5), math.Float64bits(-1.5), math.Float64bits(math.Inf(1)))
	f.Add(math.Float64bits(20.25), math.Float64bits(0.1), math.Float64bits(-3.7))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		xs := []float64{
			math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c),
			math.Float64frombits(a ^ b), math.Float64frombits(b ^ c),
		}
		for _, enc := range []*Encoded{Gorilla(xs), Chimp(xs), Elf(xs)} {
			out, err := enc.Decompress()
			if err != nil {
				t.Fatalf("%s failed: %v", enc.Method, err)
			}
			for i := range xs {
				if math.Float64bits(out[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("%s bit mismatch at %d", enc.Method, i)
				}
			}
		}
	})
}
