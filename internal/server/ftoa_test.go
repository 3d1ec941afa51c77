package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// checkShortest fails unless appendShortest renders v exactly as
// strconv's shortest 'g' form, the oracle the formatter must match byte
// for byte.
func checkShortest(t testing.TB, v float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, v, 'g', -1, 64)
	if got := appendShortest(nil, v); string(got) != string(want) {
		t.Fatalf("appendShortest(%x) = %q, want %q", math.Float64bits(v), got, want)
	}
}

// shortestEdgeValues are the inputs where a shortest-form formatter goes
// wrong first: layout thresholds, extremes, signed zero and non-finites.
var shortestEdgeValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	0x1p-1022, math.Nextafter(0x1p-1022, 0), 1, -1, 0.1, 0.3, 1.0 / 3,
	1e-5, 1e-4, 9.9999e-5, 0.00012345, 123456, 999999, 999999.5, 1e6, 1234567,
	1e21, 1e22, 1e23, 9007199254740991, 9007199254740992, 9007199254740993, 1 << 60,
	5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
}

func TestAppendShortestEdgeValues(t *testing.T) {
	for _, v := range shortestEdgeValues {
		checkShortest(t, v)
		checkShortest(t, -v)
	}
	// Appends after existing bytes, like every response line does.
	if got := string(appendShortest([]byte(`[1,`), 2.5)); got != `[1,2.5` {
		t.Fatalf("append to a prefix = %q", got)
	}
}

// TestAppendShortestMatchesStrconv is the differential against strconv
// over the input families where Schubfach's branches and the layout
// rules split.
func TestAppendShortestMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	// Random bit patterns: every exponent, both signs, NaN payloads.
	for range n {
		checkShortest(t, math.Float64frombits(rng.Uint64()))
	}
	// Powers of two and ten, each with its ±1 ulp neighbours. Powers of
	// two are the mantissa-0 values whose lower boundary is closer.
	near := func(v float64) {
		checkShortest(t, v)
		checkShortest(t, math.Nextafter(v, 0))
		checkShortest(t, math.Nextafter(v, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		near(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		near(math.Pow(10, float64(e)))
		near(parseOrDie(t, "1e"+strconv.Itoa(e)))
	}
	// Every exponent field with a zero mantissa, and with a few random ones.
	for be := uint64(0); be < 0x7ff; be++ {
		checkShortest(t, math.Float64frombits(be<<52))
		for range 8 {
			checkShortest(t, math.Float64frombits(be<<52|rng.Uint64()>>12))
		}
	}
	// Subnormals: the smallest ones, where the digit count collapses, and
	// random ones.
	for i := uint64(1); i <= 100_000; i++ {
		checkShortest(t, math.Float64frombits(i))
	}
	for range n / 10 {
		checkShortest(t, math.Float64frombits(rng.Uint64()>>12))
	}
	// Integers up to 2^54: the exact-integer shortcut below 2^53, and its
	// edge, where odd integers stop being representable.
	for i := int64(0); i < 100_000; i++ {
		checkShortest(t, float64(i))
	}
	for range n / 10 {
		checkShortest(t, float64(rng.Int63n(1<<54)))
	}
	for i := int64(-1000); i <= 1000; i++ {
		checkShortest(t, float64(1<<53+i))
		checkShortest(t, float64(1<<54+i))
	}
	// Short decimals, the typical sensor reading: d·10^e with few digits
	// lands far from its float, so the shorter-candidate branch decides.
	for range n / 10 {
		d := rng.Int63n(1_000_000)
		checkShortest(t, parseOrDie(t, strconv.FormatInt(d, 10)+"e"+strconv.Itoa(rng.Intn(40)-20)))
	}
	// Layout boundaries, approached from both sides.
	for _, v := range []float64{1e-5, 1e-4, 123456, 999999.5, 1e6, 1e21} {
		for i, x := 0, v; i < 50; i++ {
			near(x)
			x = math.Nextafter(x, 0)
		}
	}
}

func parseOrDie(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPow10Table checks the table build: each entry is 10^e rounded up
// to 128 bits with its top bit set, which the exponent helpers' closed
// forms must agree with at every exponent a float64 reaches.
func TestPow10Table(t *testing.T) {
	for e := minPow10Exp; e <= maxPow10Exp; e++ {
		g := pow10Sig[e-minPow10Exp]
		if g[0]>>63 != 1 {
			t.Fatalf("10^%d: significand %x%016x is not normalized", e, g[0], g[1])
		}
		// ⌊log2 10^e⌋ exactly: 10^|e| is a power of two only for e = 0.
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		want := p.BitLen() - 1
		if e < 0 {
			want = -p.BitLen()
		}
		if got := floorLog2Pow10(e); got != want {
			t.Fatalf("floorLog2Pow10(%d) = %d, want %d", e, got, want)
		}
	}
	for q := -1074; q <= 971; q++ {
		k := floorLog10Pow2(q)
		if k < -maxPow10Exp || k > -minPow10Exp {
			t.Fatalf("floorLog10Pow2(%d) = %d outside the table", q, k)
		}
		if want := int(math.Floor(float64(q) * math.Log10(2))); q != 0 && k != want {
			t.Fatalf("floorLog10Pow2(%d) = %d, want %d", q, k, want)
		}
	}
}

// TestDigits8 pins the lane arithmetic to zero-padded strconv output over
// every value below 10^6 and random values across the rest.
func TestDigits8(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var got [8]byte
	check := func(x uint32) {
		binary.LittleEndian.PutUint64(got[:], digits8(x)|zeros8)
		want := strconv.AppendUint([]byte("0000000"), uint64(x), 10)
		if w := want[len(want)-8:]; string(got[:]) != string(w) {
			t.Fatalf("digits8(%d) = %q, want %q", x, got, w)
		}
	}
	for x := uint32(0); x < 1_000_000; x++ {
		check(x)
	}
	for range 1_000_000 {
		check(uint32(rng.Int63n(1e8)))
	}
	check(1e8 - 1)
}

// FuzzAppendShortest pins appendShortest to strconv on arbitrary bit
// patterns.
func FuzzAppendShortest(f *testing.F) {
	for _, v := range shortestEdgeValues {
		f.Add(math.Float64bits(v))
	}
	f.Add(uint64(1))
	f.Add(uint64(0x7fefffffffffffff))
	f.Fuzz(func(t *testing.T, u uint64) {
		checkShortest(t, math.Float64frombits(u))
	})
}

var sinkBytes []byte

// BenchmarkFormatChunk renders one 512-sample response chunk of
// interpolated values (17 significant digits) and of short sensor
// readings, with the formatter and with strconv.
func BenchmarkFormatChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	long := make([]float64, 512)
	short := make([]float64, 512)
	for i := range long {
		long[i] = 10 + 5*math.Sin(float64(i)/24) + rng.NormFloat64()
		short[i] = math.Round(long[i]*100) / 100
	}
	for _, data := range []struct {
		name string
		xs   []float64
	}{{"interpolated", long}, {"readings", short}} {
		b.Run(data.name+"/shortest", func(b *testing.B) {
			buf := make([]byte, 0, 16<<10)
			for b.Loop() {
				buf = buf[:0]
				for _, v := range data.xs {
					buf = appendShortest(buf, v)
					buf = append(buf, ',')
				}
			}
			sinkBytes = buf
		})
		b.Run(data.name+"/strconv", func(b *testing.B) {
			buf := make([]byte, 0, 16<<10)
			for b.Loop() {
				buf = buf[:0]
				for _, v := range data.xs {
					buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
					buf = append(buf, ',')
				}
			}
			sinkBytes = buf
		})
	}
}
