package codec

import (
	"math"
	"testing"

	"repro/internal/core"
)

// fuzzSeed produces a few valid encodings so the fuzzers start from
// structurally interesting corpora.
func fuzzSeed(f *testing.F, c Codec) {
	f.Helper()
	for _, xs := range [][]float64{
		nil,
		{1.5},
		{1, 1, 1, 1, 1},
		{20.5, 21.25, 19.75, 20.0, 22.5, 18.25, 20.5, 21.0},
	} {
		if data, err := EncodeBlock(c, xs); err == nil {
			f.Add(data)
		}
	}
}

// FuzzParseBlockHeader asserts header parsing never panics and that a
// parse-accepted header keeps its promises: sane N and sidecar length, the
// header fields themselves inside the buffer (ParseBlockHeader is prefix-
// tolerant, so a version-2 offset may point past a buffer that lacks the
// claimed sidecar — SplitBlock must then refuse instead of slicing wild).
func FuzzParseBlockHeader(f *testing.F) {
	fuzzSeed(f, Gorilla{})
	fuzzSeed(f, Gorilla{Interval: 2}) // sidecar-bearing version-2 seeds
	f.Add([]byte{blockMagic0, blockMagic1, 1, 1, 0x80})
	f.Add([]byte{blockMagic0, blockMagic1, 2, 2, 0x08, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, off, err := ParseBlockHeader(data)
		if err != nil {
			return
		}
		if h.N < 0 || h.N > MaxBlockSamples {
			t.Fatalf("accepted absurd N %d", h.N)
		}
		if h.SidecarLen < 0 || h.SidecarLen > MaxSidecarBytes {
			t.Fatalf("accepted absurd sidecar length %d", h.SidecarLen)
		}
		if off < 5 || off-h.SidecarLen > len(data) {
			t.Fatalf("header end %d outside data of %d bytes", off-h.SidecarLen, len(data))
		}
		sh, sidecar, payload, err := SplitBlock(data)
		if err != nil {
			if off <= len(data) {
				t.Fatalf("SplitBlock refused a fully present block: %v", err)
			}
			return
		}
		if sh != h || len(sidecar) != h.SidecarLen || len(payload) != len(data)-off {
			t.Fatalf("SplitBlock %+v (%d sidecar, %d payload) disagrees with ParseBlockHeader %+v (off %d)",
				sh, len(sidecar), len(payload), h, off)
		}
	})
}

// FuzzDecodeBlock asserts the full header+registry+payload decode path
// never panics on arbitrary bytes, and that success implies the promised
// sample count.
func FuzzDecodeBlock(f *testing.F) {
	for _, c := range []Codec{Gorilla{}, Chimp{}, Elf{}, PMC{}, Swing{}, SimPiece{}} {
		fuzzSeed(f, c)
	}
	if data, err := EncodeBlock(NewCAMEO(testOptions()), seedSeries()); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, h, err := DecodeBlock(data)
		if err != nil {
			return
		}
		if len(xs) != h.N {
			t.Fatalf("decoded %d samples, header says %d", len(xs), h.N)
		}
	})
}

// FuzzCodecDecodersDirect drives every registered codec's Decode with
// arbitrary payloads and sample counts: malformed input must error, never
// panic or over-allocate into an OOM. The corpus starts from one valid
// payload per registered codec.
func FuzzCodecDecodersDirect(f *testing.F) {
	xs := seedSeries()
	for _, c := range Registered() {
		enc := c
		if c.ID() == IDCAMEO {
			enc = NewCAMEO(testOptions()) // the registered instance decodes but cannot encode
		}
		payload, err := enc.Encode(xs)
		if err != nil {
			f.Fatalf("%s: encoding the seed: %v", c.Name(), err)
		}
		if _, err := c.Decode(payload, len(xs)); err != nil {
			f.Fatalf("%s: decoding the seed: %v", c.Name(), err)
		}
		f.Add(payload, uint16(len(xs)), c.ID())
	}
	f.Fuzz(func(t *testing.T, payload []byte, n uint16, id uint8) {
		c, err := ByID(id)
		if err != nil {
			return
		}
		xs, err := c.Decode(payload, int(n))
		if err == nil && len(xs) != int(n) {
			t.Fatalf("%s: decoded %d samples, promised %d", c.Name(), len(xs), n)
		}
	})
}

func testOptions() core.Options {
	return core.Options{Lags: 8, Epsilon: 0.1}
}

func seedSeries() []float64 {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 10 + 3*math.Sin(float64(i)/5)
	}
	return xs
}
