package lossless

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refBitWriter and refBitReader are the original bit-at-a-time stream,
// kept as the reference the word-buffered BitWriter and BitReader must
// match bit for bit: same bytes, same values, same positions, and the same
// error at every truncation point.
type refBitWriter struct {
	buf  []byte
	cur  byte
	free uint // free bits remaining in cur (8 = empty)
	bits int  // total bits written
}

func newRefBitWriter() *refBitWriter { return &refBitWriter{free: 8} }

func (w *refBitWriter) WriteBit(b uint64) {
	w.cur <<= 1
	w.cur |= byte(b & 1)
	w.free--
	w.bits++
	if w.free == 0 {
		w.buf = append(w.buf, w.cur)
		w.cur = 0
		w.free = 8
	}
}

func (w *refBitWriter) WriteBits(v uint64, nbits uint) {
	for i := int(nbits) - 1; i >= 0; i-- {
		w.WriteBit(v >> uint(i))
	}
}

func (w *refBitWriter) Bits() int { return w.bits }

func (w *refBitWriter) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	if w.free < 8 {
		out = append(out, w.cur<<w.free)
	}
	return out
}

type refBitReader struct {
	data []byte
	pos  int  // byte position
	left uint // unread bits in data[pos] (8 = all)
}

func newRefBitReaderAt(data []byte, bit int) *refBitReader {
	return &refBitReader{data: data, pos: bit >> 3, left: 8 - uint(bit&7)}
}

func (r *refBitReader) BitPos() int { return r.pos*8 + int(8-r.left) }

func (r *refBitReader) ReadBit() (uint64, error) {
	if r.pos >= len(r.data) {
		return 0, ErrShortStream
	}
	r.left--
	b := uint64(r.data[r.pos]>>r.left) & 1
	if r.left == 0 {
		r.pos++
		r.left = 8
	}
	return b, nil
}

func (r *refBitReader) ReadBits(nbits uint) (uint64, error) {
	if nbits > 64 {
		return 0, fmt.Errorf("lossless: cannot read %d bits at once", nbits)
	}
	var v uint64
	for i := uint(0); i < nbits; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// bitOp is one step of a differential run: a write (or read) of width
// bits carrying v, or — with snapshot set — a mid-stream Bytes() call.
type bitOp struct {
	width    uint
	v        uint64
	snapshot bool
}

// edgeWidths are the widths around the register boundaries: a read or
// write that exactly fills, or just overflows, the 64-bit register.
var edgeWidths = []uint{0, 1, 7, 8, 9, 56, 57, 63, 64}

// opsFromBytes decodes a fuzz input into an op sequence: per op one
// control byte (width, or a snapshot) and eight value bytes.
func opsFromBytes(data []byte) []bitOp {
	var ops []bitOp
	for len(data) > 0 && len(ops) < 64 {
		c := data[0]
		data = data[1:]
		if c == 0xFF {
			ops = append(ops, bitOp{snapshot: true})
			continue
		}
		var raw [8]byte
		n := copy(raw[:], data)
		data = data[n:]
		w := uint(c) % 66 // 65 is the over-wide read the reader must refuse
		if c >= 198 {
			w = edgeWidths[int(c)%len(edgeWidths)]
		}
		ops = append(ops, bitOp{width: w, v: binary.LittleEndian.Uint64(raw[:])})
	}
	return ops
}

// randomOps draws an op sequence with widths 0-65 (65 only as a read the
// reader must refuse), weighted toward the register-boundary widths, and
// occasional mid-stream snapshots.
func randomOps(rng *rand.Rand, n int) []bitOp {
	ops := make([]bitOp, n)
	for i := range ops {
		switch k := rng.Intn(10); {
		case k == 0:
			ops[i] = bitOp{snapshot: true}
		case k < 4:
			ops[i] = bitOp{width: edgeWidths[rng.Intn(len(edgeWidths))], v: rng.Uint64()}
		default:
			ops[i] = bitOp{width: uint(rng.Intn(66)), v: rng.Uint64()}
		}
	}
	return ops
}

// checkBitStream runs ops through both writers, comparing after every op,
// then replays the widths through both readers from every bit offset
// (including past the end) and over every truncation of the stream.
func checkBitStream(t *testing.T, ops []bitOp) {
	t.Helper()
	w, ref := NewBitWriter(), newRefBitWriter()
	var widths []uint
	for i, op := range ops {
		if op.snapshot {
			if got, want := w.Bytes(), ref.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("op %d: mid-stream Bytes() = %x, want %x", i, got, want)
			}
			continue
		}
		if op.width > 64 {
			continue // writers have no width limit; only reads refuse 65
		}
		w.WriteBits(op.v, op.width)
		ref.WriteBits(op.v, op.width)
		widths = append(widths, op.width)
		if w.Bits() != ref.Bits() {
			t.Fatalf("op %d (width %d): Bits() = %d, want %d", i, op.width, w.Bits(), ref.Bits())
		}
	}
	data, want := w.Bytes(), ref.Bytes()
	if !bytes.Equal(data, want) {
		t.Fatalf("final Bytes() = %x, want %x", data, want)
	}

	// Reads use the write widths, with every op's width (65 included) mixed
	// in at an offset so reads straddle the written value boundaries.
	var reads []uint
	for i, op := range ops {
		if !op.snapshot {
			reads = append(reads, op.width)
		}
		if i < len(widths) {
			reads = append(reads, widths[i])
		}
	}
	const maxReads = 64
	if len(reads) > maxReads {
		reads = reads[:maxReads]
	}
	for bit := 0; bit <= len(data)*8+17; bit++ {
		compareReaders(t, "reader at bit offset", bit, NewBitReaderAt(data, bit), newRefBitReaderAt(data, bit), reads)
	}
	for k := 0; k <= len(data); k++ {
		compareReaders(t, "stream truncated to bytes", k, NewBitReader(data[:k]), newRefBitReaderAt(data[:k], 0), widths)
	}
}

// compareReaders reads widths through both readers (width 1 alternately
// through ReadBit), asserting equal values, errors and positions after
// every read. Reading continues past the first error: an exhausted reader
// must stay exhausted at the same position.
func compareReaders(t *testing.T, where string, at int, r *BitReader, ref *refBitReader, widths []uint) {
	t.Helper()
	if r.BitPos() != ref.BitPos() {
		t.Fatalf("%s %d: initial BitPos = %d, want %d", where, at, r.BitPos(), ref.BitPos())
	}
	for i, width := range widths {
		var got, want uint64
		var gotErr, wantErr error
		if width == 1 && i%2 == 0 {
			got, gotErr = r.ReadBit()
			want, wantErr = ref.ReadBit()
		} else {
			got, gotErr = r.ReadBits(width)
			want, wantErr = ref.ReadBits(width)
		}
		sameErr := gotErr == wantErr || gotErr != nil && wantErr != nil &&
			wantErr != ErrShortStream && gotErr.Error() == wantErr.Error()
		if !sameErr || got != want || r.BitPos() != ref.BitPos() {
			t.Fatalf("%s %d, read %d (width %d): got (%#x, %v) at bit %d, want (%#x, %v) at bit %d",
				where, at, i, width, got, gotErr, r.BitPos(), want, wantErr, ref.BitPos())
		}
	}
}

// TestBitStreamMatchesReference pins the word-buffered stream against the
// bit-at-a-time reference over random op sequences.
func TestBitStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 300; seq++ {
		checkBitStream(t, randomOps(rng, 1+rng.Intn(24)))
	}
	// Long runs of each edge width cross many register refills.
	for _, w := range edgeWidths {
		ops := make([]bitOp, 40)
		for i := range ops {
			ops[i] = bitOp{width: w, v: rng.Uint64()}
		}
		checkBitStream(t, ops)
	}
}

// FuzzBitStream is the differential above over fuzzer-chosen op
// sequences: any divergence in bytes, values, positions or errors from
// the bit-at-a-time reference fails.
func FuzzBitStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 0xFF, 3, 0xFF})
	f.Add([]byte{57, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 63, 1, 0, 0, 0, 0, 0, 0, 0x80, 65})
	var seed []byte
	for _, w := range edgeWidths {
		seed = append(seed, byte(w), 0xA5, 0x5A, 0xC3, 0x3C, 0x99, 0x66, 0x0F, 0xF0, 0xFF)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBitStream(t, opsFromBytes(data))
	})
}
