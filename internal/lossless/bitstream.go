// Package lossless implements the XOR-based lossless floating-point codecs
// the paper benchmarks against in its bits-per-value analysis (Table 2):
// Gorilla [76] and Chimp [62], over a shared bitstream layer that CAMEO's
// block payloads (package series) are written in too.
package lossless

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortStream is returned when a reader runs out of bits mid-value.
var ErrShortStream = errors.New("lossless: bitstream exhausted")

// BitWriter accumulates bits most-significant-first into a byte buffer.
// Pending bits collect in a 64-bit register that is appended whole, so a
// write costs a shift and an or, not a loop over its bits.
type BitWriter struct {
	buf  []byte
	acc  uint64 // pending bits, right-aligned
	nacc uint   // number of pending bits in acc (< 64)
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// WriteBit appends a single bit.
func (w *BitWriter) WriteBit(b uint64) { w.WriteBits(b, 1) }

// WriteBits appends the low nbits of v, most significant first. Widths
// beyond 64 write the excess as leading zeros.
func (w *BitWriter) WriteBits(v uint64, nbits uint) {
	for ; nbits > 64; nbits-- {
		w.WriteBits(0, 1)
	}
	v &= 1<<nbits - 1 // all ones at nbits == 64: the shift yields 0
	free := 64 - w.nacc
	if nbits < free {
		w.acc = w.acc<<nbits | v
		w.nacc += nbits
		return
	}
	// Fill the register to 64 bits and append it; the rest of v stays.
	rest := nbits - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc = v & (1<<rest - 1)
	w.nacc = rest
}

// Bits returns the number of bits written so far.
func (w *BitWriter) Bits() int { return len(w.buf)*8 + int(w.nacc) }

// Bytes flushes the partial byte (zero-padded) and returns the buffer. The
// writer remains usable; subsequent writes continue from the unpadded state.
func (w *BitWriter) Bytes() []byte {
	out := make([]byte, len(w.buf), len(w.buf)+8)
	copy(out, w.buf)
	out = binary.BigEndian.AppendUint64(out, w.acc<<(64-w.nacc))
	return out[:len(w.buf)+int(w.nacc+7)/8]
}

// BitReader consumes bits most-significant-first from a byte buffer. Up to
// 64 unread bits sit left-aligned in a register, refilled eight bytes at a
// time, so a read is a shift and a mask.
type BitReader struct {
	data []byte
	buf  uint64 // unread bits, left-aligned; the bits below them are zero
	n    uint   // number of unread bits in buf
	off  int    // bit offset in data just past the bits loaded into buf
}

// NewBitReader wraps data.
func NewBitReader(data []byte) *BitReader { return &BitReader{data: data} }

// NewBitReaderAt wraps data with the cursor positioned at an absolute bit
// offset, as recorded by a checkpoint mark. Offsets at or beyond the end of
// data are legal: the first read reports ErrShortStream rather than
// panicking, which is the failure mode wanted for corrupt sidecars.
func NewBitReaderAt(data []byte, bit int) *BitReader {
	r := &BitReader{data: data, off: bit}
	if i := bit >> 3; i < len(data) {
		// Load the rest of the byte the offset lands in, so the register
		// stays byte-aligned against data from here on.
		skip := uint(bit & 7)
		r.buf = uint64(data[i]) << (56 + skip)
		r.n = 8 - skip
		r.off = (i + 1) * 8
	}
	return r
}

// BitPos returns the absolute bit offset of the next unread bit.
func (r *BitReader) BitPos() int { return r.off - int(r.n) }

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint64, error) {
	if r.n == 0 {
		return r.ReadBits(1)
	}
	b := r.buf >> 63
	r.buf <<= 1
	r.n--
	return b, nil
}

// ReadBits returns the next nbits as the low bits of a uint64.
func (r *BitReader) ReadBits(nbits uint) (uint64, error) {
	if nbits > r.n {
		return r.readSlow(nbits)
	}
	v := r.buf >> (64 - nbits) // 0 at nbits == 0: the shift yields 0
	r.buf <<= nbits
	r.n -= nbits
	return v, nil
}

// readSlow serves a read the register cannot: it takes what is left,
// refills, and takes the remainder. A short stream is consumed to its end
// before ErrShortStream, as a bit-at-a-time reader would leave it.
func (r *BitReader) readSlow(nbits uint) (uint64, error) {
	if nbits > 64 {
		return 0, fmt.Errorf("lossless: cannot read %d bits at once", nbits)
	}
	have := r.n
	v := r.buf >> (64 - have)
	need := nbits - have
	r.buf, r.n = 0, 0
	r.refill()
	if need > r.n {
		r.buf, r.n = 0, 0
		return 0, ErrShortStream
	}
	v = v<<need | r.buf>>(64-need)
	r.buf <<= need
	r.n -= need
	return v, nil
}

// refill loads an empty register: eight bytes at once where the data has
// them, byte by byte at the tail.
func (r *BitReader) refill() {
	i := r.off >> 3 // byte-aligned whenever i < len(data)
	if i+8 <= len(r.data) {
		r.buf = binary.BigEndian.Uint64(r.data[i:])
		r.n = 64
		r.off += 64
		return
	}
	for ; i < len(r.data); i++ {
		r.buf |= uint64(r.data[i]) << (56 - r.n)
		r.n += 8
		r.off += 8
	}
}

// Encoded is a compressed representation of a float64 series.
type Encoded struct {
	// Method is "gorilla" or "chimp".
	Method string
	// N is the number of encoded values.
	N int
	// Bits is the exact number of payload bits (excludes byte padding);
	// this is what the paper's Bits/value metric divides by N.
	Bits int
	// Data is the padded byte stream.
	Data []byte
}

// BitsPerValue returns Bits / N (paper §5.1: Bits/v = Bits(X') / |X|).
func (e *Encoded) BitsPerValue() float64 {
	if e.N == 0 {
		return 0
	}
	return float64(e.Bits) / float64(e.N)
}

// Decompress decodes the stream back to the original values.
func (e *Encoded) Decompress() ([]float64, error) {
	switch e.Method {
	case "gorilla":
		return gorillaDecode(e.Data, e.N)
	case "chimp":
		return chimpDecode(e.Data, e.N)
	case "elf":
		return elfDecode(e.Data, e.N)
	default:
		return nil, fmt.Errorf("lossless: unknown method %q", e.Method)
	}
}
