package series

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/lossless"
)

// Binary encoding of an Irregular series: a practical storage format that
// beats the paper's 64-bits-per-retained-point accounting by delta-encoding
// indices as uvarints and XOR-compressing values Gorilla-style.
//
// Layout:
//
//	magic "CAM1" | uvarint N | uvarint P (point count)
//	P x uvarint index deltas (first delta from -1)
//	XOR-compressed values (first raw, then per-value control bits)

// encodeMagic identifies the format version.
var encodeMagic = [4]byte{'C', 'A', 'M', '1'}

// ErrBadEncoding is returned when decoding malformed bytes.
var ErrBadEncoding = errors.New("series: malformed encoding")

// Encode serializes the irregular series compactly.
func (ir *Irregular) Encode() []byte {
	buf := make([]byte, 0, 16+len(ir.Points)*6)
	buf = append(buf, encodeMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(ir.N))
	buf = binary.AppendUvarint(buf, uint64(len(ir.Points)))
	prev := -1
	for _, p := range ir.Points {
		buf = binary.AppendUvarint(buf, uint64(p.Index-prev))
		prev = p.Index
	}
	buf = append(buf, encodeValues(ir.Points)...)
	return buf
}

// encodeValues XOR-compresses the point values (the Gorilla scheme, over
// the bit stream package lossless shares with its XOR codecs).
func encodeValues(pts []Point) []byte {
	w := lossless.NewBitWriter()
	var prev uint64
	prevLead, prevTrail := -1, -1
	for i, p := range pts {
		cur := math.Float64bits(p.Value)
		if i == 0 {
			w.WriteBits(cur, 64)
			prev = cur
			continue
		}
		xor := prev ^ cur
		prev = cur
		if xor == 0 {
			w.WriteBit(0)
			continue
		}
		w.WriteBit(1)
		lead := bits.LeadingZeros64(xor)
		trail := bits.TrailingZeros64(xor)
		if lead > 31 {
			lead = 31
		}
		if prevLead >= 0 && lead >= prevLead && trail >= prevTrail {
			w.WriteBit(0)
			w.WriteBits(xor>>uint(prevTrail), uint(64-prevLead-prevTrail))
		} else {
			w.WriteBit(1)
			sig := 64 - lead - trail
			w.WriteBits(uint64(lead), 5)
			w.WriteBits(uint64(sig-1), 6)
			w.WriteBits(xor>>uint(trail), uint(sig))
			prevLead, prevTrail = lead, trail
		}
	}
	return w.Bytes()
}

// HeaderLen is the maximum encoded header size: the magic plus two
// uvarints. Reading this many bytes of an Encode result is always enough
// for DecodeHeader.
const HeaderLen = 4 + 2*binary.MaxVarintLen64

// decodeHeader parses the magic and the two header uvarints, returning the
// dense length, the point count, and the remaining bytes.
func decodeHeader(data []byte) (n, cnt uint64, rest []byte, err error) {
	if len(data) < 6 || data[0] != 'C' || data[1] != 'A' || data[2] != 'M' || data[3] != '1' {
		return 0, 0, nil, ErrBadEncoding
	}
	rest = data[4:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, 0, nil, ErrBadEncoding
	}
	rest = rest[k:]
	cnt, k = binary.Uvarint(rest)
	if k <= 0 {
		return 0, 0, nil, ErrBadEncoding
	}
	rest = rest[k:]
	if cnt > n+1 || n > math.MaxInt32 {
		return 0, 0, nil, fmt.Errorf("series: implausible header (n=%d, points=%d): %w", n, cnt, ErrBadEncoding)
	}
	return n, cnt, rest, nil
}

// DecodeHeader returns the dense length N of an Encode result from its
// header alone — the first HeaderLen bytes suffice — without decoding
// points. Storage layers use it to index blocks in O(1) per block.
func DecodeHeader(data []byte) (int, error) {
	n, _, _, err := decodeHeader(data)
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// DecodeIrregular parses bytes produced by Encode. Indices and values are
// decoded straight into the one point slice the result holds.
func DecodeIrregular(data []byte) (*Irregular, error) {
	n, cnt, rest, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	// Every point costs at least one index-delta byte, so a count beyond
	// the remaining payload is structurally impossible. Rejecting it here
	// bounds the allocation below by the input size — a hostile header
	// in a tiny buffer cannot provoke a giant allocation.
	if cnt > uint64(len(rest)) {
		return nil, fmt.Errorf("series: point count %d exceeds payload (%d bytes): %w", cnt, len(rest), ErrBadEncoding)
	}
	pts := make([]Point, cnt)
	prev := -1
	for i := range pts {
		d, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, ErrBadEncoding
		}
		rest = rest[k:]
		prev += int(d)
		pts[i].Index = prev
	}
	if decodeValues(rest, pts) != nil {
		return nil, ErrBadEncoding
	}
	return NewIrregular(int(n), pts)
}

// decodeValues reverses encodeValues, filling in each point's Value. Any
// error means the stream is malformed; the caller reports ErrBadEncoding.
func decodeValues(data []byte, pts []Point) error {
	r := lossless.NewBitReader(data)
	var prev uint64
	prevLead, prevTrail := -1, -1
	for i := range pts {
		if i == 0 {
			v, err := r.ReadBits(64)
			if err != nil {
				return err
			}
			prev = v
			pts[i].Value = math.Float64frombits(v)
			continue
		}
		b, err := r.ReadBit()
		if err != nil {
			return err
		}
		if b == 0 {
			pts[i].Value = math.Float64frombits(prev)
			continue
		}
		ctl, err := r.ReadBit()
		if err != nil {
			return err
		}
		var xor uint64
		if ctl == 0 {
			if prevLead < 0 {
				return ErrBadEncoding
			}
			v, err := r.ReadBits(uint(64 - prevLead - prevTrail))
			if err != nil {
				return err
			}
			xor = v << uint(prevTrail)
		} else {
			lead, err := r.ReadBits(5)
			if err != nil {
				return err
			}
			sigM1, err := r.ReadBits(6)
			if err != nil {
				return err
			}
			sig := int(sigM1) + 1
			trail := 64 - int(lead) - sig
			if trail < 0 {
				return ErrBadEncoding
			}
			v, err := r.ReadBits(uint(sig))
			if err != nil {
				return err
			}
			xor = v << uint(trail)
			prevLead, prevTrail = int(lead), trail
		}
		prev ^= xor
		pts[i].Value = math.Float64frombits(prev)
	}
	return nil
}
