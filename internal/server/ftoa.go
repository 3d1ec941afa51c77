package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// appendShortest appends v exactly as strconv.AppendFloat(b, v, 'g', -1, 64)
// does — the shortest decimal that parses back to the identical float64,
// closest to v among those, in %g layout — at about half its cost. Query
// responses render every sample through it, so on a cold read it is the
// largest single cost after the HTTP stack itself.
//
// The digits come from Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020): three round-to-odd 64×128-bit products bound the
// rounding interval at a power of ten where it holds at most one candidate
// one digit shorter than v's, and at most ten of v's own length. The
// digits are then written eight at a time with lane-parallel arithmetic.
func appendShortest(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	fc := u & (1<<52 - 1)
	be := int(u>>52) & 0x7ff
	if be == 0x7ff {
		switch {
		case fc != 0:
			return append(b, "NaN"...)
		case u>>63 != 0:
			return append(b, "-Inf"...)
		}
		return append(b, "+Inf"...)
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	if u<<1 == 0 {
		return append(b, '0')
	}
	d, e := shortestDecimal(fc, be)
	return appendDecimal(b, d, e)
}

// shortestDecimal returns the digits d and exponent e of the shortest
// decimal d·10^e inside the rounding interval of the finite nonzero
// float64 with mantissa field fc and biased exponent be. Among candidates
// of equal length it takes the one closest to the float, ties to even d,
// and d carries no trailing zeros.
func shortestDecimal(fc uint64, be int) (d uint64, e int) {
	c, q := fc, -1074 // v = c·2^q; subnormals share the minimum exponent
	if be != 0 {
		c, q = fc|1<<52, be-1075
		// An integer below 2^53 is its own shortest form: the rounding
		// interval is at most one unit wide and holds no other integer.
		if -52 <= q && q <= 0 && bits.TrailingZeros64(c) >= -q {
			return stripZeros(c>>uint(-q), 0)
		}
	}
	// Rounding interval [cbl, cbr]·2^(q-2), open when c is odd. Its lower
	// half is narrower when v is a power of two above the subnormals.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	k := floorLog10Pow2(q)
	if fc == 0 && be > 1 {
		cbl = cb - 1
		k = floorLog10ThreeQuartersPow2(q)
	}
	g := pow10Sig[-k-minPow10Exp]
	h := q + floorLog2Pow10(-k) + 1 // in [1, 4]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	// 10^k is no wider than the interval and 10^(k+1) is wider, so it holds
	// at most one multiple of 10^(k+1): when exactly one of the two around
	// v is inside, that is the unique shorter candidate.
	s := vb >> 2
	if s >= 10 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return stripZeros(sp10, k)
			}
			return stripZeros(tp10, k)
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return stripZeros(s, k)
		}
		return stripZeros(t, k)
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return stripZeros(s, k)
	}
	return stripZeros(t, k)
}

// roundToOdd returns ⌊g·cp/2^128⌋ with its low bit set when the discarded
// fraction is nonzero. g overestimates its power of ten by under one unit,
// so a fraction of at most one unit in the last place counts as zero.
func roundToOdd(g [2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	y0, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	if y0 > 1 {
		y1 |= 1
	}
	return y1
}

// stripZeros drops the trailing decimal zeros of d into the exponent e.
func stripZeros(d uint64, e int) (uint64, int) {
	if d%10 != 0 {
		return d, e
	}
	for d%1e8 == 0 {
		d /= 1e8
		e += 8
	}
	if d%1e4 == 0 {
		d /= 1e4
		e += 4
	}
	if d%100 == 0 {
		d /= 100
		e += 2
	}
	if d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// appendDecimal appends d·10^e in strconv's shortest %g layout: exponent
// form iff the decimal exponent is below -4 or at least 6 (two exponent
// digits at least), plain decimal otherwise. The text is laid out in buf
// around its digits and appended in one copy.
func appendDecimal(b []byte, d uint64, e int) []byte {
	// d ≥ 1 has at most 17 digits. They end at m, leaving room before them
	// for "0.000" or a shifted leading digit and after them for an exponent
	// or trailing zeros.
	const m = 24
	var buf [m + 8]byte
	i := m
	for d >= 1e8 {
		q := d / 1e8
		binary.LittleEndian.PutUint64(buf[i-8:], digits8(uint32(d-q*1e8))|zeros8)
		i -= 8
		d = q
	}
	top := digits8(uint32(d))
	binary.LittleEndian.PutUint64(buf[i-8:], top|zeros8)
	i -= 8 - bits.TrailingZeros64(top)/8 // skip the leading zeros

	n := m - i
	dp := n + e // decimal point position: v = 0.digits × 10^dp
	if exp := dp - 1; exp < -4 || exp >= 6 {
		if n > 1 {
			i--
			buf[i], buf[i+1] = buf[i+1], '.'
		}
		sign := byte('+')
		if exp < 0 {
			sign, exp = '-', -exp
		}
		j := m
		buf[j], buf[j+1] = 'e', sign
		j += 2
		if exp >= 100 {
			buf[j] = byte('0' + exp/100)
			j++
			exp %= 100
		}
		buf[j], buf[j+1] = byte('0'+exp/10), byte('0'+exp%10)
		return append(b, buf[i:j+2]...)
	}
	switch {
	case dp <= 0:
		i -= 2 - dp
		copy(buf[i:], "0.000"[:2-dp])
		return append(b, buf[i:m]...)
	case dp >= n:
		copy(buf[m:], "00000"[:dp-n])
		return append(b, buf[i:i+dp]...)
	}
	copy(buf[i-1:], buf[i:i+dp])
	buf[i-1+dp] = '.'
	return append(b, buf[i-1:m]...)
}

// zeros8 turns eight digit values 0–9, one per byte, into ASCII.
const zeros8 = 0x3030303030303030

// digits8 spreads x < 10^8 into its eight decimal digits, one per byte,
// the most significant in the lowest byte, so a little-endian store
// writes them in reading order. x splits into halves below 10^4 in 32-bit
// lanes, those into halves below 10^2 in 16-bit lanes, and those into
// digits in bytes, all lanes at once. The multiply-shift quotients are
// exact over each lane's range (n·10486>>20 = n/100 for n < 10^4,
// n·103>>10 = n/10 for n < 10^2), and no product reaches the next lane.
// A "00".."99" pair table profiles the same inside the query handler,
// but on the repo benchmark's query-cold workload it ran 16–17% slower
// end to end (two sets of 10 pairs on a two-vCPU host).
func digits8(x uint32) uint64 {
	y := uint64(x)
	z := y / 1e4
	y = z | (y-z*1e4)<<32
	z = y * 10486 >> 20 & 0x0000007f_0000007f
	y = z | (y-z*100)<<16
	z = y * 103 >> 10 & 0x000f_000f_000f_000f
	return z | (y-z*10)<<8
}

// floorLog10Pow2 is ⌊q·log10(2)⌋, floorLog10ThreeQuartersPow2 is
// ⌊log10(3/4·2^q)⌋ and floorLog2Pow10 is ⌊e·log2(10)⌋, each exact far
// beyond the float64 exponent range.
func floorLog10Pow2(q int) int { return int(int64(q) * 661971961083 >> 41) }

func floorLog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661971961083 - 274743187321) >> 41)
}

func floorLog2Pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// The powers of ten a float64 can need: 10^-k for k = ⌊log10 2^q⌋ over
// every binary exponent q.
const (
	minPow10Exp = -292
	maxPow10Exp = 324
)

// pow10Sig[e-minPow10Exp] is g = ⌊10^e·2^(127-⌊log2 10^e⌋)⌋ + 1, the
// 128-bit significand of 10^e rounded up, as {high, low} words.
var pow10Sig = buildPow10Sig()

func buildPow10Sig() (tab [maxPow10Exp - minPow10Exp + 1][2]uint64) {
	ten := big.NewInt(10)
	var buf [16]byte
	for e := minPow10Exp; e <= maxPow10Exp; e++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		g := new(big.Int)
		if sh := 127 - floorLog2Pow10(e); e >= 0 {
			if sh >= 0 {
				g.Lsh(p, uint(sh))
			} else {
				g.Rsh(p, uint(-sh))
			}
		} else {
			g.Quo(new(big.Int).Lsh(big.NewInt(1), uint(sh)), p)
		}
		g.Add(g, big.NewInt(1)).FillBytes(buf[:])
		tab[e-minPow10Exp] = [2]uint64{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}
	}
	return tab
}
