// Package checksum implements the 16-bit Internet checksum (RFC 1071) and
// the incremental update technique of RFC 1624 used by packet rewriters.
//
// The Slice µproxy modifies only a handful of bytes in each datagram — the
// source or destination address and port, and occasionally attribute fields
// — so it adjusts the UDP-style checksum differentially rather than
// recomputing it over the whole packet. The cost of the adjustment is
// proportional to the number of modified bytes and independent of packet
// size (§4.1). This mirrors the FreeBSD NAT-derived code in the prototype.
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Sum computes the Internet checksum over p: the ones'-complement of the
// ones'-complement sum of 16-bit big-endian words, with a final odd byte
// padded with zero.
//
// It sums 64-bit big-endian words with end-around carry and folds the
// result to 16 bits at the end (RFC 1071 §2(B): the ones'-complement sum
// is the same at any word width that is a multiple of 16 bits), eight
// bytes per addition instead of two. The main loop is unrolled 4×: on a
// 2-vCPU Xeon, BenchmarkSumFull32K measured 8.4–11.7 GB/s with it and
// 3.9–5.0 GB/s with the plain 8-byte loop alone (6 alternating runs each).
func Sum(p []byte) uint16 {
	var s, c uint64
	for len(p) >= 32 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(p[0:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(p[8:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(p[16:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(p[24:]), c)
		p = p[32:]
	}
	for len(p) >= 8 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(p), c)
		p = p[8:]
	}
	// The tail (under 8 bytes) starts at an even offset: pack it into the
	// top of a word, zero-padded, so byte pairs keep their positions.
	var w uint64
	for i, b := range p {
		w |= uint64(b) << (56 - 8*i)
	}
	s, c = bits.Add64(s, w, c)
	// End-around carry. It cannot wrap: after a carry out, s <= w, and
	// w's low byte is zero.
	s += c
	s = s&0xffffffff + s>>32
	s = s&0xffff + s>>16
	s = s&0xffff + s>>16
	s = s&0xffff + s>>16
	return ^uint16(s)
}

// Update returns the checksum after a 16-bit word at an even offset changes
// from old to new, per RFC 1624 equation 3: HC' = ~(~HC + ~m + m').
func Update(sum, old, new uint16) uint16 {
	s := uint32(^sum&0xffff) + uint32(^old&0xffff) + uint32(new)
	for s>>16 != 0 {
		s = (s & 0xffff) + s>>16
	}
	return ^uint16(s)
}

// Update32 folds a 32-bit word change into the checksum; the word must
// start at an even byte offset.
func Update32(sum uint16, old, new uint32) uint16 {
	sum = Update(sum, uint16(old>>16), uint16(new>>16))
	return Update(sum, uint16(old), uint16(new))
}

// Update64 folds a 64-bit word change into the checksum; the word must
// start at an even byte offset.
func Update64(sum uint16, old, new uint64) uint16 {
	sum = Update32(sum, uint32(old>>32), uint32(new>>32))
	return Update32(sum, uint32(old), uint32(new))
}

// UpdateBytes folds a change of the even-offset-aligned byte range from old
// to new (equal lengths) into the checksum.
func UpdateBytes(sum uint16, old, new []byte) uint16 {
	n := len(old)
	if len(new) < n {
		n = len(new)
	}
	for i := 0; i+1 < n; i += 2 {
		ow := uint16(old[i])<<8 | uint16(old[i+1])
		nw := uint16(new[i])<<8 | uint16(new[i+1])
		sum = Update(sum, ow, nw)
	}
	if n%2 == 1 {
		sum = Update(sum, uint16(old[n-1])<<8, uint16(new[n-1])<<8)
	}
	return sum
}
