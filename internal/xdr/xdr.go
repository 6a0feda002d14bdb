// Package xdr implements the subset of XDR (RFC 1832) external data
// representation used by the Slice wire protocols.
//
// All quantities are encoded big-endian in multiples of four bytes, as in
// ONC RPC. Opaque data is padded to a four-byte boundary. The Encoder and
// Decoder operate on byte slices rather than streams because the µproxy
// must decode and rewrite datagrams in place without copying.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Errors returned by the decoder. ErrShortBuffer indicates truncated input;
// ErrBadValue indicates structurally invalid input (e.g. a boolean that is
// neither 0 nor 1, or a string length beyond the decoder limit).
var (
	ErrShortBuffer = errors.New("xdr: short buffer")
	ErrBadValue    = errors.New("xdr: bad value")
)

// MaxOpaque bounds variable-length opaque and string fields to guard
// against hostile or corrupt length prefixes. 1 MiB comfortably exceeds the
// largest NFS transfer the prototype uses (64 KiB writes plus headers).
const MaxOpaque = 1 << 20

// pad returns the number of zero bytes needed to round n up to 4.
func pad(n int) int { return (4 - n&3) & 3 }

// Allocator supplies and recycles an Encoder's buffers. Get returns a
// buffer of length n (its capacity may be larger); Free takes back a
// buffer Get returned. netsim's datagram pool is the one the RPC layer
// plugs in, so encoded messages never touch the heap.
type Allocator interface {
	Get(n int) []byte
	Free(b []byte)
}

// Encoder appends XDR-encoded values to a buffer. Without an Allocator
// (NewEncoder, or the zero value) the buffer lives on the heap; with one
// (NewPooledEncoder) every buffer comes from the Allocator, and the
// caller owns the buffer Bytes returns until it hands it back.
type Encoder struct {
	buf   []byte
	alloc Allocator
}

// NewEncoder returns a heap-backed encoder whose buffer has the given
// initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// NewPooledEncoder returns an encoder drawing its buffers from a. The
// first headroom bytes of the buffer are reserved (unspecified contents)
// ahead of the encoded data, so a caller can fill in a transport header
// in place; capacity is a hint for the whole buffer.
func NewPooledEncoder(a Allocator, headroom, capacity int) *Encoder {
	if capacity < headroom {
		capacity = headroom
	}
	return &Encoder{buf: a.Get(capacity)[:headroom], alloc: a}
}

// Bytes returns the encoded buffer, including any headroom. The slice is
// invalidated by further Put calls; for a pooled encoder it is owned by
// the caller, who returns it to the Allocator when done.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents but keeps the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// reserve makes room for n more bytes, so the appends that follow never
// reallocate behind the encoder's back.
func (e *Encoder) reserve(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.grow(n)
	}
}

// grow is the encoder's single growth path: it moves the encoded bytes
// to a buffer with room for n more — for a pooled encoder, a buffer of
// the next size class up, freeing the old one.
func (e *Encoder) grow(n int) {
	size := 2 * cap(e.buf)
	if need := len(e.buf) + n; size < need {
		size = need
	}
	var nb []byte
	if e.alloc != nil {
		nb = e.alloc.Get(size)
	} else {
		nb = make([]byte, size)
	}
	copy(nb, e.buf)
	if e.alloc != nil {
		e.alloc.Free(e.buf)
	}
	e.buf = nb[:len(e.buf)]
}

// Truncate shrinks the encoded buffer to n bytes.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// PutUint32 appends a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.reserve(4)
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutInt32 appends a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 appends a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) PutUint64(v uint64) {
	e.reserve(8)
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutInt64 appends a 64-bit signed integer.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool appends an XDR boolean (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFixedOpaque appends fixed-length opaque data (no length prefix),
// padded to a four-byte boundary.
func (e *Encoder) PutFixedOpaque(p []byte) {
	e.reserve(len(p) + 3)
	e.buf = append(e.buf, p...)
	e.buf = append(e.buf, zeros[:pad(len(p))]...)
}

var zeros [3]byte

// PutOpaque appends variable-length opaque data with a length prefix.
func (e *Encoder) PutOpaque(p []byte) {
	e.PutUint32(uint32(len(p)))
	e.PutFixedOpaque(p)
}

// PutOpaqueFill appends variable-length opaque data of at most max bytes
// that fill writes in place: fill receives max bytes of the buffer and
// returns how many it used. The data is never staged in a buffer of its
// own.
func (e *Encoder) PutOpaqueFill(max int, fill func(p []byte) int) {
	e.reserve(4 + max + 3)
	at := len(e.buf)
	n := fill(e.buf[at+4 : at+4+max])
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	e.buf = append(e.buf[:at+4+n], zeros[:pad(n)]...)
}

// PutString appends an XDR string.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.reserve(len(s) + 3)
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, zeros[:pad(len(s))]...)
}

// Decoder consumes XDR-encoded values from a byte slice.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder reading from p. The decoder does not copy p.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Offset returns the current decode offset from the start of the buffer.
// The µproxy uses it to locate fields for in-place rewriting.
func (d *Decoder) Offset() int { return d.off }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Skip advances the decoder by n bytes (rounded up to a 4-byte boundary).
func (d *Decoder) Skip(n int) error {
	n += pad(n)
	if d.Remaining() < n {
		return ErrShortBuffer
	}
	d.off += n
	return nil
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	b := d.buf[d.off:]
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	hi, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	lo, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean, rejecting values other than 0 and 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("%w: bool %d", ErrBadValue, v)
}

// FixedOpaque decodes n bytes of fixed-length opaque data. The returned
// slice aliases the decoder's buffer.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n+pad(n) {
		return nil, ErrShortBuffer
	}
	p := d.buf[d.off : d.off+n]
	d.off += n + pad(n)
	return p, nil
}

// Opaque decodes variable-length opaque data. The returned slice aliases
// the decoder's buffer.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > MaxOpaque {
		return nil, fmt.Errorf("%w: opaque length %d", ErrBadValue, n)
	}
	return d.FixedOpaque(int(n))
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	p, err := d.Opaque()
	return string(p), err
}

// UintAt reads the uint32 at byte offset off without advancing the decoder.
func (d *Decoder) UintAt(off int) (uint32, error) {
	if off < 0 || off+4 > len(d.buf) {
		return 0, ErrShortBuffer
	}
	b := d.buf[off:]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// PutUint32At overwrites the uint32 at byte offset off in buf.
// It is the primitive used for in-place datagram rewriting.
func PutUint32At(buf []byte, off int, v uint32) error {
	if off < 0 || off+4 > len(buf) {
		return ErrShortBuffer
	}
	buf[off] = byte(v >> 24)
	buf[off+1] = byte(v >> 16)
	buf[off+2] = byte(v >> 8)
	buf[off+3] = byte(v)
	return nil
}

// Uint32Size is the encoded size of a uint32.
const Uint32Size = 4

// OpaqueSize returns the encoded size of variable-length opaque data of n
// bytes, including the length prefix and padding.
func OpaqueSize(n int) int { return 4 + n + pad(n) }

// StringSize returns the encoded size of the string s.
func StringSize(s string) int { return OpaqueSize(len(s)) }

// CheckLen validates that a length prefix n (already decoded) can describe
// at most max elements; it guards slice preallocation from hostile input.
func CheckLen(n uint32, max int) error {
	if max >= 0 && n > uint32(max) {
		return fmt.Errorf("%w: length %d exceeds %d", ErrBadValue, n, max)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: length %d", ErrBadValue, n)
	}
	return nil
}
