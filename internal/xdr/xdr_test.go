package xdr

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		e := NewEncoder(8)
		e.PutUint32(v)
		d := NewDecoder(e.Bytes())
		got, err := d.Uint32()
		return err == nil && got == v && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		e := NewEncoder(8)
		e.PutUint64(v)
		d := NewDecoder(e.Bytes())
		got, err := d.Uint64()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64RoundTrip(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -1 << 62, 1<<62 - 1} {
		e := NewEncoder(8)
		e.PutInt64(v)
		got, err := NewDecoder(e.Bytes()).Int64()
		if err != nil || got != v {
			t.Fatalf("Int64(%d) = %d, %v", v, got, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if len(s) > MaxOpaque {
			return true
		}
		e := NewEncoder(len(s) + 8)
		e.PutString(s)
		if e.Len()%4 != 0 {
			return false
		}
		got, err := NewDecoder(e.Bytes()).String()
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpaqueRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		if len(p) > MaxOpaque {
			return true
		}
		e := NewEncoder(len(p) + 8)
		e.PutOpaque(p)
		got, err := NewDecoder(e.Bytes()).Opaque()
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedOpaquePadding(t *testing.T) {
	for n := 0; n < 9; n++ {
		e := NewEncoder(16)
		p := bytes.Repeat([]byte{0xAB}, n)
		e.PutFixedOpaque(p)
		if e.Len()%4 != 0 {
			t.Fatalf("len %d: encoded size %d not 4-aligned", n, e.Len())
		}
		got, err := NewDecoder(e.Bytes()).FixedOpaque(n)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("len %d: round trip failed: %v", n, err)
		}
	}
}

func TestBool(t *testing.T) {
	e := NewEncoder(8)
	e.PutBool(true)
	e.PutBool(false)
	d := NewDecoder(e.Bytes())
	if v, err := d.Bool(); err != nil || !v {
		t.Fatalf("want true, got %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Fatalf("want false, got %v, %v", v, err)
	}
}

func TestBoolRejectsBadValue(t *testing.T) {
	e := NewEncoder(4)
	e.PutUint32(7)
	if _, err := NewDecoder(e.Bytes()).Bool(); err == nil {
		t.Fatal("expected error for bool value 7")
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	d = NewDecoder(nil)
	if _, err := d.Uint64(); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	if _, err := d.String(); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
}

func TestOpaqueRejectsHugeLength(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(MaxOpaque + 1)
	if _, err := NewDecoder(e.Bytes()).Opaque(); err == nil {
		t.Fatal("expected error for oversized opaque")
	}
}

func TestOpaqueTruncatedBody(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(100) // length prefix with no body
	if _, err := NewDecoder(e.Bytes()).Opaque(); err == nil {
		t.Fatal("expected error for truncated opaque body")
	}
}

func TestSkip(t *testing.T) {
	e := NewEncoder(32)
	e.PutUint32(1)
	e.PutString("abc") // 4 + 3 + 1 pad = 8 bytes
	e.PutUint32(2)
	d := NewDecoder(e.Bytes())
	if _, err := d.Uint32(); err != nil {
		t.Fatal(err)
	}
	if err := d.Skip(4 + 3); err != nil { // skip string incl. prefix, pad-rounded
		t.Fatal(err)
	}
	v, err := d.Uint32()
	if err != nil || v != 2 {
		t.Fatalf("after skip: got %d, %v", v, err)
	}
}

func TestOffsetTracking(t *testing.T) {
	e := NewEncoder(32)
	e.PutUint32(10)
	e.PutUint64(20)
	d := NewDecoder(e.Bytes())
	if d.Offset() != 0 {
		t.Fatalf("offset = %d, want 0", d.Offset())
	}
	if _, err := d.Uint32(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != 4 {
		t.Fatalf("offset = %d, want 4", d.Offset())
	}
	if _, err := d.Uint64(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != 12 {
		t.Fatalf("offset = %d, want 12", d.Offset())
	}
}

func TestPutUint32At(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(0xAAAAAAAA)
	e.PutUint32(0xBBBBBBBB)
	buf := e.Bytes()
	if err := PutUint32At(buf, 4, 0x12345678); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(buf)
	v1, _ := d.Uint32()
	v2, _ := d.Uint32()
	if v1 != 0xAAAAAAAA || v2 != 0x12345678 {
		t.Fatalf("got %x %x", v1, v2)
	}
	if err := PutUint32At(buf, 6, 0); err == nil {
		t.Fatal("expected error writing past end")
	}
	if err := PutUint32At(buf, -1, 0); err == nil {
		t.Fatal("expected error for negative offset")
	}
}

func TestUintAt(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(0xCAFEBABE)
	d := NewDecoder(e.Bytes())
	v, err := d.UintAt(0)
	if err != nil || v != 0xCAFEBABE {
		t.Fatalf("UintAt = %x, %v", v, err)
	}
	if d.Offset() != 0 {
		t.Fatal("UintAt must not advance the decoder")
	}
	if _, err := d.UintAt(8); err == nil {
		t.Fatal("expected error past end")
	}
}

func TestSizes(t *testing.T) {
	if OpaqueSize(0) != 4 || OpaqueSize(1) != 8 || OpaqueSize(4) != 8 || OpaqueSize(5) != 12 {
		t.Fatalf("OpaqueSize wrong: %d %d %d %d",
			OpaqueSize(0), OpaqueSize(1), OpaqueSize(4), OpaqueSize(5))
	}
	if StringSize("abc") != 8 {
		t.Fatalf("StringSize(abc) = %d", StringSize("abc"))
	}
}

func TestCheckLen(t *testing.T) {
	if err := CheckLen(10, 10); err != nil {
		t.Fatal(err)
	}
	if err := CheckLen(11, 10); err == nil {
		t.Fatal("expected error")
	}
	if err := CheckLen(1<<31+1, -1); err == nil {
		t.Fatal("expected error for > MaxInt32")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("len after reset = %d", e.Len())
	}
	e.PutUint32(2)
	v, err := NewDecoder(e.Bytes()).Uint32()
	if err != nil || v != 2 {
		t.Fatalf("got %d, %v", v, err)
	}
}

// countingAlloc is an Allocator that tracks outstanding buffers.
type countingAlloc struct{ out map[*byte]int }

func (a *countingAlloc) Get(n int) []byte {
	b := make([]byte, n, n+n/2)
	a.out[&b[:1][0]] = cap(b)
	return b
}

func (a *countingAlloc) Free(b []byte) {
	p := &b[:1][0]
	if _, ok := a.out[p]; !ok {
		panic("free of a buffer the allocator does not own")
	}
	delete(a.out, p)
}

// TestPooledEncoderGrowth: a pooled encoder keeps its headroom and
// contents as it outgrows buffers, frees every buffer it leaves behind,
// and ends owning exactly one — the one Bytes returns.
func TestPooledEncoderGrowth(t *testing.T) {
	a := &countingAlloc{out: make(map[*byte]int)}
	e := NewPooledEncoder(a, 20, 8)
	if e.Len() != 20 {
		t.Fatalf("headroom len = %d, want 20", e.Len())
	}
	data := bytes.Repeat([]byte{0x5A}, 5000)
	for i := 0; i < 10; i++ {
		e.PutUint32(uint32(i))
		e.PutOpaque(data[:i*500+1])
	}
	if len(a.out) != 1 {
		t.Fatalf("%d buffers outstanding, want 1", len(a.out))
	}
	d := NewDecoder(e.Bytes())
	if err := d.Skip(20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, err := d.Uint32()
		if err != nil || v != uint32(i) {
			t.Fatalf("word %d = %d, %v", i, v, err)
		}
		p, err := d.Opaque()
		if err != nil || !bytes.Equal(p, data[:i*500+1]) {
			t.Fatalf("opaque %d corrupted: %v", i, err)
		}
	}
	a.Free(e.Bytes())
}

// TestPutOpaqueFill: filled opaque data encodes exactly like PutOpaque,
// padding included, however much of the offered space fill uses.
func TestPutOpaqueFill(t *testing.T) {
	a := &countingAlloc{out: make(map[*byte]int)}
	for _, n := range []int{0, 1, 3, 4, 7, 100} {
		for _, spare := range []int{0, 9} {
			src := bytes.Repeat([]byte{0xC3}, n)
			want := NewEncoder(0)
			want.PutUint32(1)
			want.PutOpaque(src)
			// A pooled encoder exactly full before the fill: the
			// padding must fit in the room reserved up front.
			got := NewPooledEncoder(a, 4, 4)
			got.PutOpaqueFill(n+spare, func(p []byte) int {
				for i := range p {
					p[i] = 0xEE // must not leak past the used bytes
				}
				return copy(p, src)
			})
			_ = PutUint32At(got.Bytes(), 0, 1) // fill the headroom
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d spare=%d: PutOpaqueFill %x, PutOpaque %x", n, spare, got.Bytes(), want.Bytes())
			}
			a.Free(got.Bytes())
		}
	}
	if len(a.out) != 0 {
		t.Fatalf("%d buffers leaked", len(a.out))
	}
}
