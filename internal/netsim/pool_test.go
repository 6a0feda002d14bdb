package netsim

import (
	"bytes"
	"testing"
	"time"
)

func TestBufPoolRecycles(t *testing.T) {
	d := GetBuf(100)
	if len(d) != 100 || cap(d) != 256 {
		t.Fatalf("len=%d cap=%d, want 100/256", len(d), cap(d))
	}
	for i := range d {
		d[i] = 0xAB
	}
	FreeBuf(d)
	// The next same-class Get should not corrupt sizing even if it reuses
	// the freed buffer.
	e := GetBuf(200)
	if len(e) != 200 || cap(e) != 256 {
		t.Fatalf("len=%d cap=%d, want 200/256", len(e), cap(e))
	}
	FreeBuf(e)
}

func TestBufPoolClasses(t *testing.T) {
	for _, n := range []int{1, 256, 257, 4096, 5000, 64 << 10, MaxDatagram} {
		d := GetBuf(n)
		if len(d) != n {
			t.Fatalf("GetBuf(%d): len %d", n, len(d))
		}
		if cls := classOf(cap(d)); cls < 0 {
			t.Fatalf("GetBuf(%d): cap %d is not a pool class", n, cap(d))
		}
		FreeBuf(d)
	}
	// Each request lands in the smallest class that holds it. A 32 KiB
	// stripe unit plus its datagram and RPC headers takes the 40 KiB
	// class, not 64 KiB.
	for _, c := range []struct{ n, cap int }{
		{16 << 10, 16 << 10},
		{16<<10 + 1, 40 << 10},
		{32<<10 + 512, 40 << 10},
		{40 << 10, 40 << 10},
		{40<<10 + 1, 64 << 10},
		{64<<10 + 1, 128 << 10},
		{128<<10 + 1, MaxDatagram},
	} {
		d := GetBuf(c.n)
		if cap(d) != c.cap {
			t.Errorf("GetBuf(%d): cap %d, want %d", c.n, cap(d), c.cap)
		}
		FreeBuf(d)
	}
	// Oversized requests fall back to plain allocation and are ignored on
	// free.
	big := GetBuf(MaxDatagram + 1)
	if len(big) != MaxDatagram+1 {
		t.Fatal("oversized GetBuf wrong length")
	}
	FreeBuf(big)
	// Foreign buffers are ignored, not pooled.
	FreeBuf(make([]byte, 10, 33))
	FreeBuf(nil)
}

// TestPooledRoundTrip checks that a datagram built from the pool survives
// the full send/deliver/recv cycle intact and can be freed by the
// receiver.
func TestPooledRoundTrip(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	payload := bytes.Repeat([]byte("pool"), 32)
	for i := 0; i < 100; i++ {
		if err := a.SendTo(b.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := b.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(Payload(d), payload) {
			t.Fatalf("iteration %d: payload corrupted", i)
		}
		FreeBuf(d)
	}
	if st := PoolStats(); st.Gets == 0 {
		t.Fatal("pool unused")
	}
}

// TestCloseFreesQueuedDatagrams: datagrams still queued on a port when
// it closes go back to the pool instead of leaking out of the balance.
func TestCloseFreesQueuedDatagrams(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	defer a.Close()
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	before := SettledOutstanding()
	for i := 0; i < 3; i++ {
		if err := a.SendTo(b.Addr(), []byte("queued")); err != nil {
			t.Fatal(err)
		}
	}
	if got := PoolStats().Outstanding(); got != before+3 {
		t.Fatalf("%d buffers outstanding with 3 queued, want %d", got, before+3)
	}
	b.Close()
	if got := PoolStats().Outstanding(); got != before {
		t.Fatalf("%d buffers outstanding after Close, want %d", got, before)
	}
}
