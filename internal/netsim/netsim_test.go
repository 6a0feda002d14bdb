package netsim

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestBuildParseRoundTrip(t *testing.T) {
	src := Addr{Host: 0x0A000001, Port: 1234}
	dst := Addr{Host: 0x0A000002, Port: 2049}
	payload := []byte("request body")
	d, err := Build(src, dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	defer FreeBuf(d)
	h, err := Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	if h.Src != src || h.Dst != dst {
		t.Fatalf("header %+v, want src %v dst %v", h, src, dst)
	}
	if !bytes.Equal(Payload(d), payload) {
		t.Fatal("payload mismatch")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	d, _ := Build(Addr{Host: 1, Port: 1}, Addr{Host: 2, Port: 2}, []byte("data"))
	defer FreeBuf(d)
	d[HeaderSize] ^= 0xFF
	if _, err := Parse(d); err == nil {
		t.Fatal("corrupt payload passed checksum verification")
	}
	if _, err := Parse(d[:4]); err == nil {
		t.Fatal("short datagram accepted")
	}
}

func TestBuildRejectsOversize(t *testing.T) {
	if _, err := Build(Addr{}, Addr{}, make([]byte, MaxDatagram)); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

// TestJumboDatagramRoundTrip pins the fix for the length-field wrap bug: the
// header's length used to be 16 bits wide, so any datagram above 64 KiB —
// nominally allowed by MaxDatagram — wrapped its length and failed Parse.
func TestJumboDatagramRoundTrip(t *testing.T) {
	for _, size := range []int{64*1024 - HeaderSize, 64 * 1024, 96 * 1024, 128 * 1024, MaxDatagram - HeaderSize} {
		payload := bytes.Repeat([]byte{0xA5}, size)
		d, err := Build(Addr{Host: 1, Port: 1}, Addr{Host: 2, Port: 2}, payload)
		if err != nil {
			t.Fatalf("Build(%d bytes): %v", size, err)
		}
		h, err := Parse(d)
		if err != nil {
			t.Fatalf("Parse(%d-byte payload): %v", size, err)
		}
		if int(h.Length) != HeaderSize+size {
			t.Fatalf("length %d, want %d", h.Length, HeaderSize+size)
		}
		if !bytes.Equal(Payload(d), payload) {
			t.Fatalf("payload mismatch at size %d", size)
		}
		FreeBuf(d)
	}
}

func TestTryRecv(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	if _, ok := b.TryRecv(); ok {
		t.Fatal("TryRecv returned a datagram from an empty queue")
	}
	_ = a.SendTo(b.Addr(), []byte("one"))
	_ = a.SendTo(b.Addr(), []byte("two"))
	d1, ok1 := b.TryRecv()
	d2, ok2 := b.TryRecv()
	defer FreeBuf(d1)
	defer FreeBuf(d2)
	if !ok1 || !ok2 || string(Payload(d1)) != "one" || string(Payload(d2)) != "two" {
		t.Fatalf("TryRecv drained %v/%v", ok1, ok2)
	}
	if _, ok := b.TryRecv(); ok {
		t.Fatal("TryRecv returned a third datagram")
	}
}

// TestRewritePreservesChecksum is the property the µproxy's redirection
// depends on: after an in-place address rewrite with incremental checksum
// update, the datagram still verifies.
func TestRewritePreservesChecksum(t *testing.T) {
	d, _ := Build(Addr{Host: 1, Port: 10}, Addr{Host: 2, Port: 20}, []byte("hello world, this is nfs traffic"))
	defer FreeBuf(d)
	RewriteDst(d, Addr{Host: 77, Port: 2049})
	if !VerifyChecksum(d) {
		t.Fatal("checksum invalid after RewriteDst")
	}
	h, err := Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	if h.Dst != (Addr{Host: 77, Port: 2049}) {
		t.Fatalf("dst = %v after rewrite", h.Dst)
	}
	RewriteSrc(d, Addr{Host: 88, Port: 9})
	if !VerifyChecksum(d) {
		t.Fatal("checksum invalid after RewriteSrc")
	}
	h, _ = Parse(d)
	if h.Src != (Addr{Host: 88, Port: 9}) {
		t.Fatalf("src = %v after rewrite", h.Src)
	}
}

func TestSendRecv(t *testing.T) {
	n := New(Config{})
	a, err := n.Bind(Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Bind(Addr{Host: 2, Port: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendTo(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	d, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer FreeBuf(d)
	if string(Payload(d)) != "ping" {
		t.Fatalf("payload %q", Payload(d))
	}
}

func TestRecvTimeout(t *testing.T) {
	n := New(Config{})
	p, _ := n.Bind(Addr{Host: 1, Port: 1})
	if _, err := p.Recv(10 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestDoubleBindRejected(t *testing.T) {
	n := New(Config{})
	if _, err := n.Bind(Addr{Host: 1, Port: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Bind(Addr{Host: 1, Port: 1}); err == nil {
		t.Fatal("double bind succeeded")
	}
}

func TestClosedPortRecv(t *testing.T) {
	n := New(Config{})
	p, _ := n.Bind(Addr{Host: 1, Port: 1})
	p.Close()
	if _, err := p.Recv(0); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Re-binding the freed address succeeds.
	if _, err := n.Bind(Addr{Host: 1, Port: 1}); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestBindAnyAllocatesDistinctPorts(t *testing.T) {
	n := New(Config{})
	seen := make(map[Addr]bool)
	for i := 0; i < 20; i++ {
		p, err := n.BindAny(7)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.Addr()] {
			t.Fatalf("duplicate ephemeral address %v", p.Addr())
		}
		seen[p.Addr()] = true
	}
}

func TestUnboundDestinationDropped(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	if err := a.SendTo(Addr{Host: 9, Port: 9}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped)
	}
}

func TestTapDrop(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	n.AddTap(TapFunc(func(d []byte) Verdict { return Drop }))
	_ = a.SendTo(b.Addr(), []byte("blocked"))
	if _, err := b.Recv(20 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("datagram delivered despite dropping tap: %v", err)
	}
}

func TestTapConsumeAndInject(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	c, _ := n.Bind(Addr{Host: 3, Port: 3})
	// A redirecting tap: traffic for b is rewritten to c, like a µproxy.
	tap := TapFunc(func(d []byte) Verdict {
		h, err := Parse(d)
		if err != nil || h.Dst != b.Addr() {
			return Pass
		}
		RewriteDst(d, c.Addr())
		_ = n.Inject(d)
		return Consumed
	})
	tok := n.AddTap(tap)
	_ = a.SendTo(b.Addr(), []byte("redirect me"))
	d, err := c.Recv(time.Second)
	if err != nil {
		t.Fatalf("redirected datagram not delivered: %v", err)
	}
	defer FreeBuf(d)
	if string(Payload(d)) != "redirect me" {
		t.Fatalf("payload %q", Payload(d))
	}
	if _, err := b.Recv(20 * time.Millisecond); err != ErrTimeout {
		t.Fatal("original destination also received the datagram")
	}
	// Removing the tap restores direct delivery.
	n.RemoveTap(tok)
	_ = a.SendTo(b.Addr(), []byte("direct"))
	d, err = b.Recv(time.Second)
	if err != nil {
		t.Fatalf("delivery after tap removal: %v", err)
	}
	FreeBuf(d)
}

func TestLossRate(t *testing.T) {
	n := New(Config{LossRate: 0.5, Seed: 99})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	defer b.Close() // frees what was delivered
	const total = 400
	for i := 0; i < total; i++ {
		_ = a.SendTo(b.Addr(), []byte("x"))
	}
	s := n.Stats()
	if s.Lost == 0 || s.Lost == total {
		t.Fatalf("lost %d of %d with 50%% loss", s.Lost, total)
	}
	if got := float64(s.Lost) / total; got < 0.35 || got > 0.65 {
		t.Fatalf("loss fraction %.2f far from configured 0.5", got)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(Config{Latency: 30 * time.Millisecond})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	start := time.Now()
	_ = a.SendTo(b.Addr(), []byte("slow"))
	d, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	FreeBuf(d)
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivered in %v despite 30ms latency", el)
	}
}

func TestQueueOverrunDrops(t *testing.T) {
	n := New(Config{QueueLen: 4})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	defer b.Close() // frees the queued datagrams
	for i := 0; i < 10; i++ {
		_ = a.SendTo(b.Addr(), []byte("x"))
	}
	s := n.Stats()
	if s.Delivered != 4 || s.Dropped != 6 {
		t.Fatalf("delivered %d dropped %d, want 4/6", s.Delivered, s.Dropped)
	}
}

func TestConcurrentSendersNoRace(t *testing.T) {
	// Queue sized for the full burst: this test checks races, not drops.
	n := New(Config{QueueLen: 1000})
	dst, _ := n.Bind(Addr{Host: 99, Port: 1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		p, err := n.BindAny(uint32(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p *Port) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = p.SendTo(dst.Addr(), []byte("concurrent"))
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 800; i++ {
			d, err := dst.Recv(time.Second)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			FreeBuf(d)
		}
	}()
	wg.Wait()
	<-done
}

func TestAddrString(t *testing.T) {
	a := Addr{Host: 0x0A000102, Port: 2049}
	if a.String() != "10.0.1.2:2049" {
		t.Fatalf("String = %q", a.String())
	}
}

// FuzzParseDatagram ensures the datagram parser never panics on hostile
// bytes and rejects anything whose checksum does not verify.
func FuzzParseDatagram(f *testing.F) {
	good, _ := Build(Addr{Host: 1, Port: 2}, Addr{Host: 3, Port: 4}, []byte("payload"))
	f.Add(append([]byte(nil), good...))
	FreeBuf(good)
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Fuzz(func(t *testing.T, d []byte) {
		h, err := Parse(d)
		if err == nil {
			// Anything that parses must re-verify after a round trip of
			// rewrites (the µproxy invariant).
			RewriteDst(d, Addr{Host: 9, Port: 9})
			RewriteSrc(d, Addr{Host: 8, Port: 8})
			if !VerifyChecksum(d) {
				t.Fatalf("rewrite broke checksum for header %+v", h)
			}
		}
	})
}

func TestRewriteUint64PreservesChecksum(t *testing.T) {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	d, _ := Build(Addr{Host: 1, Port: 1}, Addr{Host: 2, Port: 2}, payload)
	defer FreeBuf(d)
	if err := RewriteUint64(d, HeaderSize+16, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	if !VerifyChecksum(d) {
		t.Fatal("checksum broken by RewriteUint64")
	}
	got := Payload(d)[16:24]
	want := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 0xF0, 0x0D}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %x, want %x", i, got[i], want[i])
		}
	}
	// Bounds and alignment are enforced.
	if err := RewriteUint64(d, len(d)-4, 0); err == nil {
		t.Fatal("out-of-bounds rewrite accepted")
	}
	if err := RewriteUint64(d, HeaderSize+1, 0); err == nil {
		t.Fatal("odd-offset rewrite accepted")
	}
}
