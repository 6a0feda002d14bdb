package udpgate

import (
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/wire"
)

// startEcho binds the virtual address and echoes every payload back to
// its fabric source, standing in for the ensemble behind the gateway.
// The returned function lists the distinct fabric sources seen so far:
// the synthetic addresses the gateway relayed from.
func startEcho(t *testing.T, n *netsim.Network, virtual netsim.Addr) func() []netsim.Addr {
	t.Helper()
	p, err := n.Bind(virtual)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	var mu sync.Mutex
	seen := map[netsim.Addr]bool{}
	go func() {
		for {
			d, err := p.Recv(0)
			if err != nil {
				return
			}
			h, err := netsim.Parse(d)
			if err == nil {
				mu.Lock()
				seen[h.Src] = true
				mu.Unlock()
				_ = p.SendTo(h.Src, netsim.Payload(d))
			}
			netsim.FreeBuf(d)
		}
	}()
	return func() []netsim.Addr {
		mu.Lock()
		defer mu.Unlock()
		var out []netsim.Addr
		for a := range seen {
			out = append(out, a)
		}
		return out
	}
}

// inSynthRange reports whether host lies in the synthetic peer range.
func inSynthRange(host uint32) bool {
	return host >= wire.SynthHostFirst && host-wire.SynthHostFirst < wire.SynthHostSpan
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// pingPong sends one datagram from the UDP socket to the gateway and
// waits for the echoed reply.
func pingPong(t *testing.T, c *net.UDPConn, msg string) {
	t.Helper()
	if _, err := c.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatalf("no echo for %q: %v", msg, err)
	}
	if string(buf[:n]) != msg {
		t.Fatalf("echo %q, want %q", buf[:n], msg)
	}
}

// TestIdlePeerEviction pins the reclamation fix: peers used to pin one
// fabric port and one reply-pump goroutine forever; now an idle peer's port
// is closed and its goroutine drained, and a returning remote is simply
// re-admitted with a fresh synthetic address.
func TestIdlePeerEviction(t *testing.T) {
	n := netsim.New(netsim.Config{})
	virtual := netsim.Addr{Host: 100, Port: 2049}
	startEcho(t, n, virtual)
	gw, err := newGateway("127.0.0.1:0", n, virtual, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	dial := func() *net.UDPConn {
		addr, _ := net.ResolveUDPAddr("udp", gw.Addr().String())
		c, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c1, c2 := dial(), dial()
	pingPong(t, c1, "one")
	pingPong(t, c2, "two")
	if got := gw.NumPeers(); got != 2 {
		t.Fatalf("peers = %d, want 2", got)
	}

	// Go quiet; both peers must be reclaimed.
	waitFor(t, "idle eviction", func() bool { return gw.NumPeers() == 0 })
	if s := gw.Stats(); s.PeersEvicted != 2 {
		t.Fatalf("evicted = %d, want 2", s.PeersEvicted)
	}

	// A returning remote is re-admitted and still works end to end.
	pingPong(t, c1, "again")
	if got := gw.NumPeers(); got != 1 {
		t.Fatalf("peers after return = %d, want 1", got)
	}
}

// TestConnAddrOutsideSyntheticRange pins the placeholder collision fix:
// Conn.Addr() used to report 0x7F000001, exactly the first synthetic peer
// host a Gateway allocates.
func TestConnAddrOutsideSyntheticRange(t *testing.T) {
	n := netsim.New(netsim.Config{})
	virtual := netsim.Addr{Host: 100, Port: 2049}
	sources := startEcho(t, n, virtual)
	gw, err := NewGateway("127.0.0.1:0", n, virtual)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	addr, _ := net.ResolveUDPAddr("udp", gw.Addr().String())
	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pingPong(t, c, "hello")

	client, err := Dial(gw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	placeholder := client.Addr()
	if got := gw.NumPeers(); got != 1 {
		t.Fatalf("peers = %d, want 1", got)
	}
	peers := sources()
	if len(peers) != 1 {
		t.Fatalf("fabric sources = %v, want 1", peers)
	}
	for _, p := range peers {
		host := p.Host
		if host == placeholder.Host {
			t.Fatalf("first synthetic peer host %#x collides with Conn placeholder %#x", host, placeholder.Host)
		}
		if !inSynthRange(host) {
			t.Fatalf("synthetic peer host %#x outside synthetic range [%#x, +%#x)", host, wire.SynthHostFirst, wire.SynthHostSpan)
		}
	}
	if inSynthRange(placeholder.Host) {
		t.Fatalf("placeholder host %#x inside synthetic range [%#x, +%#x)", placeholder.Host, wire.SynthHostFirst, wire.SynthHostSpan)
	}
}

// TestDropCounterNoPeer drives the peer-allocation failure path for real:
// with every ephemeral port on the first synthetic host pre-bound,
// peerFor cannot bind, and the inbound datagram — formerly discarded
// without a trace — shows up in Stats and the attached obs registry.
func TestDropCounterNoPeer(t *testing.T) {
	n := netsim.New(netsim.Config{})
	virtual := netsim.Addr{Host: 100, Port: 2049}
	sources := startEcho(t, n, virtual)
	// Exhaust the ephemeral range of the host the gateway will pick next.
	// The allocator is process-wide and hands out consecutive hosts, so a
	// probe peer's host tells the next one.
	next := probeHost(t, n, virtual, sources) + 1
	if !inSynthRange(next) {
		next = wire.SynthHostFirst
	}
	for p := uint16(ephemeralBase()); p != 0; p++ {
		_, _ = n.Bind(netsim.Addr{Host: next, Port: p})
	}
	gw, err := NewGateway("127.0.0.1:0", n, virtual)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	reg := obs.NewRegistry("udpgate")
	gw.SetObs(reg)

	addr, _ := net.ResolveUDPAddr("udp", gw.Addr().String())
	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drop counter", func() bool { return gw.Stats().DropNoPeer >= 1 })
	if got := reg.Hist("gate.drop_nopeer").Count(); got < 1 {
		t.Fatalf("obs drop count = %d, want >= 1", got)
	}
	if gw.NumPeers() != 0 {
		t.Fatalf("peers = %d, want 0", gw.NumPeers())
	}
}

// probeHost admits one peer through a throwaway gateway and returns the
// synthetic host it was given.
func probeHost(t *testing.T, n *netsim.Network, virtual netsim.Addr, sources func() []netsim.Addr) uint32 {
	t.Helper()
	gw, err := NewGateway("127.0.0.1:0", n, virtual)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	c, err := dial(gw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pingPong(t, c, "probe")
	peers := sources()
	if len(peers) != 1 {
		t.Fatalf("probe: fabric sources %v, want 1", peers)
	}
	return peers[0].Host
}

// ephemeralBase mirrors netsim's unexported constant for the exhaustion
// test; a drift would only make the test bind too few ports and fail
// loudly.
func ephemeralBase() uint16 { return 40000 }

// BenchmarkConnRecv measures the client-side receive path. Before the
// pooled-buffer fix it allocated a fresh 96 KiB buffer plus a second
// header-prefixed copy per datagram; now it reads into one pooled buffer.
func BenchmarkConnRecv(b *testing.B) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.LocalAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// Teach the server the client's address.
	if err := c.SendTo(netsim.Addr{Host: 100, Port: 2049}, []byte("hi")); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256)
	_, caddr, err := srv.ReadFromUDP(buf)
	if err != nil {
		b.Fatal(err)
	}

	payload := make([]byte, 8<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.WriteToUDP(payload, caddr); err != nil {
			b.Fatal(err)
		}
		d, err := c.Recv(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(d) != netsim.HeaderSize+len(payload) {
			b.Fatalf("recv %d bytes", len(d))
		}
		netsim.FreeBuf(d)
	}
}

// sockopt reads one SOL_SOCKET option of c.
func sockopt(t *testing.T, c *net.UDPConn, opt int) int {
	t.Helper()
	raw, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var v int
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		v, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, opt)
	}); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatal(gerr)
	}
	return v
}

// sysctlInt reads an integer kernel limit, skipping the test where the
// system does not expose it.
func sysctlInt(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("cannot read %s: %v", path, err)
	}
	v, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		t.Skipf("%s: %v", path, err)
	}
	return v
}

// TestSocketBuffersSized: both ends of a gateway ask the kernel for
// socketBuffer bytes of receive and send buffer, so a full client window
// of 64 KiB datagrams is not dropped at the socket. The kernel caps the
// request at rmem_max/wmem_max, so each end must read back at least the
// smaller of the two.
func TestSocketBuffersSized(t *testing.T) {
	want := func(limit string) int { return min(socketBuffer, sysctlInt(t, limit)) }
	wantR, wantW := want("/proc/sys/net/core/rmem_max"), want("/proc/sys/net/core/wmem_max")
	n := netsim.New(netsim.Config{})
	g, err := NewGateway("127.0.0.1:0", n, netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := dial(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, end := range []struct {
		name string
		conn *net.UDPConn
	}{{"gateway", g.conn}, {"client", c}} {
		if got := sockopt(t, end.conn, syscall.SO_RCVBUF); got < wantR {
			t.Errorf("%s SO_RCVBUF = %d, want >= %d", end.name, got, wantR)
		}
		if got := sockopt(t, end.conn, syscall.SO_SNDBUF); got < wantW {
			t.Errorf("%s SO_SNDBUF = %d, want >= %d", end.name, got, wantW)
		}
	}
}
