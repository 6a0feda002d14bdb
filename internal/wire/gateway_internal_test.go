package wire

import (
	"math"
	"net"
	"testing"
	"time"

	"slice/internal/netsim"
)

// inSynthRange reports whether host lies in the synthetic peer range.
func inSynthRange(host uint32) bool {
	return host >= SynthHostFirst && host-SynthHostFirst < SynthHostSpan
}

// TestGatewaySyntheticHostsUniqueAcrossGateways pins the process-wide
// synthetic-host allocator: two fleet members' gateways share one fabric,
// and independent per-gateway counters used to hand their first
// connections the same fabric host. Combined with netsim's
// ephemeral-port recycling that could give two distinct clients
// identical {host, port} source addresses — which poisons the servers'
// duplicate-request caches across clients.
func TestGatewaySyntheticHostsUniqueAcrossGateways(t *testing.T) {
	n := netsim.New(netsim.Config{})
	virtual := netsim.Addr{Host: 100, Port: 2049}
	if _, err := n.Bind(virtual); err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for i := 0; i < 2; i++ {
		gw, err := NewGateway("127.0.0.1:0", n, virtual)
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		for j := 0; j < 2; j++ {
			tcp, err := net.Dial("tcp", gw.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer tcp.Close()
		}
		deadline := time.Now().Add(2 * time.Second)
		for gw.Stats().Peers < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("gateway %d admitted %d conns, want 2", i, gw.Stats().Peers)
			}
			time.Sleep(time.Millisecond)
		}
		r := gw.Endpoint.(*Relay[net.Conn])
		r.mu.Lock()
		for _, p := range r.peers {
			host := p.port.Addr().Host
			if !inSynthRange(host) {
				t.Errorf("gateway %d conn host %#x outside synthetic range [%#x, +%#x)", i, host, SynthHostFirst, SynthHostSpan)
			}
			if seen[host] {
				t.Errorf("gateway %d handed out host %#x twice across the fleet", i, host)
			}
			seen[host] = true
		}
		r.mu.Unlock()
	}
	if len(seen) != 4 {
		t.Fatalf("distinct synthetic hosts = %d, want 4", len(seen))
	}
}

// TestSynthHostAllocatorBoundaries drives the one synthetic-host
// allocator, which UDP peers and TCP connections share, across the
// boundary where the UDP range used to run into the TCP one (2^20
// allocations), across its own wrap, and across the wrap of the counter
// itself. At each boundary UDP and TCP peers take hosts in turn and bind
// them on one fabric, as gateways do; no two live peers may share a
// host, every host stays in the range, and none equals the client Conn
// placeholder. A host comes back only a full cycle later.
func TestSynthHostAllocatorBoundaries(t *testing.T) {
	saved := synthHosts.Load()
	defer synthHosts.Store(saved)
	placeholder := (&Conn{}).Addr().Host
	const window = 512
	for _, start := range []uint32{0, 1<<20 - window/2, SynthHostSpan - window/2, math.MaxUint32 - window/2} {
		n := netsim.New(netsim.Config{})
		synthHosts.Store(start)
		owner := map[uint32]string{}
		for i := 0; i < window; i++ {
			kind := [2]string{"UDP peer", "TCP connection"}[i%2]
			host := nextSynthHost()
			if !inSynthRange(host) {
				t.Fatalf("counter %#x: %s host %#x outside [%#x, +%#x)", start, kind, host, SynthHostFirst, SynthHostSpan)
			}
			if host == placeholder {
				t.Fatalf("counter %#x: %s host %#x equals the Conn placeholder", start, kind, host)
			}
			if prev, ok := owner[host]; ok {
				t.Fatalf("counter %#x: %s got host %#x, already a %s's", start, kind, host, prev)
			}
			owner[host] = kind
			port, err := n.BindAny(host)
			if err != nil {
				t.Fatal(err)
			}
			defer port.Close()
		}
	}

	// Reuse: the host a wrap hands out is the one handed out a full
	// cycle of allocations before, never a more recent one.
	hostAt := func(counter uint32) uint32 {
		synthHosts.Store(counter - 1)
		return nextSynthHost()
	}
	for _, c := range []uint32{1, 1 << 20, SynthHostSpan - 1, SynthHostSpan, math.MaxUint32} {
		if a, b := hostAt(c), hostAt(c+SynthHostSpan); a != b {
			t.Errorf("allocation %#x got %#x, but %#x a cycle later got %#x", c, a, c+SynthHostSpan, b)
		}
		if a, b := hostAt(c), hostAt(c+SynthHostSpan-1); a == b {
			t.Errorf("host %#x reused after %#x allocations, less than a cycle", a, SynthHostSpan-1)
		}
	}
}

// TestTornStreamCountsOneDrop: a failed write tears a record-marked
// stream and closes its connection. That is one lost reply and one
// drop; the replies queued behind it are not each counted again, and
// the flush of the torn stream is not counted either.
func TestTornStreamCountsOneDrop(t *testing.T) {
	n := netsim.New(netsim.Config{})
	srv, err := n.Bind(netsim.Addr{Host: 100, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, client := net.Pipe()
	client.Close() // every write to tcp now fails
	r := NewRelay[int](tcp, tcp.LocalAddr(), n, srv.Addr(), 0)
	p, err := r.Peer(0, func() Replier { return newRecordFraming(tcp, 4<<10) })
	if err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 8<<10) // larger than the write buffer
	for i := 0; i < 3; i++ {
		if err := srv.SendTo(p.port.Addr(), reply); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.Stats().DropWrite == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed write not counted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for any further count
	r.Close()
	if s := r.Stats(); s.DropWrite != 1 || s.Drops != 1 || s.TxRecords != 0 {
		t.Fatalf("DropWrite = %d, Drops = %d, TxRecords = %d; want 1, 1, 0", s.DropWrite, s.Drops, s.TxRecords)
	}
}
