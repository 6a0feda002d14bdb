// Package udpgate bridges the in-memory Slice fabric to real UDP sockets,
// so a client in another process (or on another machine) can mount the
// virtual NFS server exported by a running ensemble.
//
// Server side, a Gateway listens on a UDP socket; each remote peer is
// assigned a synthetic client address on the netsim fabric, and its
// datagrams are injected toward the virtual server — which means they
// traverse the interposed µproxy exactly like local traffic. Client side,
// Dial returns an oncrpc.Conn over UDP, usable with client.NewWithConn.
package udpgate

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
)

const (
	// maxUDPPayload is the largest payload a UDP datagram can carry
	// (65535 minus IP and UDP headers). Read buffers are sized to it, not
	// to netsim.MaxDatagram: jumbo fabric datagrams never ride UDP.
	maxUDPPayload = 65507

	// synthHostBase is the base of the synthetic client host range; the
	// allocator pre-increments, so the first allocated peer host is
	// synthHostBase+1.
	synthHostBase = 0x7F000000

	// connPlaceholderHost is the fabric host a client-side Conn reports in
	// Addr(). It sits below synthHostBase so it can never collide with a
	// synthetic peer host: the placeholder used to be 0x7F000001, exactly
	// the first host a Gateway hands out.
	connPlaceholderHost = 0x7E000001

	// DefaultIdleTimeout is how long a peer may stay quiet before its
	// fabric port and pump goroutine are reclaimed.
	DefaultIdleTimeout = 2 * time.Minute

	// socketBuffer is the kernel send and receive buffer size both ends
	// of a gateway ask for: room for a 64-chunk window of 64 KiB
	// datagrams. A windowed client overflows the Linux default (212992
	// bytes); the overflow is lost without a trace and its calls stall
	// on retransmission timeouts. The kernel caps the request at
	// net.core.rmem_max and wmem_max.
	socketBuffer = 64 * (64 << 10)
)

// sizeBuffers asks the kernel for socketBuffer bytes of send and
// receive buffer on c.
func sizeBuffers(c *net.UDPConn) error {
	if err := c.SetReadBuffer(socketBuffer); err != nil {
		return err
	}
	return c.SetWriteBuffer(socketBuffer)
}

// synthHosts allocates synthetic peer hosts process-wide, not per
// gateway: a fleet runs one gateway per member over one shared fabric,
// and per-gateway counters would hand peers of different members the
// same host. Combined with netsim's ephemeral-port recycling (an evicted
// peer's port is freed for reuse), that could give two distinct remote
// clients identical {host, port} fabric addresses — which poisons the
// servers' duplicate-request caches across clients. Monotonic
// process-wide hosts keep every peer's fabric address unique for the
// life of the process.
var synthHosts atomic.Uint32

// Stats counts gateway events, primarily datagrams dropped on the relay
// path. Drops here are invisible to both endpoints (UDP semantics), so
// they are counted and exposed rather than silently discarded.
type Stats struct {
	Peers        int    // live synthetic peers
	DropNoPeer   uint64 // inbound datagrams dropped: peer allocation failed
	DropInject   uint64 // inbound datagrams dropped: fabric send failed
	DropWrite    uint64 // outbound replies dropped: UDP write failed
	PeersEvicted uint64 // peers reclaimed by idle eviction
}

// gateHists are the obs histograms the gateway records into; they are
// counters in histogram clothing (every sample is 1, count is the value).
type gateHists struct {
	dropNoPeer *obs.Histogram
	dropInject *obs.Histogram
	dropWrite  *obs.Histogram
	evicted    *obs.Histogram
}

// Gateway relays between a UDP socket and a netsim fabric.
type Gateway struct {
	conn    *net.UDPConn
	fabric  *netsim.Network
	virtual netsim.Addr

	idleNanos atomic.Int64
	hists     atomic.Pointer[gateHists]

	dropNoPeer atomic.Uint64
	dropInject atomic.Uint64
	dropWrite  atomic.Uint64
	evicted    atomic.Uint64

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

type peer struct {
	remote   *net.UDPAddr
	port     *netsim.Port
	lastUsed atomic.Int64 // UnixNano of the last datagram in either direction
}

func (p *peer) touch() { p.lastUsed.Store(time.Now().UnixNano()) }

// NewGateway starts a gateway on the given UDP listen address, forwarding
// to the fabric's virtual server address.
func NewGateway(listen string, fabric *netsim.Network, virtual netsim.Addr) (*Gateway, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	if err := sizeBuffers(conn); err != nil {
		conn.Close()
		return nil, err
	}
	g := &Gateway{
		conn:    conn,
		fabric:  fabric,
		virtual: virtual,
		peers:   make(map[string]*peer),
		stop:    make(chan struct{}),
	}
	g.idleNanos.Store(int64(DefaultIdleTimeout))
	g.wg.Add(2)
	go g.pumpIn()
	go g.janitor()
	return g, nil
}

// SetIdleTimeout changes the idle-peer eviction threshold; it takes
// effect on the janitor's next sweep. Zero or negative disables eviction.
func (g *Gateway) SetIdleTimeout(d time.Duration) { g.idleNanos.Store(int64(d)) }

// SetObs attaches an obs registry; drop and eviction counters are
// recorded there (as count-only histograms) in addition to Stats.
func (g *Gateway) SetObs(r *obs.Registry) {
	if r == nil {
		g.hists.Store(nil)
		return
	}
	g.hists.Store(&gateHists{
		dropNoPeer: r.Hist("gate.drop_nopeer"),
		dropInject: r.Hist("gate.drop_inject"),
		dropWrite:  r.Hist("gate.drop_write"),
		evicted:    r.Hist("gate.peer_evicted"),
	})
}

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	peers := len(g.peers)
	g.mu.Unlock()
	return Stats{
		Peers:        peers,
		DropNoPeer:   g.dropNoPeer.Load(),
		DropInject:   g.dropInject.Load(),
		DropWrite:    g.dropWrite.Load(),
		PeersEvicted: g.evicted.Load(),
	}
}

// NumPeers returns the number of live synthetic peers.
func (g *Gateway) NumPeers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.peers)
}

// Addr returns the UDP address the gateway listens on.
func (g *Gateway) Addr() net.Addr { return g.conn.LocalAddr() }

// Close stops the gateway.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.stop)
	for _, p := range g.peers {
		p.port.Close()
	}
	g.mu.Unlock()
	g.conn.Close()
	g.wg.Wait()
}

// pumpIn reads UDP datagrams (raw RPC payloads) and injects them into the
// fabric addressed to the virtual server. Both failure modes — peer
// allocation and fabric send — are counted: a drop here looks like
// network loss to the endpoints, so it must at least be observable.
func (g *Gateway) pumpIn() {
	defer g.wg.Done()
	buf := make([]byte, maxUDPPayload)
	for {
		n, remote, err := g.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		p, err := g.peerFor(remote)
		if err != nil {
			g.dropNoPeer.Add(1)
			if h := g.hists.Load(); h != nil {
				h.dropNoPeer.Record(1)
			}
			continue
		}
		p.touch()
		// SendTo copies the payload into a pooled datagram buffer; no
		// intermediate allocation is needed.
		if err := p.port.SendTo(g.virtual, buf[:n]); err != nil {
			g.dropInject.Add(1)
			if h := g.hists.Load(); h != nil {
				h.dropInject.Record(1)
			}
		}
	}
}

// peerFor returns (allocating on first contact) the fabric endpoint for a
// remote UDP address.
func (g *Gateway) peerFor(remote *net.UDPAddr) (*peer, error) {
	key := remote.String()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, fmt.Errorf("udpgate: gateway closed")
	}
	if p, ok := g.peers[key]; ok {
		return p, nil
	}
	port, err := g.fabric.BindAny(synthHostBase + synthHosts.Add(1))
	if err != nil {
		return nil, err
	}
	p := &peer{remote: remote, port: port}
	p.touch()
	g.peers[key] = p
	g.wg.Add(1)
	go g.pumpOut(p)
	return p, nil
}

// pumpOut forwards replies from the fabric back to the remote peer. It
// exits when the peer's port closes (gateway shutdown or idle eviction).
func (g *Gateway) pumpOut(p *peer) {
	defer g.wg.Done()
	for {
		d, err := p.port.Recv(0)
		if err != nil {
			return
		}
		p.touch()
		_, err = g.conn.WriteToUDP(netsim.Payload(d), p.remote)
		netsim.FreeBuf(d)
		if err != nil {
			// A failed UDP write is one lost reply, not a dead peer; RPC
			// retransmission recovers. Count it and keep pumping.
			g.dropWrite.Add(1)
			if h := g.hists.Load(); h != nil {
				h.dropWrite.Record(1)
			}
		}
	}
}

// janitor periodically reclaims peers that have been idle longer than the
// configured timeout: the peer's fabric port is closed, which drains its
// pumpOut goroutine. Without this, every remote address that ever sent a
// datagram pinned a port and a goroutine for the life of the gateway.
func (g *Gateway) janitor() {
	defer g.wg.Done()
	for {
		idle := time.Duration(g.idleNanos.Load())
		tick := idle / 4
		if tick <= 0 || tick > 15*time.Second {
			tick = 15 * time.Second
		}
		if tick < 5*time.Millisecond {
			tick = 5 * time.Millisecond
		}
		select {
		case <-g.stop:
			return
		case <-time.After(tick):
		}
		if idle <= 0 {
			continue
		}
		g.evictIdle(time.Now(), idle)
	}
}

func (g *Gateway) evictIdle(now time.Time, idle time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	for key, p := range g.peers {
		if now.Sub(time.Unix(0, p.lastUsed.Load())) < idle {
			continue
		}
		delete(g.peers, key)
		p.port.Close()
		g.evicted.Add(1)
		if h := g.hists.Load(); h != nil {
			h.evicted.Record(1)
		}
	}
}

// Conn is a client-side oncrpc.Conn over UDP.
type Conn struct {
	conn *net.UDPConn

	// peer is the fabric address the caller last sent to. The dialed UDP
	// socket only delivers datagrams from the gateway (the kernel's
	// connected-socket filter is the real peer check), so received
	// replies are stamped with this address — the fabric-level reflection
	// the RPC client's peer-address check expects.
	mu   sync.Mutex
	peer netsim.Addr
}

// Dial connects to a gateway's UDP address.
func Dial(server string) (*Conn, error) {
	addr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	if err := sizeBuffers(c); err != nil {
		c.Close()
		return nil, err
	}
	return &Conn{conn: c}, nil
}

// SendTo implements oncrpc.Conn. The destination fabric address is
// implied by the dialed gateway (it always targets the virtual server),
// so dst is ignored.
func (c *Conn) SendTo(dst netsim.Addr, payload []byte) error {
	c.mu.Lock()
	c.peer = dst
	c.mu.Unlock()
	_, err := c.conn.Write(payload)
	return err
}

// Recv implements oncrpc.Conn. The datagram is read directly into the
// payload region of a single pooled header-prefixed buffer — the receiver
// returns it to the pool with netsim.FreeBuf, so the steady-state receive
// path allocates nothing.
func (c *Conn) Recv(timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	} else {
		if err := c.conn.SetReadDeadline(time.Time{}); err != nil {
			return nil, err
		}
	}
	buf := netsim.GetBuf(netsim.HeaderSize + maxUDPPayload)
	n, err := c.conn.Read(buf[netsim.HeaderSize:])
	if err != nil {
		netsim.FreeBuf(buf)
		return nil, err
	}
	out := buf[:netsim.HeaderSize+n]
	c.mu.Lock()
	src := c.peer
	c.mu.Unlock()
	binary.BigEndian.PutUint32(out[netsim.OffSrcHost:], src.Host)
	binary.BigEndian.PutUint16(out[netsim.OffSrcPort:], src.Port)
	return out, nil
}

// Addr implements oncrpc.Conn with a placeholder fabric address, chosen
// outside the gateway's synthetic peer range.
func (c *Conn) Addr() netsim.Addr { return netsim.Addr{Host: connPlaceholderHost, Port: 1} }

// Close implements oncrpc.Conn.
func (c *Conn) Close() { _ = c.conn.Close() }
