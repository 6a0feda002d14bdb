// Package udpgate bridges the in-memory Slice fabric to real UDP sockets,
// so a client in another process (or on another machine) can mount the
// virtual NFS server exported by a running ensemble.
//
// It is the datagram framing of the real-wire gateway core in package
// wire: one UDP datagram carries one RPC message. Server side, a Gateway
// listens on a UDP socket and relays each remote peer through its own
// synthetic client address on the netsim fabric toward the virtual
// server — so its datagrams traverse the interposed µproxy exactly like
// local traffic. Client side, Dial returns an oncrpc.Conn over UDP,
// usable with client.NewWithConn.
package udpgate

import (
	"errors"
	"net"
	"net/netip"
	"time"

	"slice/internal/netsim"
	"slice/internal/wire"
)

const (
	// maxUDPPayload is the largest payload a UDP datagram can carry
	// (65535 minus IP and UDP headers). Read buffers are sized to it, not
	// to netsim.MaxDatagram: jumbo fabric datagrams never ride UDP.
	maxUDPPayload = 65507

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
	return errors.Join(c.SetReadBuffer(socketBuffer), c.SetWriteBuffer(socketBuffer))
}

// Stats counts gateway events; see wire.Stats.
type Stats = wire.Stats

// Gateway relays between a UDP socket and a netsim fabric. A peer is a
// remote UDP address; a peer quiet for DefaultIdleTimeout is reclaimed.
type Gateway struct {
	wire.Endpoint
	conn *net.UDPConn
}

// NewGateway starts a gateway on the given UDP listen address, forwarding
// to the fabric's virtual server address.
func NewGateway(listen string, fabric *netsim.Network, virtual netsim.Addr) (*Gateway, error) {
	return newGateway(listen, fabric, virtual, DefaultIdleTimeout)
}

// newGateway starts a gateway that reclaims peers quiet for idle.
func newGateway(listen string, fabric *netsim.Network, virtual netsim.Addr, idle time.Duration) (*Gateway, error) {
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		return nil, err
	}
	conn := pc.(*net.UDPConn)
	if err := sizeBuffers(conn); err != nil {
		conn.Close()
		return nil, err
	}
	r := wire.NewRelay[netip.AddrPort](conn, conn.LocalAddr(), fabric, virtual, idle)
	r.Go(func() { serve(r, conn) })
	return &Gateway{r, conn}, nil
}

// serve reads datagrams (raw RPC payloads) off the socket and relays
// each from its remote's peer, admitting the remote on first contact.
func serve(r *wire.Relay[netip.AddrPort], conn *net.UDPConn) {
	buf := make([]byte, maxUDPPayload)
	for {
		n, remote, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		p, err := r.Peer(remote, func() wire.Replier { return &peerWriter{conn: conn, remote: remote} })
		if err != nil {
			continue // counted as a no-peer drop
		}
		d := netsim.GetBuf(netsim.HeaderSize + n)
		copy(d[netsim.HeaderSize:], buf[:n])
		r.Send(p, d)
	}
}

// peerWriter writes one peer's replies on the gateway's shared socket.
type peerWriter struct {
	conn   *net.UDPConn
	remote netip.AddrPort
}

func (w *peerWriter) WriteMsg(payload []byte) error {
	_, err := w.conn.WriteToUDPAddrPort(payload, w.remote)
	return err
}

func (w *peerWriter) Flush() error { return nil }

// Close is a no-op: the socket is shared by every peer.
func (w *peerWriter) Close() error { return nil }

// datagramFraming is the client-side Framing of a dialed UDP socket.
// The kernel's connected-socket filter only delivers datagrams from the
// gateway.
type datagramFraming struct{ *net.UDPConn }

// ReadMsg reads one datagram straight into the payload region of a
// pooled buffer.
func (f datagramFraming) ReadMsg(hdrRoom int) ([]byte, error) {
	buf := netsim.GetBuf(hdrRoom + maxUDPPayload)
	n, err := f.Read(buf[hdrRoom:])
	if err != nil {
		netsim.FreeBuf(buf)
		return nil, err
	}
	return buf[:hdrRoom+n], nil
}

// Send writes one datagram; a datagram write is atomic, so concurrent
// callers need no lock.
func (f datagramFraming) Send(payload []byte) error {
	_, err := f.Write(payload)
	return err
}

// dial opens a client socket to a gateway's UDP address.
func dial(server string) (*net.UDPConn, error) {
	nc, err := net.Dial("udp", server)
	if err != nil {
		return nil, err
	}
	c := nc.(*net.UDPConn)
	if err := sizeBuffers(c); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Dial connects to a gateway's UDP address.
func Dial(server string) (*wire.Conn, error) {
	c, err := dial(server)
	if err != nil {
		return nil, err
	}
	return wire.NewConn(datagramFraming{c}), nil
}
