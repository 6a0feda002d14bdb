package wire

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
)

// Framing delimits RPC messages on a client's transport: one datagram
// per message over UDP, one RFC 1831 record per message over TCP.
type Framing interface {
	// Send writes one message whole and pushes it onto the wire. It may
	// be called concurrently.
	Send(payload []byte) error
	// ReadMsg reads the next message into a pooled buffer behind hdrRoom
	// bytes of headroom; the caller frees it with netsim.FreeBuf.
	ReadMsg(hdrRoom int) ([]byte, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// Conn is a client-side oncrpc.Conn over a Framing, usable with
// client.NewWithConn. The transport itself is the peer check (only the
// dialed gateway can answer on it), so each received message is stamped
// with the last-sent destination address: the fabric-level reflection
// the RPC client's peer-address check expects.
type Conn struct {
	f    Framing
	peer atomic.Uint64 // last destination: host<<16 | port
}

// NewConn returns a client Conn over f.
func NewConn(f Framing) *Conn { return &Conn{f: f} }

// SendTo implements oncrpc.Conn. The destination fabric address is
// implied by the dialed gateway (it always targets the virtual server),
// so dst is only recorded for reply stamping.
func (c *Conn) SendTo(dst netsim.Addr, payload []byte) error {
	c.peer.Store(uint64(dst.Host)<<16 | uint64(dst.Port))
	return c.f.Send(payload)
}

// Recv implements oncrpc.Conn: it reads one message into a pooled
// header-prefixed buffer, so the steady-state receive path allocates
// nothing, and stamps the source address.
func (c *Conn) Recv(timeout time.Duration) ([]byte, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.f.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	d, err := c.f.ReadMsg(netsim.HeaderSize)
	if err != nil {
		return nil, err
	}
	src := c.peer.Load()
	binary.BigEndian.PutUint32(d[netsim.OffSrcHost:], uint32(src>>16))
	binary.BigEndian.PutUint16(d[netsim.OffSrcPort:], uint16(src))
	return d, nil
}

// Addr implements oncrpc.Conn with a placeholder fabric address outside
// the synthetic peer range.
func (c *Conn) Addr() netsim.Addr { return netsim.Addr{Host: PlaceholderHost, Port: 1} }

// Close implements oncrpc.Conn.
func (c *Conn) Close() { _ = c.f.Close() }
