package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"slice/internal/netsim"
)

// recordFraming is the Framing of a record-marked TCP stream, on both
// the gateway and the client side.
type recordFraming struct {
	tcp net.Conn
	br  *bufio.Reader
	wmu sync.Mutex // Send writes one record whole before the next
	bw  *bufio.Writer
}

func newRecordFraming(tcp net.Conn, writeBuf int) *recordFraming {
	return &recordFraming{tcp: tcp, br: bufio.NewReaderSize(tcp, 64<<10), bw: bufio.NewWriterSize(tcp, writeBuf)}
}

// ReadMsg reassembles the next record. A read deadline that fires
// mid-record leaves the stream unsynchronizable, so the connection is
// closed; the RPC layer treats that like a dead port.
func (f *recordFraming) ReadMsg(hdrRoom int) ([]byte, error) {
	d, err := readRecord(f.br, hdrRoom)
	if ne, ok := err.(net.Error); ok && ne.Timeout() && f.br.Buffered() > 0 {
		f.tcp.Close()
	}
	return d, err
}

// WriteMsg, Flush and Send close the connection on a failed write: a
// stream with a torn record cannot be resynchronized. The error they
// return then wraps net.ErrClosed.
func (f *recordFraming) WriteMsg(payload []byte) error {
	return f.closeOnErr(writeRecord(f.bw, payload, DefaultFragSize))
}

func (f *recordFraming) Flush() error { return f.closeOnErr(f.bw.Flush()) }

func (f *recordFraming) Send(payload []byte) error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if err := f.WriteMsg(payload); err != nil {
		return err
	}
	return f.Flush()
}

func (f *recordFraming) closeOnErr(err error) error {
	if err == nil {
		return nil
	}
	f.tcp.Close()
	return fmt.Errorf("%w: %w", net.ErrClosed, err)
}

func (f *recordFraming) SetReadDeadline(t time.Time) error { return f.tcp.SetReadDeadline(t) }
func (f *recordFraming) Close() error                      { return f.tcp.Close() }

// Gateway accepts record-marked ONC-RPC TCP connections and relays each
// onto the fabric from its own synthetic client address, so the traffic
// traverses the interposed µproxy fleet. A connection's peer lives as
// long as the connection.
type Gateway struct{ Endpoint }

// NewGateway starts a gateway listening on the given TCP address,
// forwarding to the fabric's virtual server address.
func NewGateway(listen string, fabric *netsim.Network, virtual netsim.Addr) (*Gateway, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	r := NewRelay[net.Conn](ln, ln.Addr(), fabric, virtual, 0)
	r.Go(func() { acceptLoop(r, ln) })
	return &Gateway{r}, nil
}

// Port returns the TCP port the gateway listens on.
func (g *Gateway) Port() uint32 {
	if a, ok := g.Addr().(*net.TCPAddr); ok {
		return uint32(a.Port)
	}
	return 0
}

func acceptLoop(r *Relay[net.Conn], ln net.Listener) {
	for {
		tcp, err := ln.Accept()
		if err != nil {
			return
		}
		r.Go(func() { serve(r, tcp) })
	}
}

// serve relays one connection's records until it ends. Each record is
// reassembled behind datagram headroom, so it goes onto the fabric in
// place; the replies are written back 128 KiB at a time at most, so a
// burst of queued replies coalesces into few TCP writes.
func serve(r *Relay[net.Conn], tcp net.Conn) {
	f := newRecordFraming(tcp, 128<<10)
	p, err := r.Peer(tcp, func() Replier { return f })
	if err != nil {
		tcp.Close()
		return
	}
	defer r.Drop(tcp)
	for {
		d, err := f.ReadMsg(netsim.HeaderSize)
		if err != nil {
			return
		}
		r.Send(p, d)
	}
}

// Dial connects to a wire gateway's TCP address.
func Dial(server string) (*Conn, error) {
	tcp, err := net.Dial("tcp", server)
	if err != nil {
		return nil, err
	}
	return NewConn(newRecordFraming(tcp, 64<<10)), nil
}
