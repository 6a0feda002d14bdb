package wire

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
)

// synthHostBase is the base of the gateway's synthetic client host
// range. It is disjoint from udpgate's (0x7F000000): an ensemble serving
// both transports must never hand two transports the same fabric host.
const synthHostBase = 0x7F100000

// synthHosts allocates synthetic hosts process-wide, not per gateway: a
// fleet runs one gateway per member over one shared fabric, and
// per-gateway counters would hand connections on different members the
// same host. Since netsim recycles ephemeral ports after close, two such
// connections could end up with identical {host, port} source addresses
// — and identical addresses poison the servers' duplicate-request
// caches across clients. Monotonic process-wide hosts make every
// connection's fabric address unique for the life of the process.
var synthHosts atomic.Uint32

// Stats counts gateway activity. Record maxima are what the conformance
// tests assert: a transfer whose records exceed the old 96 KiB datagram
// cap proves the stream path is no longer datagram-bound.
type Stats struct {
	Conns       int    // live connections
	TotalConns  uint64 // connections ever accepted
	RxRecords   uint64 // records read from clients
	TxRecords   uint64 // records written to clients
	RxBytes     uint64
	TxBytes     uint64
	MaxRxRecord uint64 // largest single record received
	MaxTxRecord uint64 // largest single record sent
	Drops       uint64 // records dropped: fabric send or TCP write failed
}

// gwHists are the obs histograms a gateway records into.
type gwHists struct {
	rxRecord *obs.Histogram // bytes per received record
	txRecord *obs.Histogram // bytes per sent record
	connRx   *obs.Histogram // bytes per connection lifetime, inbound
	connTx   *obs.Histogram // bytes per connection lifetime, outbound
	connNS   *obs.Histogram // connection lifetime in nanoseconds
}

// Gateway accepts record-marked ONC-RPC TCP connections and relays each
// onto the netsim fabric under a synthetic per-connection client
// address, so the traffic traverses the interposed µproxy fleet.
type Gateway struct {
	ln      net.Listener
	fabric  *netsim.Network
	virtual netsim.Addr

	fragSize int
	hists    atomic.Pointer[gwHists]

	totalConns  atomic.Uint64
	rxRecords   atomic.Uint64
	txRecords   atomic.Uint64
	rxBytes     atomic.Uint64
	txBytes     atomic.Uint64
	maxRxRecord atomic.Uint64
	maxTxRecord atomic.Uint64
	drops       atomic.Uint64

	mu     sync.Mutex
	conns  map[*gwConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

type gwConn struct {
	tcp  net.Conn
	port *netsim.Port
}

// NewGateway starts a gateway listening on the given TCP address,
// forwarding to the fabric's virtual server address.
func NewGateway(listen string, fabric *netsim.Network, virtual netsim.Addr) (*Gateway, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		ln:       ln,
		fabric:   fabric,
		virtual:  virtual,
		fragSize: DefaultFragSize,
		conns:    make(map[*gwConn]struct{}),
	}
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// SetObs attaches an obs registry for per-connection wire histograms.
func (g *Gateway) SetObs(r *obs.Registry) {
	if r == nil {
		g.hists.Store(nil)
		return
	}
	g.hists.Store(&gwHists{
		rxRecord: r.Hist(obs.HistWireRxRecord),
		txRecord: r.Hist(obs.HistWireTxRecord),
		connRx:   r.Hist(obs.HistWireConnRx),
		connTx:   r.Hist(obs.HistWireConnTx),
		connNS:   r.Hist(obs.HistWireConnNS),
	})
}

// Addr returns the TCP address the gateway listens on.
func (g *Gateway) Addr() net.Addr { return g.ln.Addr() }

// Port returns the TCP port the gateway listens on.
func (g *Gateway) Port() uint32 {
	if a, ok := g.ln.Addr().(*net.TCPAddr); ok {
		return uint32(a.Port)
	}
	return 0
}

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	conns := len(g.conns)
	g.mu.Unlock()
	return Stats{
		Conns:       conns,
		TotalConns:  g.totalConns.Load(),
		RxRecords:   g.rxRecords.Load(),
		TxRecords:   g.txRecords.Load(),
		RxBytes:     g.rxBytes.Load(),
		TxBytes:     g.txBytes.Load(),
		MaxRxRecord: g.maxRxRecord.Load(),
		MaxTxRecord: g.maxTxRecord.Load(),
		Drops:       g.drops.Load(),
	}
}

// Close stops the gateway and tears down every connection.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	for c := range g.conns {
		c.tcp.Close()
		c.port.Close()
	}
	g.mu.Unlock()
	g.ln.Close()
	g.wg.Wait()
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		tcp, err := g.ln.Accept()
		if err != nil {
			return
		}
		c, err := g.admit(tcp)
		if err != nil {
			tcp.Close()
			continue
		}
		g.totalConns.Add(1)
		g.wg.Add(2)
		go g.connReader(c)
		go g.connWriter(c)
	}
}

// admit allocates the connection's synthetic fabric endpoint.
func (g *Gateway) admit(tcp net.Conn) (*gwConn, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, netsim.ErrClosed
	}
	port, err := g.fabric.BindAny(synthHostBase + synthHosts.Add(1))
	if err != nil {
		return nil, err
	}
	c := &gwConn{tcp: tcp, port: port}
	g.conns[c] = struct{}{}
	return c, nil
}

// drop removes a connection; idempotent across the reader and writer.
func (g *Gateway) drop(c *gwConn) {
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
	c.tcp.Close()
	c.port.Close()
}

// connReader reassembles records off the TCP stream and sends each onto
// the fabric toward the virtual server from the connection's synthetic
// address, so the µproxy fleet intercepts it like any client datagram.
func (g *Gateway) connReader(c *gwConn) {
	defer g.wg.Done()
	defer g.drop(c)

	start := time.Now()
	var connRx uint64
	defer func() {
		if h := g.hists.Load(); h != nil {
			h.connRx.Record(connRx)
			h.connNS.Record(uint64(time.Since(start)))
		}
	}()

	br := bufio.NewReaderSize(c.tcp, 64<<10)
	for {
		// The record is reassembled behind datagram headroom, so it goes
		// onto the fabric in place.
		d, err := readRecord(br, netsim.HeaderSize)
		if err != nil {
			return
		}
		n := uint64(len(d) - netsim.HeaderSize)
		g.rxRecords.Add(1)
		g.rxBytes.Add(n)
		connRx += n
		maxUp(&g.maxRxRecord, n)
		if h := g.hists.Load(); h != nil {
			h.rxRecord.Record(n)
		}
		// The fabric takes ownership of d; drops (e.g. a record larger
		// than the fabric MTU) are counted, and RPC retransmission
		// recovers exactly as for datagram loss.
		if err := c.port.SendDatagram(g.virtual, d); err != nil {
			g.drops.Add(1)
		}
	}
}

// connWriter drains the connection's fabric port and writes each reply
// payload as one record, coalescing everything already queued into a
// single flush (one TCP write burst per wakeup, not per record).
func (g *Gateway) connWriter(c *gwConn) {
	defer g.wg.Done()
	defer g.drop(c)

	var connTx uint64
	defer func() {
		if h := g.hists.Load(); h != nil {
			h.connTx.Record(connTx)
		}
	}()

	bw := bufio.NewWriterSize(c.tcp, 128<<10)
	for {
		d, err := c.port.Recv(0)
		if err != nil {
			return
		}
		for {
			if err := g.writeOne(bw, d, &connTx); err != nil {
				g.drops.Add(1)
				return
			}
			var ok bool
			if d, ok = c.port.TryRecv(); !ok {
				break
			}
		}
		if err := bw.Flush(); err != nil {
			g.drops.Add(1)
			return
		}
	}
}

func (g *Gateway) writeOne(bw *bufio.Writer, d []byte, connTx *uint64) error {
	payload := netsim.Payload(d)
	n := uint64(len(payload))
	err := writeRecord(bw, payload, g.fragSize)
	netsim.FreeBuf(d)
	if err != nil {
		return err
	}
	g.txRecords.Add(1)
	g.txBytes.Add(n)
	*connTx += n
	maxUp(&g.maxTxRecord, n)
	if h := g.hists.Load(); h != nil {
		h.txRecord.Record(n)
	}
	return nil
}

func maxUp(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
