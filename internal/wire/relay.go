package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
)

// Synthetic fabric hosts. Every real-wire client — a UDP remote or a TCP
// connection — is relayed from its own synthetic host, and every
// gateway of both transports takes hosts from the one process-wide
// counter below, never from a per-gateway or per-transport one: a fleet
// runs one gateway per member over one shared fabric, and netsim
// recycles ephemeral ports, so two counters sooner or later hand two
// distinct clients the same {host, port} source address. The servers'
// duplicate-request caches key on that address, so a shared address
// poisons them across clients.
//
// The range sits far above every fixed fabric host (the ensemble's host
// plan uses small numbers) and above PlaceholderHost. The counter wraps
// inside it, so a host is reused only after SynthHostSpan-1 newer
// allocations: millions of peers later, far past any duplicate-request
// cache lifetime.
const (
	SynthHostFirst = 0x7F000000
	SynthHostSpan  = 1 << 24

	// PlaceholderHost is the fabric host a client-side Conn reports in
	// Addr(). It lies below the synthetic range, so it never equals a
	// host a gateway hands out.
	PlaceholderHost = 0x7E000001
)

// synthHosts counts synthetic host allocations. SynthHostSpan divides
// 2^32, so the cycle stays unbroken when the counter itself overflows.
var synthHosts atomic.Uint32

// nextSynthHost allocates the next synthetic peer host.
func nextSynthHost() uint32 { return SynthHostFirst + synthHosts.Add(1)%SynthHostSpan }

// Stats counts one gateway's relaying. A UDP datagram and a TCP record
// both count as one record. Drops here look like network loss to both
// endpoints (RPC retransmission recovers), so they are counted rather
// than discarded without a trace.
type Stats struct {
	Peers        int    // live peers: UDP remotes or TCP connections
	TotalConns   uint64 // peers ever admitted
	PeersEvicted uint64 // UDP peers reclaimed by idle eviction
	RxRecords    uint64 // messages relayed from clients
	TxRecords    uint64 // messages written to clients
	RxBytes      uint64
	TxBytes      uint64
	MaxRxRecord  uint64 // largest single message received
	MaxTxRecord  uint64 // largest single message sent
	DropNoPeer   uint64 // inbound dropped: peer allocation failed
	DropInject   uint64 // inbound dropped: fabric send failed
	DropWrite    uint64 // outbound dropped: write to the client failed
	Drops        uint64 // DropNoPeer + DropInject + DropWrite
}

// tally is one relay counter: a count of events, the sum and maximum of
// their sizes, and — once SetObs attaches a registry — a histogram of
// them. Drops and evictions are tallies of size 1.
type tally struct {
	n, sum, max atomic.Uint64
	hist        atomic.Pointer[obs.Histogram]
}

func (t *tally) add(v uint64) {
	t.n.Add(1)
	t.sum.Add(v)
	for cur := t.max.Load(); v > cur && !t.max.CompareAndSwap(cur, v); cur = t.max.Load() {
	}
	if h := t.hist.Load(); h != nil {
		h.Record(v)
	}
}

// Replier writes replies to one client. WriteMsg may buffer until
// Flush; the relay flushes once per wakeup of a peer's reply pump, so
// every reply already queued goes out in one burst. An error that
// leaves the transport closed wraps net.ErrClosed: the relay then stops
// writing to it. Close ends the client's transport when the relay
// retires the peer.
type Replier interface {
	WriteMsg(payload []byte) error
	Flush() error
	Close() error
}

// Peer is one client's synthetic endpoint on the fabric.
type Peer struct {
	port     *netsim.Port
	w        Replier
	born     time.Time
	lastUsed atomic.Int64  // UnixNano of the last message in either direction
	rx, tx   atomic.Uint64 // bytes relayed over the peer's life
}

func (p *Peer) touch() { p.lastUsed.Store(time.Now().UnixNano()) }

// Endpoint is the public face of a real-wire gateway of either
// transport.
type Endpoint interface {
	Addr() net.Addr // the address the transport listens on
	Stats() Stats
	NumPeers() int
	SetObs(reg *obs.Registry)
	Close()
}

// Relay is the transport-independent core of a real-wire gateway. It
// gives every client (keyed by K: a UDP remote address or a TCP
// connection) a synthetic fabric endpoint, relays the client's messages
// to the virtual server through it, and pumps the fabric's replies back
// through the client's Replier. The transport supplies the framing: it
// reads messages, calls Peer and then Send for each one, and for a
// connection calls Drop when it ends.
type Relay[K comparable] struct {
	fabric  *netsim.Network
	virtual netsim.Addr
	ln      io.Closer
	addr    net.Addr

	idle       time.Duration
	totalPeers atomic.Uint64

	rx, tx                 tally // message sizes in each direction
	connRx, connTx, connNS tally // per-peer byte totals and lifetime (ns)
	noPeer, inject, write  tally // drops
	evicted                tally

	mu     sync.Mutex
	peers  map[K]*Peer
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewRelay returns a relay toward virtual on fabric for a transport
// listening at addr; Close closes ln. A positive idle reclaims peers
// quiet for that long (datagram clients never say goodbye); zero keeps
// each peer until Drop.
func NewRelay[K comparable](ln io.Closer, addr net.Addr, fabric *netsim.Network, virtual netsim.Addr, idle time.Duration) *Relay[K] {
	r := &Relay[K]{
		fabric:  fabric,
		virtual: virtual,
		ln:      ln,
		addr:    addr,
		idle:    idle,
		peers:   make(map[K]*Peer),
		stop:    make(chan struct{}),
	}
	if idle > 0 {
		r.Go(r.janitor)
	}
	return r
}

// Go runs f on a goroutine that Close waits for.
func (r *Relay[K]) Go(f func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		f()
	}()
}

// SetObs attaches an obs registry (nil detaches it); message sizes,
// per-peer totals and lifetimes, drops and evictions are recorded there
// as well as in Stats.
func (r *Relay[K]) SetObs(reg *obs.Registry) {
	for _, t := range []struct {
		name string
		t    *tally
	}{
		{obs.HistWireRxRecord, &r.rx}, {obs.HistWireTxRecord, &r.tx},
		{obs.HistWireConnRx, &r.connRx}, {obs.HistWireConnTx, &r.connTx}, {obs.HistWireConnNS, &r.connNS},
		{"gate.drop_nopeer", &r.noPeer}, {"gate.drop_inject", &r.inject},
		{"gate.drop_write", &r.write}, {"gate.peer_evicted", &r.evicted},
	} {
		var h *obs.Histogram
		if reg != nil {
			h = reg.Hist(t.name)
		}
		t.t.hist.Store(h)
	}
}

// Stats returns a snapshot of the relay counters.
func (r *Relay[K]) Stats() Stats {
	s := Stats{
		Peers:        r.NumPeers(),
		TotalConns:   r.totalPeers.Load(),
		PeersEvicted: r.evicted.n.Load(),
		RxRecords:    r.rx.n.Load(),
		TxRecords:    r.tx.n.Load(),
		RxBytes:      r.rx.sum.Load(),
		TxBytes:      r.tx.sum.Load(),
		MaxRxRecord:  r.rx.max.Load(),
		MaxTxRecord:  r.tx.max.Load(),
		DropNoPeer:   r.noPeer.n.Load(),
		DropInject:   r.inject.n.Load(),
		DropWrite:    r.write.n.Load(),
	}
	s.Drops = s.DropNoPeer + s.DropInject + s.DropWrite
	return s
}

// NumPeers returns the number of live peers.
func (r *Relay[K]) NumPeers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.peers)
}

// Addr returns the address the transport listens on.
func (r *Relay[K]) Addr() net.Addr { return r.addr }

// Close stops the relay: every peer is retired, the listener closed,
// and every goroutine the relay started is waited for.
func (r *Relay[K]) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	for key, p := range r.peers {
		delete(r.peers, key)
		r.retire(p)
	}
	r.mu.Unlock()
	r.ln.Close()
	r.wg.Wait()
}

// Peer returns key's live peer. On a client's first contact it admits
// the client: it gives it its synthetic fabric endpoint and starts the
// pump that writes its replies through newW(). A failed admission is
// counted as a no-peer drop.
func (r *Relay[K]) Peer(key K, newW func() Replier) (*Peer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[key]; p != nil {
		return p, nil
	}
	var port *netsim.Port
	err := errRelayClosed
	if !r.closed {
		port, err = r.fabric.BindAny(nextSynthHost())
	}
	if err != nil {
		r.noPeer.add(1)
		return nil, err
	}
	p := &Peer{port: port, w: newW(), born: time.Now()}
	p.touch()
	r.peers[key] = p
	r.totalPeers.Add(1)
	r.Go(func() { r.pump(p) })
	return p, nil
}

var errRelayClosed = errors.New("wire: gateway closed")

// Drop retires key's peer, if it is still live.
func (r *Relay[K]) Drop(key K) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.peers[key]; ok {
		delete(r.peers, key)
		r.retire(p)
	}
}

// retire closes a peer just removed from the table: its fabric port
// (which ends its pump) and its transport. The caller holds r.mu.
func (r *Relay[K]) retire(p *Peer) {
	p.port.Close()
	_ = p.w.Close()
	r.connRx.add(p.rx.Load())
	r.connTx.add(p.tx.Load())
	r.connNS.add(uint64(time.Since(p.born)))
}

// Send relays one client message to the virtual server. d is a pooled
// datagram holding the message after netsim.HeaderSize bytes of
// headroom; the fabric takes ownership of it.
func (r *Relay[K]) Send(p *Peer, d []byte) {
	n := uint64(len(d) - netsim.HeaderSize)
	p.touch()
	p.rx.Add(n)
	r.rx.add(n)
	if err := p.port.SendDatagram(r.virtual, d); err != nil {
		r.inject.add(1)
	}
}

// pump writes the fabric's replies to p's client until p's port closes.
// Each wakeup writes every reply already queued and flushes once. A
// failed write counts one drop and ends the wakeup; the replies still
// queued wait for the next. A failed datagram write is one lost reply,
// and RPC retransmission recovers. A failure that closes the transport
// (a stream with a torn record) ends the pump: its reader then sees the
// connection end and retires the peer.
func (r *Relay[K]) pump(p *Peer) {
	for {
		d, err := p.port.Recv(0)
		if err != nil {
			return
		}
		p.touch()
		for {
			if err = r.reply(p, d); err != nil {
				break
			}
			var ok bool
			if d, ok = p.port.TryRecv(); !ok {
				err = p.w.Flush()
				break
			}
		}
		if err != nil {
			r.write.add(1)
			if errors.Is(err, net.ErrClosed) {
				return
			}
		}
	}
}

// reply writes one reply datagram's payload to p's client and frees it.
func (r *Relay[K]) reply(p *Peer, d []byte) error {
	payload := netsim.Payload(d)
	n := uint64(len(payload))
	err := p.w.WriteMsg(payload)
	netsim.FreeBuf(d)
	if err == nil {
		p.tx.Add(n)
		r.tx.add(n)
	}
	return err
}

// janitor periodically reclaims peers idle longer than the threshold:
// without it, every remote address that ever sent a datagram would pin
// a fabric port and a pump goroutine for the life of the gateway.
func (r *Relay[K]) janitor() {
	tick := min(max(r.idle/4, 5*time.Millisecond), 15*time.Second)
	for {
		select {
		case <-r.stop:
			return
		case <-time.After(tick):
		}
		now := time.Now()
		r.mu.Lock()
		for key, p := range r.peers {
			if now.Sub(time.Unix(0, p.lastUsed.Load())) >= r.idle {
				delete(r.peers, key)
				r.retire(p)
				r.evicted.add(1)
			}
		}
		r.mu.Unlock()
	}
}
