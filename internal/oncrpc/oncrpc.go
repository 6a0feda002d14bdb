// Package oncrpc implements the ONC-RPC-style remote procedure call layer
// that carries the Slice file protocol over the datagram network.
//
// The wire format follows RFC 1831's essentials: every message begins with
// a transaction id (xid) and a message type; calls carry program, version,
// and procedure numbers ahead of the argument body; replies carry an accept
// status ahead of the result body. Field offsets are fixed and exported so
// the µproxy can locate the procedure number and argument body of a call
// within a raw datagram without a general decoder.
//
// Clients retransmit on timeout with exponential backoff — the end-to-end
// recovery the Slice architecture relies on when the µproxy or the network
// drops packets (§2.1). Servers keep a duplicate-request cache so that
// retransmitted non-idempotent operations (e.g. CREATE, REMOVE) observe
// their original reply rather than re-executing. Replies to idempotent
// NFS procedures (nfsproto.Idempotent: READ, LOOKUP, GETATTR, ...) are
// not kept; their retransmissions simply execute again.
package oncrpc

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/xdr"
)

// Message types.
const (
	MsgCall  = 0
	MsgReply = 1
)

// Reply accept status (RFC 1831 accept_stat).
const (
	AcceptSuccess      = 0
	AcceptProgUnavail  = 1
	AcceptProgMismatch = 2
	AcceptProcUnavail  = 3
	AcceptGarbageArgs  = 4
	AcceptSystemErr    = 5
)

// Byte offsets of call header fields within an RPC payload, exported for
// interposed rewriters.
const (
	OffXid      = 0
	OffMsgType  = 4
	OffProgram  = 8
	OffVersion  = 12
	OffProc     = 16
	CallHeader  = 20 // call body begins here
	OffAccept   = 8  // within a reply
	ReplyHeader = 12 // reply body begins here
)

// EncodeCall assembles an RPC call message in a pooled buffer (netsim
// datagram pool memory). The caller owns the buffer and returns it with
// netsim.FreeBuf once the message has been sent.
func EncodeCall(xid, prog, vers, proc uint32, args func(*xdr.Encoder)) []byte {
	return encodeCall(xid, prog, vers, proc, args).Bytes()
}

// encodeCall starts a pooled call encoder; the trace trailer, if any, is
// appended to it before the caller takes the bytes.
func encodeCall(xid, prog, vers, proc uint32, args func(*xdr.Encoder)) *xdr.Encoder {
	e := xdr.NewPooledEncoder(netsim.BufPool{}, 0, CallHeader+128)
	e.PutUint32(xid)
	e.PutUint32(MsgCall)
	e.PutUint32(prog)
	e.PutUint32(vers)
	e.PutUint32(proc)
	if args != nil {
		args(e)
	}
	return e
}

// EncodeReply assembles an RPC reply message in a pooled buffer, owned by
// the caller like EncodeCall's.
func EncodeReply(xid, accept uint32, res func(*xdr.Encoder)) []byte {
	return encodeReply(0, xid, accept, res).Bytes()
}

// EncodeReplyDatagram encodes a reply from src to dst straight into a
// pooled datagram, header and checksum included, ready for
// netsim.Network.Inject: the reply is encoded once, in place, with no
// payload buffer to copy out of. The caller owns the datagram.
func EncodeReplyDatagram(src, dst netsim.Addr, xid, accept uint32, res func(*xdr.Encoder)) ([]byte, error) {
	d := encodeReply(netsim.HeaderSize, xid, accept, res).Bytes()
	if err := netsim.Seal(d, src, dst); err != nil {
		netsim.FreeBuf(d)
		return nil, err
	}
	return d, nil
}

// encodeReply starts a pooled reply encoder with headroom bytes reserved
// ahead of the message.
func encodeReply(headroom int, xid, accept uint32, res func(*xdr.Encoder)) *xdr.Encoder {
	e := xdr.NewPooledEncoder(netsim.BufPool{}, headroom, headroom+ReplyHeader+128)
	e.PutUint32(xid)
	e.PutUint32(MsgReply)
	e.PutUint32(accept)
	if res != nil && accept == AcceptSuccess {
		res(e)
	}
	return e
}

// Call is a decoded call header plus its argument body. When the call
// carried the optional trace trailer (see trace.go), the server strips
// it before dispatch and records the trace id here.
type Call struct {
	Xid     uint32
	Program uint32
	Version uint32
	Proc    uint32
	Body    []byte // aliases the datagram payload
	Trace   uint64 // trace id from the call trailer, if Traced
	Traced  bool   // the call carried a trace trailer
}

// Reply is a decoded reply header plus its result body.
//
// A reply returned by a Client call is a pooled datagram the caller
// owns: Body, and every decoded field that aliases it (READ data,
// opaque results), stays valid until the caller calls Release, which
// returns the datagram to the netsim pool. Release is a no-op on a
// reply that owns no datagram (a zero Reply, or one from ParseReply).
type Reply struct {
	Xid    uint32
	Accept uint32
	Body   []byte // aliases the datagram payload

	// d is the pooled datagram backing Body when the reply came off a
	// Client's receive loop; nil otherwise.
	d []byte
	// stray marks the client's internal retransmission prompt: a reply
	// to the call arrived from an address it was never sent to.
	stray bool
}

// Release returns the reply's datagram to the pool. The caller must not
// touch Body, or anything decoded from it, afterwards, and must release
// a reply exactly once.
func (r Reply) Release() { netsim.FreeBuf(r.d) }

// ErrBadMessage indicates a malformed RPC payload.
var ErrBadMessage = errors.New("oncrpc: bad message")

// IsCall reports whether the payload is an RPC call (vs a reply). It reads
// only the message-type field.
func IsCall(payload []byte) (bool, error) {
	if len(payload) < OffMsgType+4 {
		return false, fmt.Errorf("%w: short payload", ErrBadMessage)
	}
	d := xdr.NewDecoder(payload)
	mt, err := d.UintAt(OffMsgType)
	if err != nil {
		return false, err
	}
	switch mt {
	case MsgCall:
		return true, nil
	case MsgReply:
		return false, nil
	}
	return false, fmt.Errorf("%w: message type %d", ErrBadMessage, mt)
}

// ParseCall decodes a call payload.
func ParseCall(payload []byte) (Call, error) {
	if len(payload) < CallHeader {
		return Call{}, fmt.Errorf("%w: short call (%d bytes)", ErrBadMessage, len(payload))
	}
	d := xdr.NewDecoder(payload)
	xid, _ := d.Uint32()
	mt, _ := d.Uint32()
	if mt != MsgCall {
		return Call{}, fmt.Errorf("%w: not a call (type %d)", ErrBadMessage, mt)
	}
	prog, _ := d.Uint32()
	vers, _ := d.Uint32()
	proc, _ := d.Uint32()
	return Call{Xid: xid, Program: prog, Version: vers, Proc: proc,
		Body: payload[CallHeader:]}, nil
}

// ParseReply decodes a reply payload.
func ParseReply(payload []byte) (Reply, error) {
	if len(payload) < ReplyHeader {
		return Reply{}, fmt.Errorf("%w: short reply (%d bytes)", ErrBadMessage, len(payload))
	}
	d := xdr.NewDecoder(payload)
	xid, _ := d.Uint32()
	mt, _ := d.Uint32()
	if mt != MsgReply {
		return Reply{}, fmt.Errorf("%w: not a reply (type %d)", ErrBadMessage, mt)
	}
	accept, _ := d.Uint32()
	return Reply{Xid: xid, Accept: accept, Body: payload[ReplyHeader:]}, nil
}

// Conn is the datagram endpoint RPC runs over. *netsim.Port implements it
// natively; internal/udpgate adapts a real UDP socket so clients can reach
// a Slice ensemble across processes.
//
// SendTo must not retain payload past its return: callers send pooled
// buffers and free them afterwards (a client reuses one encoded call for
// every retransmission, then frees it).
type Conn interface {
	SendTo(dst netsim.Addr, payload []byte) error
	Recv(timeout time.Duration) ([]byte, error)
	Addr() netsim.Addr
	Close()
}

// ---------------------------------------------------------------- client

// Resolver reports the current address of a service. A client configured
// with one re-resolves the destination before every transmission —
// including retransmissions within a single Call — so a caller can
// re-target a restarted or replacement manager without tearing the client
// down (the paper's §2.3 failover: a reconfigured manager takes over and
// traffic follows it). A zero return falls back to the client's static
// server address. Resolvers are called concurrently and must be
// thread-safe.
type Resolver func() netsim.Addr

// KeyResolver resolves the destination of one transmission from the
// call's flow key — the hook the flow-hashing front plugs into: keyed
// calls re-resolve before every transmission, so when the proxy owning
// a flow crashes and the fleet table swaps, the very next
// retransmission lands on the flow's new owner. A zero return falls
// back to the plain Resolver, then to the static server address. Key 0
// is an ordinary flow key (mount-time traffic uses it), not a
// sentinel. KeyResolvers are called concurrently and must be
// thread-safe and allocation-free: they run on the bulk I/O fast path.
type KeyResolver func(key uint64) netsim.Addr

// ClientConfig tunes RPC client behaviour.
type ClientConfig struct {
	// Timeout is the initial retransmission timeout (default 50ms).
	Timeout time.Duration
	// Retries is the maximum number of timed transmissions (default 5).
	// Stray-prompted retransmissions (see transact) come on top of these.
	Retries int
	// Backoff multiplies the timeout after each retransmission (default 2).
	Backoff int
	// Jitter is the maximum fraction of each retransmission timeout added
	// as random slack, decorrelating the retry storms of clients that
	// timed out together (default 0.1; negative disables).
	Jitter float64
	// XidSeed seeds the client's xid sequence. Zero (the default) draws a
	// per-client random seed, so a client restarted on a reused host/port
	// cannot collide with its previous incarnation's entries in a server's
	// duplicate-request cache.
	XidSeed uint32
	// Resolve, when non-nil, overrides the server address per transmission.
	Resolve Resolver
	// ResolveKey, when non-nil, overrides the server address per
	// transmission for keyed calls (CallKeyed/CallStartKeyed), taking
	// precedence over Resolve when it returns a non-zero address.
	ResolveKey KeyResolver
}

func (c *ClientConfig) defaults() {
	if c.Timeout <= 0 {
		c.Timeout = 50 * time.Millisecond
	}
	if c.Retries <= 0 {
		c.Retries = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = 2
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
}

// xidCounter feeds randomUint32. A scrambled atomic counter gives every
// client process-wide unique, well-spread draws without a global rand lock.
// It MUST start from per-process entropy: a zero start would make every
// process draw the same "random" xid sequence, so two client processes
// reaching a server from a reused source address would collide in its
// duplicate-request cache and be served each other's cached replies.
var xidCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// No entropy source: fall back to the clock, which still differs
		// across process starts.
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	xidCounter.Store(binary.BigEndian.Uint64(b[:]))
}

// randomUint32 returns the next draw from a splitmix64 sequence over the
// package counter: cheap, lock-free, and uniform enough that two client
// incarnations on the same host/port will not share an xid window.
func randomUint32() uint32 {
	x := xidCounter.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x)
}

// ErrTimedOut is returned when all retransmissions of a call go unanswered.
var ErrTimedOut = errors.New("oncrpc: call timed out")

// ErrRejected is returned when the server rejects a call.
type ErrRejected struct{ Accept uint32 }

// Error implements the error interface.
func (e *ErrRejected) Error() string {
	return fmt.Sprintf("oncrpc: call rejected (accept_stat %d)", e.Accept)
}

// numPendingShards shards the xid→reply-channel map. With a windowed
// bulk client keeping dozens of calls in flight, a single pending-map
// mutex becomes the hot lock: every CallStart, every reply, and every
// retransmission timer would serialize on it. Sixteen shards keyed by
// the xid's low bits keep registration and reply matching contention-free
// (xids are sequential, so consecutive in-flight calls land on distinct
// shards).
const numPendingShards = 16

// pendingCall is one registered in-flight call: its reply channel plus
// the destinations its transmissions were sent to. A reply is matched
// only when it arrives FROM one of those destinations — the standard
// datagram-RPC peer check. Under an interposed router this is what keeps
// clients honest about the virtual server: every reply the µproxy
// forwards or synthesizes is sourced from the virtual address the client
// called, while a reply leaking straight from a physical server (e.g.
// one replica of a fanned-out write, after the router lost its soft
// state) arrives from an address the client never wrote to and must be
// ignored — accepting it would acknowledge an operation the other
// replicas may never have seen. Two slots suffice: a call only changes
// destination when a retransmission re-resolves across a
// reconfiguration, and then the first and latest destinations are the
// ones a live reply can still come from.
type pendingCall struct {
	ch   chan Reply
	dst  [2]netsim.Addr
	ndst int
}

// sentTo records a transmission destination (first + latest kept).
func (pc *pendingCall) sentTo(a netsim.Addr) {
	for i := 0; i < pc.ndst; i++ {
		if pc.dst[i] == a {
			return
		}
	}
	if pc.ndst < len(pc.dst) {
		pc.dst[pc.ndst] = a
		pc.ndst++
		return
	}
	pc.dst[len(pc.dst)-1] = a
}

// from reports whether a reply sourced at a answers this call.
func (pc *pendingCall) from(a netsim.Addr) bool {
	for i := 0; i < pc.ndst; i++ {
		if pc.dst[i] == a {
			return true
		}
	}
	return false
}

// pendingShard is one lock-striped slice of the pending-call map.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint32]*pendingCall
}

// Client issues RPC calls to a fixed server address over a netsim port and
// matches replies to calls by xid. Calls may be issued concurrently from
// any number of goroutines; see CallStart for the asynchronous form.
type Client struct {
	port   Conn
	server netsim.Addr
	cfg    ClientConfig

	nextXid   atomic.Uint32
	done      chan struct{} // closed by Close: in-flight calls give up
	closeOnce sync.Once
	shards    [numPendingShards]pendingShard

	// retransmissions counts retransmitted calls, for tests and stats.
	retransmissions atomic.Uint64
	// strayReplies counts replies rejected by the peer-address check:
	// a matching xid from an address the call was never sent to.
	strayReplies atomic.Uint64
}

// NewClient creates a client bound to port that calls the given server
// address. The client owns the port's receive loop.
func NewClient(port Conn, server netsim.Addr, cfg ClientConfig) *Client {
	cfg.defaults()
	seed := cfg.XidSeed
	if seed == 0 {
		seed = randomUint32()
	}
	c := &Client{
		port:   port,
		server: server,
		cfg:    cfg,
		done:   make(chan struct{}),
	}
	c.nextXid.Store(seed - 1) // Add(1) on first register yields the seed
	for i := range c.shards {
		c.shards[i].m = make(map[uint32]*pendingCall)
	}
	go c.recvLoop()
	return c
}

// Server returns the static server address this client calls (a configured
// Resolver may override it per transmission).
func (c *Client) Server() netsim.Addr { return c.server }

// target resolves the destination for one transmission of the call
// with the given flow key.
func (c *Client) target(key uint64) netsim.Addr {
	if c.cfg.ResolveKey != nil {
		if a := c.cfg.ResolveKey(key); !a.IsZero() {
			return a
		}
	}
	if c.cfg.Resolve != nil {
		if a := c.cfg.Resolve(); !a.IsZero() {
			return a
		}
	}
	return c.server
}

// Retransmissions returns the number of retransmitted datagrams.
func (c *Client) Retransmissions() uint64 {
	return c.retransmissions.Load()
}

// StrayReplies returns the number of replies dropped because they
// arrived from an address their call was never sent to.
func (c *Client) StrayReplies() uint64 {
	return c.strayReplies.Load()
}

// Close shuts the client down; in-flight calls fail at once with
// netsim.ErrClosed, releasing their pooled payloads.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.port.Close()
	})
}

// shard returns the pending shard owning xid.
func (c *Client) shard(xid uint32) *pendingShard {
	return &c.shards[xid%numPendingShards]
}

// register allocates an xid and its pending-call record.
func (c *Client) register() (uint32, *pendingCall, error) {
	select {
	case <-c.done:
		return 0, nil, netsim.ErrClosed
	default:
	}
	xid := c.nextXid.Add(1)
	pc := &pendingCall{ch: make(chan Reply, 2)} // the reply + one stray prompt
	s := c.shard(xid)
	s.mu.Lock()
	s.m[xid] = pc
	s.mu.Unlock()
	return xid, pc, nil
}

// noteSent records that xid's call was transmitted to dst, admitting
// replies sourced there. Serialized with reply matching by the shard
// lock; called before the datagram is handed to the network, so the
// reply can never outrun its admission.
func (c *Client) noteSent(xid uint32, dst netsim.Addr) {
	s := c.shard(xid)
	s.mu.Lock()
	if pc, ok := s.m[xid]; ok {
		pc.sentTo(dst)
	}
	s.mu.Unlock()
}

// unregister ends a call that finished without taking its reply: it
// removes the pending entry (the receive loop removed it already if a
// reply was matched) and frees any reply still queued on its channel.
// The receive loop sends under the shard lock, so once the entry is gone
// no reply can arrive after the drain: a reply matched just as its call
// timed out, was rejected or was closed goes back to the pool here
// instead of leaking. A call that took its reply skips unregister: the
// receive loop removed its entry when it matched the reply, and nothing
// else can be queued behind it.
func (c *Client) unregister(xid uint32, pc *pendingCall) {
	s := c.shard(xid)
	s.mu.Lock()
	delete(s.m, xid)
	s.mu.Unlock()
	for {
		select {
		case rep := <-pc.ch:
			rep.Release()
		default:
			return
		}
	}
}

func (c *Client) recvLoop() {
	for {
		d, err := c.port.Recv(0)
		if err != nil {
			return // port closed
		}
		payload := netsim.Payload(d)
		rep, err := ParseReply(payload)
		if err != nil {
			netsim.FreeBuf(d)
			continue // not a reply; ignore
		}
		src := netsim.Addr{
			Host: binary.BigEndian.Uint32(d[netsim.OffSrcHost:]),
			Port: binary.BigEndian.Uint16(d[netsim.OffSrcPort:]),
		}
		s := c.shard(rep.Xid)
		s.mu.Lock()
		pc, ok := s.m[rep.Xid]
		if ok && !pc.from(src) {
			// Matching xid, wrong peer: a stray reply from an address
			// this call was never sent to. Leave the call registered —
			// the real peer's answer (or a retransmission's) still
			// matches — and drop the stray. It still tells the caller
			// something: the call was answered, but the answer did not
			// come back through the address it was sent to (an
			// interposed router lost the request's soft state), so
			// prompt a retransmission now instead of at the timeout.
			// At most one prompt is queued; ch has room for it and the
			// real reply, so that send below never blocks.
			ok = false
			c.strayReplies.Add(1)
			if len(pc.ch) == 0 {
				pc.ch <- Reply{Xid: rep.Xid, stray: true}
			}
		} else if ok {
			// Hand the datagram itself to the caller, who releases it
			// after decoding: no byte of the reply is copied. The send
			// happens under the shard lock, so a caller that gives up
			// and unregisters either finds the reply on its channel or
			// was gone before the match; a reply can never land in the
			// gap between. Duplicate deliveries of the same xid find no
			// pending entry and are freed below, so the buffered send
			// can never block.
			delete(s.m, rep.Xid)
			rep.d = d
			pc.ch <- rep
		}
		s.mu.Unlock()
		if !ok {
			netsim.FreeBuf(d)
		}
	}
}

// Call issues proc of prog/vers with the encoded args and returns the
// reply. It retransmits on timeout. The reply's Body aliases its pooled
// datagram; the caller releases it (Reply.Release) once done decoding.
// On error the reply is zero and needs no release.
func (c *Client) Call(prog, vers, proc uint32, args func(*xdr.Encoder)) (Reply, error) {
	return c.call(0, prog, vers, proc, args, 0, false)
}

// CallKeyed issues a call tagged with a flow key: every transmission —
// including retransmissions — resolves its destination through the
// configured ResolveKey, so the call follows its flow's owner across
// fleet reconfigurations. Without a ResolveKey it behaves exactly like
// Call.
func (c *Client) CallKeyed(key uint64, prog, vers, proc uint32, args func(*xdr.Encoder)) (Reply, error) {
	return c.call(key, prog, vers, proc, args, 0, false)
}

// CallTraced issues a call carrying the optional trace trailer, tying
// the server-side work to the originating request's trace id. Servers
// that predate the trace field ignore the trailer; the reply body may
// end with a reply trailer readable via PeekReplyTrace.
func (c *Client) CallTraced(traceID uint64, prog, vers, proc uint32, args func(*xdr.Encoder)) (Reply, error) {
	return c.call(0, prog, vers, proc, args, traceID, true)
}

func (c *Client) call(key uint64, prog, vers, proc uint32, args func(*xdr.Encoder), traceID uint64, traced bool) (Reply, error) {
	xid, pc, err := c.register()
	if err != nil {
		return Reply{}, err
	}
	e := encodeCall(xid, prog, vers, proc, args)
	if traced {
		PutCallTrace(e, traceID)
	}
	rep, err := c.transact(key, xid, proc, e.Bytes(), pc.ch)
	if err != nil {
		c.unregister(xid, pc)
	}
	return rep, err
}

// strayPace divides the initial timeout into the minimum gap between
// stray-prompted retransmissions.
const strayPace = 16

// transact runs the retransmit/timeout loop for one registered call. It
// is shared by the synchronous and asynchronous call paths, so every
// concurrent call gets the same backoff, jitter, and re-resolve
// behaviour. It owns the pooled payload: every retransmission resends
// the same bytes, and the buffer goes back to the pool when the call
// ends, however it ends. A successful reply passes to the caller with
// its datagram; a rejected one is freed here.
//
// Besides the timed retransmissions, a stray reply (see recvLoop)
// prompts one at once: the router that lost the request's soft state
// rebuilds it from the retransmission, so the call recovers in a round
// trip rather than a timeout. Prompted retransmissions are paced to one
// per Timeout/strayPace since the last transmission, so the strays of a
// fanned-out call — one per replica — cannot multiply its traffic.
func (c *Client) transact(key uint64, xid, proc uint32, payload []byte, ch chan Reply) (Reply, error) {
	defer netsim.FreeBuf(payload)
	timeout := c.cfg.Timeout
	pace := c.cfg.Timeout / strayPace
	var (
		dst     netsim.Addr
		sent    time.Time        // when the latest transmission went out
		timer   *time.Timer      // the timed retransmission schedule
		prompt  *time.Timer      // paces a stray-prompted retransmission
		promptC <-chan time.Time // prompt.C while one is due, else nil
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if prompt != nil {
			prompt.Stop()
		}
	}()
	attempt, timed := 1, true
	for {
		// Resolve before every transmission: if the server was
		// restarted elsewhere while we waited, the retry goes to the
		// replacement instead of the corpse.
		dst = c.target(key)
		c.noteSent(xid, dst)
		if err := c.port.SendTo(dst, payload); err != nil {
			return Reply{}, err
		}
		sent = time.Now()
		if timed {
			wait := timeout
			if c.cfg.Jitter > 0 {
				frac := float64(randomUint32()) / (1 << 32)
				wait += time.Duration(float64(timeout) * c.cfg.Jitter * frac)
			}
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait) // fired and drained below
			}
			timed = false
		}
	await:
		for {
			select {
			case rep := <-ch:
				if !rep.stray {
					if rep.Accept != AcceptSuccess {
						rep.Release()
						return Reply{}, &ErrRejected{Accept: rep.Accept}
					}
					return rep, nil
				}
				if promptC != nil {
					continue // a prompted retransmission is already due
				}
				if d := pace - time.Since(sent); d > 0 {
					if prompt == nil {
						prompt = time.NewTimer(d)
					} else {
						prompt.Reset(d)
					}
					promptC = prompt.C
					continue
				}
				break await
			case <-promptC:
				promptC = nil
				break await
			case <-timer.C:
				if attempt == c.cfg.Retries {
					return Reply{}, fmt.Errorf("%w: proc %d to %s after %d attempts",
						ErrTimedOut, proc, dst, c.cfg.Retries)
				}
				attempt, timed = attempt+1, true
				timeout *= time.Duration(c.cfg.Backoff)
				if promptC != nil {
					// The timed retransmission supersedes the prompted one.
					if !prompt.Stop() {
						select {
						case <-prompt.C:
						default:
						}
					}
					promptC = nil
				}
				break await
			case <-c.done:
				return Reply{}, netsim.ErrClosed
			}
		}
		c.retransmissions.Add(1)
	}
}

// ---------------------------------------------------------- async calls

// Pending is one in-flight asynchronous call started with CallStart.
// Await collects its result; each Pending must be awaited exactly once,
// and a successful result released, or its reply datagram never goes
// back to the pool.
type Pending struct {
	done chan pendingResult
}

type pendingResult struct {
	rep Reply
	err error
}

// CallStart issues proc of prog/vers asynchronously and returns a
// Pending handle. The argument encoder runs synchronously before
// CallStart returns, copying everything it reads into the call's pooled
// payload, so the caller may reuse or modify those buffers as soon as
// CallStart returns. The background transmitter owns the payload through
// every retransmission and frees it when the call ends; the reply
// datagram passes to whoever awaits the call. Retransmission, backoff,
// and re-resolve run exactly as for Call; any number of calls may be in
// flight concurrently on one client, bounded only by the caller.
func (c *Client) CallStart(prog, vers, proc uint32, args func(*xdr.Encoder)) *Pending {
	return c.CallStartKeyed(0, prog, vers, proc, args)
}

// CallStartKeyed is CallStart with a flow key: the asynchronous form of
// CallKeyed, re-resolving the destination through ResolveKey before
// every transmission.
func (c *Client) CallStartKeyed(key uint64, prog, vers, proc uint32, args func(*xdr.Encoder)) *Pending {
	p := &Pending{done: make(chan pendingResult, 1)}
	xid, pc, err := c.register()
	if err != nil {
		p.done <- pendingResult{err: err}
		return p
	}
	payload := EncodeCall(xid, prog, vers, proc, args)
	go func() {
		rep, err := c.transact(key, xid, proc, payload, pc.ch)
		if err != nil {
			c.unregister(xid, pc)
		}
		p.done <- pendingResult{rep: rep, err: err}
	}()
	return p
}

// Await blocks until the call completes and returns its reply or the
// call's error. As with Call, the reply's Body aliases its pooled
// datagram: decoded fields that alias it (e.g. READ data) stay valid
// until the caller releases the reply, exactly once.
func (p *Pending) Await() (Reply, error) {
	r := <-p.done
	return r.rep, r.err
}

// ---------------------------------------------------------------- server

// Handler serves the body of a single RPC call. It returns the result
// encoder function and an accept status. Handlers run concurrently, one
// goroutine per in-flight request.
type Handler interface {
	ServeRPC(call Call, from netsim.Addr) (res func(*xdr.Encoder), accept uint32)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32)

// ServeRPC implements Handler.
func (f HandlerFunc) ServeRPC(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
	return f(call, from)
}

// drcEntry is a duplicate-request cache entry.
type drcEntry struct {
	key   drcKey
	id    callID
	reply []byte
}

type drcKey struct {
	host netsim.Addr
	xid  uint32
}

// callID is the verifier a {source, xid} cache slot carries: the call's
// program, version, procedure, and argument length. A true retransmission
// repeats all four; a different call re-using the slot's {source, xid} —
// a new client incarnation on a recycled source address whose xid window
// happens to overlap — does not, and replaying the cached reply to it
// would answer the wrong procedure entirely.
type callID struct {
	prog, vers, proc uint32
	bodyLen          int
}

// ServerObserver is notified after each handled call with the call's
// identity and the handler's wall time. It runs on the per-call
// goroutine and must be cheap and thread-safe (the obs wiring records
// one histogram sample, a single atomic add).
type ServerObserver func(prog, vers, proc uint32, handlerNS uint64)

// Server accepts RPC calls on a fabric port and dispatches them to a
// handler.
type Server struct {
	port    *netsim.Port
	handler Handler
	obs     atomic.Pointer[ServerObserver]

	mu       sync.Mutex
	drc      map[drcKey]int // key -> index into drcRing
	drcRing  []drcEntry
	drcNext  int
	inflight map[drcKey]callID

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// DRCSize is the number of non-idempotent replies retained for
// duplicate suppression.
const DRCSize = 1024

// NewServer starts serving calls arriving on port with handler.
func NewServer(port *netsim.Port, handler Handler) *Server {
	s := &Server{
		port:     port,
		handler:  handler,
		drc:      make(map[drcKey]int),
		drcRing:  make([]drcEntry, DRCSize),
		inflight: make(map[drcKey]callID),
		closed:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.serveLoop()
	return s
}

// Addr returns the server's bound address.
func (s *Server) Addr() netsim.Addr { return s.port.Addr() }

// SetObserver installs (or, with nil, removes) the server's observer.
// While an observer is installed the server also times every handler and
// appends the reply trace trailer, so interposed elements can split this
// hop's round-trip into server time and wire time.
func (s *Server) SetObserver(fn ServerObserver) {
	if fn == nil {
		s.obs.Store(nil)
		return
	}
	s.obs.Store(&fn)
}

// Close stops the server and waits for in-flight handlers. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.port.Close()
		close(s.closed)
		s.wg.Wait()
	})
}

func (s *Server) serveLoop() {
	defer s.wg.Done()
	for {
		d, err := s.port.Recv(0)
		if err != nil {
			return
		}
		h, err := netsim.Parse(d)
		if err != nil {
			netsim.FreeBuf(d)
			continue
		}
		call, err := ParseCall(netsim.Payload(d))
		if err != nil {
			netsim.FreeBuf(d)
			continue
		}
		if id, body, ok := SplitCallTrace(call.Body); ok {
			call.Body = body
			call.Trace = id
			call.Traced = true
		}
		key := drcKey{host: h.Src, xid: call.Xid}
		id := callID{prog: call.Program, vers: call.Version,
			proc: call.Proc, bodyLen: len(call.Body)}

		s.mu.Lock()
		if idx, ok := s.drc[key]; ok {
			if s.drcRing[idx].id == id {
				// Retransmission of a completed call: replay the reply.
				reply := s.drcRing[idx].reply
				s.mu.Unlock()
				netsim.FreeBuf(d)
				_ = s.port.SendTo(h.Src, reply)
				continue
			}
			// Same {source, xid} but a different call: not a
			// retransmission. Drop the stale entry (clearing its ring
			// slot so the eventual slot reuse cannot evict a newer entry
			// under the same key) and execute the call fresh.
			delete(s.drc, key)
			s.drcRing[idx] = drcEntry{}
		}
		if _, ok := s.inflight[key]; ok {
			// Retransmission of an in-progress call: drop; the client
			// will retry and eventually hit the DRC. A *different* call
			// colliding with the in-flight slot is also dropped — one
			// key cannot track both — but its retransmission lands
			// after the first call completes and then takes the
			// stale-entry path above, so it is executed, not wedged.
			s.mu.Unlock()
			netsim.FreeBuf(d)
			continue
		}
		s.inflight[key] = id
		s.mu.Unlock()

		s.wg.Add(1)
		go func(call Call, from netsim.Addr, key drcKey, id callID, d []byte) {
			defer s.wg.Done()
			obsFn := s.obs.Load()
			timed := obsFn != nil || call.Traced
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			res, accept := s.handler.ServeRPC(call, from)
			// The reply is encoded straight into the datagram that carries
			// it. Encoding is part of the server's time: a READ reply's
			// data is read from the store straight into that datagram.
			e := encodeReply(netsim.HeaderSize, call.Xid, accept, res)
			var handlerNS uint64
			if timed {
				handlerNS = uint64(time.Since(t0))
				PutReplyTrace(e, call.Trace, handlerNS)
			}
			if obsFn != nil {
				(*obsFn)(call.Program, call.Version, call.Proc, handlerNS)
			}
			out := e.Bytes()
			reply := out[netsim.HeaderSize:]
			// call.Args (and possibly res) alias the request datagram;
			// the reply holds copies of everything, so it can go back now.
			netsim.FreeBuf(d)

			// Only non-idempotent replies are cached, as an exact-size
			// heap copy: the DRC outlives the reply datagram, which the
			// network owns once it is sent.
			var kept []byte
			if !nfsproto.Idempotent(call.Program, call.Version, call.Proc) {
				kept = make([]byte, len(reply))
				copy(kept, reply)
			}
			s.mu.Lock()
			delete(s.inflight, key)
			if kept != nil {
				// Evict the slot we are about to reuse.
				if old := &s.drcRing[s.drcNext]; old.reply != nil {
					delete(s.drc, old.key)
				}
				s.drcRing[s.drcNext] = drcEntry{key: key, id: id, reply: kept}
				s.drc[key] = s.drcNext
				s.drcNext = (s.drcNext + 1) % DRCSize
			}
			s.mu.Unlock()

			_ = s.port.SendDatagram(from, out)
		}(call, h.Src, key, id, d)
	}
}
