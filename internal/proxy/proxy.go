package proxy

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/route"
	"slice/internal/xdr"
)

// MountProgram mirrors dirsrv.MountProgram without importing the package
// (the µproxy layers below the servers).
const (
	mountProgram = 100005
)

// capFieldOffset is the byte offset of the CellKey/capability field within
// a marshalled file handle (see fhandle.Handle layout).
const capFieldOffset = 16

// Config configures a µproxy.
type Config struct {
	// Net is the fabric the µproxy taps.
	Net *netsim.Network
	// Host is the host address the µproxy binds its own client ports on.
	Host uint32
	// Virtual is the virtual NFS server address presented to clients.
	Virtual netsim.Addr
	// ID is this instance's stable fleet identity (route.ProxyMember.ID).
	// A single-proxy deployment leaves it 0.
	ID uint32
	// ServiceTime, when positive, meters the request path through a
	// single paced service loop at one request per ServiceTime — a
	// capacity model for a µproxy core: one instance saturates at
	// 1/ServiceTime forwarded ops/s, so fleet scaling is measurable on
	// any host, independent of how many real CPUs back the simulation.
	// Zero (the default) keeps the inline fast path: requests are
	// processed on the sender's goroutine with no added cost.
	ServiceTime time.Duration
	// ServiceQueue bounds the paced loop's ingress queue (default 256).
	// Requests arriving at a full queue are dropped — an overloaded
	// router sheds load and clients retransmit, as §2.1 prescribes.
	ServiceQueue int
	// IO routes read/write/commit traffic.
	IO *route.IOPolicy
	// Names routes name-space and attribute traffic.
	Names *route.NamePolicy
	// Coord is the block-service coordinator; zero disables intention
	// logging and block maps.
	Coord netsim.Addr
	// MountSite is the directory site serving MOUNT (default 0).
	MountSite uint32
	// AttrCacheSize bounds the attribute cache (default 4096).
	AttrCacheSize int
	// NameCacheSize bounds the name cache (default 8192).
	NameCacheSize int
	// WritebackInterval bounds attribute drift: dirty attributes are
	// pushed to the directory servers at this period. Zero disables the
	// background flusher (tests drive writeback explicitly).
	WritebackInterval time.Duration
	// CapKey, when set, is the storage-service capability key: the
	// µproxy stamps a keyed fingerprint into the handle of every request
	// it routes to a storage node (in place, with an incremental
	// checksum fix), authorizing the access under the §2.2 secure-object
	// model. Clients that bypass the µproxy cannot mint capabilities and
	// are refused by the storage nodes.
	CapKey []byte
	// Obs, when set, receives the µproxy's per-stage, per-hop, and
	// end-to-end latency histograms. Histogram pointers are resolved at
	// construction; recording is one atomic add per sample.
	Obs *obs.Registry
	// Tracer, when set, archives a pooled per-request span for every
	// routed request: per-stage µproxy costs plus per-hop round-trip and
	// server time.
	Tracer *obs.Tracer
	// StatsFn, when set, answers the stats program (obs.Program) sent to
	// the virtual server: the µproxy absorbs the call and replies with
	// the returned bytes as an opaque result (nil = proc unavailable).
	// The ensemble points this at its cluster-wide obs.Collector.
	StatsFn func(proc, arg uint32) []byte
}

// pendKey identifies a pending request record: the client endpoint plus
// the RPC transaction id.
type pendKey struct {
	client netsim.Addr
	xid    uint32
}

// pendHash mixes a pending-request identity for shard selection.
func pendHash(k pendKey) uint64 {
	h := uint64(k.client.Host)<<32 ^ uint64(k.client.Port)<<16 ^ uint64(k.xid)
	h *= 0x9E3779B97F4A7C15
	return h
}

// pendingReq is the soft-state record of one in-flight request. Records
// are pooled: the steady-state forward path recycles them instead of
// allocating.
type pendingReq struct {
	proc nfsproto.Proc
	prog uint32
	info nfsproto.RequestInfo

	// targets are the physical servers the request was routed to, kept
	// so client retransmissions are re-forwarded along the same path
	// (the servers' duplicate-request caches absorb the repeats). For
	// the common fan-outs it aliases targetsBuf, so recording the path
	// costs no allocation.
	targets    []netsim.Addr
	targetsBuf [4]netsim.Addr

	// expect is the number of replies still awaited (mirrored writes
	// expect one per replica); replied dedups per-replica replies, since
	// retransmissions make servers replay theirs.
	expect  int
	replied map[netsim.Addr]bool
	// errReply holds the first non-OK reply body of a multi-target
	// request so the worst outcome is what the client sees.
	errReply []byte

	// routeVer is the combined routing-table version the path was
	// resolved under. A retransmission arriving after the tables changed
	// (failover republished a server) re-resolves instead of replaying
	// the recorded — possibly dead — path.
	routeVer uint64

	// onOK runs when a successful reply arrives, before it is forwarded;
	// orchestration hooks use it. Responses with a hook are finished on
	// a helper goroutine because hooks issue blocking RPCs.
	onOK func()

	// Replica bookkeeping (nil dirty set disables all of it). dirtyMark
	// says this record holds one dirty-set count on dirtyKey, released
	// only when every replica acknowledged success; readSlot is 1 + the
	// load-array slot charged for a spread read (0: none).
	dirtyMark bool
	dirtyKey  fhandle.Key
	readSlot  int32

	// Observability state (see obs.go). All of it is written before the
	// record is published to the pending table; after pairing, the
	// response path owns the record exclusively.
	span    *obs.Span   // pooled trace span, nil when tracing is off
	startNS int64       // request intercept time (UnixNano)
	sentAt  int64       // forward time (UnixNano), 0 after hop recorded
	clsNS   uint64      // classify-stage cost
	hop     obs.HopKind // where the request was forwarded
}

var pendPool = sync.Pool{New: func() any { return new(pendingReq) }}

// getPending returns a zeroed pending record from the pool.
func getPending() *pendingReq { return pendPool.Get().(*pendingReq) }

// putPending recycles a record. Callers own pd exclusively: it must
// already be out of the pending table.
func putPending(pd *pendingReq) {
	*pd = pendingReq{}
	pendPool.Put(pd)
}

// pendShard is one lock's worth of the pending-request table.
type pendShard struct {
	mu   sync.Mutex
	pend map[pendKey]*pendingReq
}

// Proxy is one interposed request router.
type Proxy struct {
	cfg Config

	// coordAddr is the current coordinator address, swappable at runtime
	// so a restarted coordinator (fresh port) can be re-targeted without
	// tearing the µproxy down. Zero disables the coordinator protocol.
	coordAddr atomic.Pointer[netsim.Addr]

	// shards holds the pending-request table, split so that concurrent
	// clients contend only when they hash to the same shard.
	shards [numShards]pendShard

	attrs *attrCache
	names *nameCache
	maps  *mapCache

	// dirty is the per-object dirty set of the replica layer: an object
	// is dirty while a fanned-out WRITE to its group is in flight, and
	// its reads pin to the primary. nil when the array is unreplicated.
	// loads counts this µproxy's outstanding spread reads per member
	// slot, the weights of the power-of-two-choices read placement.
	dirty *replica.DirtySet
	loads []atomic.Int64

	clientsMu sync.Mutex
	clients   map[netsim.Addr]*oncrpc.Client
	// coordCli is the coordinator client; unlike the per-address clients
	// it resolves its destination per transmission from coordAddr, so an
	// in-flight call retries against the coordinator's new address after
	// failover instead of timing out against the dead one.
	coordCli *oncrpc.Client

	// workCh feeds the paced service loop; nil when ServiceTime is 0
	// and requests are processed inline.
	workCh chan []byte

	tapTok    *netsim.TapToken
	st        stageCounters
	hists     *proxyHists // nil when cfg.Obs is nil
	tracer    *obs.Tracer // nil when cfg.Tracer is nil
	stopCh    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New creates a µproxy and registers it as a tap on the network.
func New(cfg Config) *Proxy {
	p := &Proxy{
		cfg:     cfg,
		attrs:   newAttrCache(cfg.AttrCacheSize),
		names:   newNameCache(cfg.NameCacheSize),
		maps:    newMapCache(),
		clients: make(map[netsim.Addr]*oncrpc.Client),
		stopCh:  make(chan struct{}),
		tracer:  cfg.Tracer,
	}
	if cfg.IO != nil && cfg.IO.Replicas.Replicated() {
		p.dirty = replica.NewDirtySet()
		p.loads = make([]atomic.Int64, cfg.IO.Replicas.Slots())
	}
	if cfg.Obs != nil {
		var rm *replica.Map
		if cfg.IO != nil {
			rm = cfg.IO.Replicas
		}
		p.hists = newProxyHists(cfg.Obs, rm)
	}
	coordAddr := cfg.Coord
	p.coordAddr.Store(&coordAddr)
	for i := range p.shards {
		p.shards[i].pend = make(map[pendKey]*pendingReq)
	}
	if cfg.ServiceTime > 0 {
		depth := cfg.ServiceQueue
		if depth <= 0 {
			depth = 256
		}
		p.workCh = make(chan []byte, depth)
		p.wg.Add(1)
		go p.serviceLoop()
	}
	p.tapTok = cfg.Net.AddTap(p)
	if cfg.WritebackInterval > 0 {
		p.wg.Add(1)
		go p.writebackLoop()
	}
	return p
}

// Close detaches the µproxy from the network and stops its helpers.
// It is idempotent.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		p.cfg.Net.RemoveTap(p.tapTok)
		close(p.stopCh)
		p.wg.Wait()
		p.clientsMu.Lock()
		for _, c := range p.clients {
			c.Close()
		}
		if p.coordCli != nil {
			p.coordCli.Close()
		}
		p.clientsMu.Unlock()
	})
}

// ID returns the µproxy's fleet identity.
func (p *Proxy) ID() uint32 { return p.cfg.ID }

// Virtual returns the virtual server address this instance answers.
func (p *Proxy) Virtual() netsim.Addr { return p.cfg.Virtual }

// coord returns the coordinator address currently in effect.
func (p *Proxy) coord() netsim.Addr { return *p.coordAddr.Load() }

// SetCoord re-targets the coordinator, e.g. after the ensemble restarts
// it on a fresh port. New coordinator RPCs use the address immediately;
// calls already retrying re-resolve it on their next retransmission.
func (p *Proxy) SetCoord(a netsim.Addr) { p.coordAddr.Store(&a) }

// routeVersion folds the versions of every table the µproxy forwards by;
// it changes exactly when a failover republishes some server's address.
func (p *Proxy) routeVersion() uint64 {
	v := p.cfg.Names.Dirs.Version() + p.cfg.IO.Storage.Version() +
		p.cfg.IO.Replicas.Version()
	if p.cfg.IO.SmallFile != nil {
		v += p.cfg.IO.SmallFile.Version()
	}
	return v
}

// RouteVersion exposes the folded routing-table version. Every proxy in
// a fleet shares the same Table objects, so a reconfiguration Swap moves
// all of them to the new version in one atomic store — the coordinated
// retarget the shared-nothing design gets for free.
func (p *Proxy) RouteVersion() uint64 { return p.routeVersion() }

// Stats returns a snapshot of the per-stage CPU accounting.
func (p *Proxy) Stats() StageStats { return p.st.snapshot() }

// shardFor returns the pending-table shard for key.
func (p *Proxy) shardFor(key pendKey) *pendShard {
	return &p.shards[shardIndex(pendHash(key))]
}

// resetPend discards every pending record. In-flight replies for the
// dropped records pass through to the client untouched; clients recover
// by retransmission, as §2.1 requires.
func (p *Proxy) resetPend() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.pend = make(map[pendKey]*pendingReq)
		s.mu.Unlock()
	}
}

// FlushSoftState discards all soft state: pending request records and all
// caches. The architecture guarantees correctness across this (§2.1);
// clients recover by retransmission. Dirty attributes are pushed first so
// only timestamps within the drift bound are lost.
func (p *Proxy) FlushSoftState() {
	p.WritebackAttrs()
	p.resetPend()
	p.attrs.clear()
	p.names.clear()
	p.maps.clear()
	p.resetReplica()
}

// DropSoftState discards soft state without writeback, simulating a
// µproxy crash (uncommitted attribute updates are lost, as §4.1 permits).
func (p *Proxy) DropSoftState() {
	p.resetPend()
	p.attrs.clear()
	p.names.clear()
	p.maps.clear()
	p.resetReplica()
}

// resetReplica clears the dirty set and the read-load counters along
// with the rest of the soft state. A fresh (or rebooted) µproxy starts
// with no dirtiness knowledge; retransmitted WRITEs re-mark their
// objects, and until they do, an in-flight write's object may be read
// from any member — the same window §2.1 accepts for every other piece
// of lost soft state, closed for committed data by the COMMIT barrier.
func (p *Proxy) resetReplica() {
	if p.dirty == nil {
		return
	}
	p.dirty.Reset()
	for i := range p.loads {
		p.loads[i].Store(0)
	}
}

// DirtyLen reports the dirty-set size (0 when unreplicated).
func (p *Proxy) DirtyLen() int {
	if p.dirty == nil {
		return 0
	}
	return p.dirty.Len()
}

// ObjectDirty reports whether fh's object currently has a write in
// flight (or an over-approximated leftover mark) pinning its reads.
func (p *Proxy) ObjectDirty(fh fhandle.Handle) bool {
	return p.dirty != nil && p.dirty.Dirty(fh.Ident())
}

// CachedAttr exposes the attribute cache for tests and for the client-side
// of attribute patching.
func (p *Proxy) CachedAttr(fh fhandle.Handle) (bool, uint64) {
	at, ok := p.attrs.get(fh)
	return ok, at.Size
}

// CachedName exposes the name cache: the cached child handle bound to
// (dir, name), if any.
func (p *Proxy) CachedName(dir fhandle.Handle, name string) (fhandle.Handle, bool) {
	return p.names.get(dir, name)
}

// consumeDrop disposes of a datagram the µproxy consumed but cannot
// process (malformed or unroutable).
func (p *Proxy) consumeDrop(d []byte) netsim.Verdict {
	p.st.dropped.Add(1)
	netsim.FreeBuf(d)
	return netsim.Consumed
}

// Handle implements netsim.Tap: the packet-filter entry point. It runs on
// the sender's goroutine and processes the fast path inline — no
// per-packet goroutine, no allocation in the steady state. Only
// operations that must block (commit absorption, remove orchestration,
// block-map fetches, response hooks) are handed to helper goroutines.
func (p *Proxy) Handle(d []byte) netsim.Verdict {
	t0 := time.Now()
	p.st.intercepted.Add(1)
	if len(d) < netsim.HeaderSize+oncrpc.ReplyHeader {
		return netsim.Pass
	}
	dst := netsim.Addr{
		Host: binary.BigEndian.Uint32(d[netsim.OffDstHost:]),
		Port: binary.BigEndian.Uint16(d[netsim.OffDstPort:]),
	}
	payload := d[netsim.HeaderSize:]
	mtype := binary.BigEndian.Uint32(payload[oncrpc.OffMsgType:])

	if dst == p.cfg.Virtual && mtype == oncrpc.MsgCall {
		p.st.interceptNS.Add(uint64(time.Since(t0)))
		if p.workCh != nil {
			// Paced mode: hand the request to the service loop. A full
			// queue means the router is saturated; shed the request and
			// let the client's retransmission find capacity.
			select {
			case p.workCh <- d:
			default:
				return p.consumeDrop(d)
			}
			return netsim.Consumed
		}
		return p.handleRequest(d)
	}
	if mtype == oncrpc.MsgReply {
		xid := binary.BigEndian.Uint32(payload[oncrpc.OffXid:])
		key := pendKey{client: dst, xid: xid}
		s := p.shardFor(key)
		s.mu.Lock()
		_, ok := s.pend[key]
		s.mu.Unlock()
		if ok {
			p.st.interceptNS.Add(uint64(time.Since(t0)))
			return p.handleResponse(d, key)
		}
	}
	p.st.interceptNS.Add(uint64(time.Since(t0)))
	return netsim.Pass
}

// handleRequest classifies and routes one intercepted call. It always
// takes ownership of d: every path forwards it, frees it, or hands it to
// a helper goroutine.
func (p *Proxy) handleRequest(d []byte) netsim.Verdict {
	t0 := time.Now()
	h, err := netsim.Parse(d)
	if err != nil {
		return p.consumeDrop(d)
	}
	call, err := oncrpc.ParseCall(netsim.Payload(d))
	if err != nil {
		return p.consumeDrop(d)
	}
	key := pendKey{client: h.Src, xid: call.Xid}

	// Retransmission while the original is in flight: the forwarded
	// packet or its reply may have been lost past the µproxy, so the
	// retransmission must be re-forwarded along the recorded path; the
	// servers' duplicate-request caches absorb genuine repeats. (A
	// µproxy that swallowed retransmissions would turn one lost packet
	// into a permanently stuck request — the end-to-end recovery of
	// §2.1 depends on the µproxy staying transparent to retries.)
	// The recorded path is copied out under the shard lock: the record
	// is pooled and may be recycled the moment the lock is released.
	s := p.shardFor(key)
	s.mu.Lock()
	if pd := s.pend[key]; pd != nil {
		var tbuf [4]netsim.Addr
		var targets []netsim.Addr
		if len(pd.targets) <= len(tbuf) {
			targets = tbuf[:copy(tbuf[:], pd.targets)]
		} else {
			targets = append([]netsim.Addr(nil), pd.targets...)
		}
		info := pd.info
		prog, proc, ver := pd.prog, pd.proc, pd.routeVer
		s.mu.Unlock()
		p.st.decodeNS.Add(uint64(time.Since(t0)))
		// If the routing tables changed since the path was recorded, the
		// recorded servers may be dead (crashed and republished at new
		// addresses): re-resolve the path so the client's end-to-end
		// retries — the §2.1 recovery mechanism — reach the survivors.
		if cur := p.routeVersion(); ver != cur {
			if fresh, ok := p.retargets(prog, proc, info); ok {
				targets = fresh
				s.mu.Lock()
				if pd2 := s.pend[key]; pd2 != nil {
					if len(fresh) <= len(pd2.targetsBuf) {
						pd2.targets = pd2.targetsBuf[:copy(pd2.targetsBuf[:], fresh)]
					} else {
						pd2.targets = append([]netsim.Addr(nil), fresh...)
					}
					pd2.routeVer = cur
				}
				s.mu.Unlock()
			}
		}
		// Storage-bound retransmissions need the capability re-stamped:
		// the client resends the raw handle.
		if len(p.cfg.CapKey) > 0 && !p.cfg.IO.SmallFileTarget(info.Offset) &&
			(nfsproto.Proc(call.Proc) == nfsproto.ProcRead ||
				nfsproto.Proc(call.Proc) == nfsproto.ProcWrite) {
			capVal := fhandle.Capability(p.cfg.CapKey, info.FH)
			off := netsim.HeaderSize + oncrpc.CallHeader + info.FHOffset + capFieldOffset
			_ = netsim.RewriteUint64(d, off, capVal)
		}
		p.injectToAll(d, targets)
		return netsim.Consumed
	}
	s.mu.Unlock()

	if call.Program == mountProgram {
		cls := time.Since(t0)
		p.st.decodeNS.Add(uint64(cls))
		addr, err := p.cfg.Names.Dirs.Lookup(p.cfg.MountSite)
		if err != nil {
			return p.consumeDrop(d)
		}
		pd := getPending()
		pd.prog = call.Program
		pd.expect = 1
		pd.hop = obs.HopMount
		p.beginObs(pd, call.Xid, call.Proc, t0, cls)
		return p.forward(d, key, pd, addr)
	}
	if call.Program == obs.Program {
		// The stats program is absorbed: the µproxy answers it from the
		// ensemble's collector so slicectl aggregates a live deployment
		// over the same wire the NFS traffic uses. Snapshotting walks
		// registries under their locks, so it runs off the sender's
		// goroutine.
		p.st.decodeNS.Add(uint64(time.Since(t0)))
		if p.cfg.StatsFn == nil {
			return p.consumeDrop(d)
		}
		var arg uint32
		if len(call.Body) >= 4 {
			arg = binary.BigEndian.Uint32(call.Body)
		}
		src, xid, proc := h.Src, call.Xid, call.Proc
		netsim.FreeBuf(d)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.answerStats(src, xid, proc, arg)
		}()
		return netsim.Consumed
	}
	if call.Program != nfsproto.Program {
		return p.consumeDrop(d)
	}

	proc := nfsproto.Proc(call.Proc)
	info, err := nfsproto.ParseCall(proc, call.Body)
	cls := time.Since(t0)
	p.st.decodeNS.Add(uint64(cls))
	if err != nil {
		return p.consumeDrop(d)
	}

	pd := getPending()
	pd.proc = proc
	pd.prog = call.Program
	pd.info = info
	pd.expect = 1
	p.beginObs(pd, call.Xid, call.Proc, t0, cls)

	switch proc {
	case nfsproto.ProcCommit:
		// Commit is absorbed: the µproxy coordinates multi-site commit
		// itself and answers the client (§3.3.2, §4.1). That is a chain
		// of blocking RPCs, so it runs off the sender's goroutine; the
		// request datagram itself is no longer needed. The span, if any,
		// moves to the absorbing goroutine with the request identity.
		sp, startNS := pd.span, pd.startNS
		pd.span = nil
		putPending(pd)
		netsim.FreeBuf(d)
		src, xid := h.Src, call.Xid
		ci := info // case-local copy: capturing info itself would heap-allocate it on every request
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.absorbCommit(src, xid, ci, sp, startNS)
		}()
		return netsim.Consumed
	case nfsproto.ProcRemove:
		// Remove orchestration resolves the victim's handle first, which
		// may issue a LOOKUP of its own: run it off the sender's
		// goroutine, which owns d until it is forwarded.
		pd.hop = obs.HopDirsrv
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.routeRemove(d, key, pd)
		}()
		return netsim.Consumed
	case nfsproto.ProcSetAttr:
		pd.hop = obs.HopDirsrv
		return p.routeSetAttr(d, key, pd)
	case nfsproto.ProcRead, nfsproto.ProcWrite:
		if info.FH.Mapped() && !p.coord().IsZero() {
			// Mapped files may need a blocking block-map fetch from the
			// coordinator before they can be routed.
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.routeIO(d, key, pd)
			}()
			return netsim.Consumed
		}
		return p.routeIO(d, key, pd)
	default:
		t1 := time.Now()
		addr, err := p.cfg.Names.AddrFor(&pd.info)
		if err != nil {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
		p.st.rewriteNS.Add(uint64(time.Since(t1)))
		pd.hop = obs.HopDirsrv
		return p.forward(d, key, pd, addr)
	}
}

// routeIO directs a read or write at the small-file server or the storage
// array per the threshold and striping policies (§3.1).
func (p *Proxy) routeIO(d []byte, key pendKey, pd *pendingReq) netsim.Verdict {
	t0 := time.Now()
	info := &pd.info
	io := p.cfg.IO

	if io.SmallFileTarget(info.Offset) {
		addr, err := io.SmallFileServer(info.FH)
		if err != nil {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
		p.st.rewriteNS.Add(uint64(time.Since(t0)))
		pd.hop = obs.HopSmallfile
		return p.forward(d, key, pd, addr)
	}

	// Requests bound for storage nodes carry a capability: rewrite the
	// handle's capability field in the raw datagram and repair the
	// checksum incrementally (same mechanism as address redirection).
	if len(p.cfg.CapKey) > 0 {
		capVal := fhandle.Capability(p.cfg.CapKey, info.FH)
		off := netsim.HeaderSize + oncrpc.CallHeader + info.FHOffset + capFieldOffset
		if err := netsim.RewriteUint64(d, off, capVal); err != nil {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
	}

	pd.hop = obs.HopStorage
	stripe := io.StripeIndex(info.Offset)
	if info.Proc == nfsproto.ProcWrite {
		// Resolve the full target set: one node for a plain write, the
		// whole replica group when replicated, both bindings' targets
		// while a topology transition is open (double-write). Anything
		// beyond one target fans out and completes only when every
		// target replied.
		targets, err := p.writeTargets(pd.span, info.FH, stripe)
		if err != nil || len(targets) == 0 {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
		if len(targets) > 1 {
			pd.expect = len(targets)
			if p.dirty != nil {
				// Mark before the packets leave: a read racing this fan-out
				// must see the object dirty and pin to the primary.
				pd.dirtyKey = info.FH.Ident()
				pd.dirtyMark = true
				p.dirty.MarkWrite(pd.dirtyKey)
				if p.hists != nil {
					p.hists.dirtyOcc.Record(uint64(p.dirty.Len()))
				}
			}
			p.st.rewriteNS.Add(uint64(time.Since(t0)))
			return p.forwardMulti(d, key, pd, targets)
		}
		p.st.rewriteNS.Add(uint64(time.Since(t0)))
		return p.forward(d, key, pd, targets[0])
	}

	addr, err := p.readTarget(pd.span, info.FH, stripe)
	if err == nil && p.dirty != nil {
		addr = p.spreadRead(pd, key, addr, stripe)
	}
	if err != nil {
		p.dropPending(pd)
		return p.consumeDrop(d)
	}
	p.st.rewriteNS.Add(uint64(time.Since(t0)))
	return p.forward(d, key, pd, addr)
}

// readTarget resolves the storage node for a read, consulting block maps
// for mapped files and the static placement function otherwise. A
// coordinator fetch on a map miss is attributed to sp, when tracing.
func (p *Proxy) readTarget(sp *obs.Span, fh fhandle.Handle, stripe uint64) (netsim.Addr, error) {
	if fh.Mapped() && !p.coord().IsZero() {
		site, err := p.mappedSite(sp, fh, stripe)
		if err != nil {
			return netsim.Addr{}, err
		}
		return p.cfg.IO.Storage.Lookup(site)
	}
	return p.cfg.IO.ReadTarget(fh, stripe)
}

// writeTargets resolves the storage nodes for a write (all replicas).
func (p *Proxy) writeTargets(sp *obs.Span, fh fhandle.Handle, stripe uint64) ([]netsim.Addr, error) {
	if fh.Mapped() && !p.coord().IsZero() && !fh.Mirrored() {
		site, err := p.mappedSite(sp, fh, stripe)
		if err != nil {
			return nil, err
		}
		a, err := p.cfg.IO.Storage.Lookup(site)
		if err != nil {
			return nil, err
		}
		if g, ok := p.cfg.IO.Replicas.GroupOf(a); ok {
			return g.Members, nil
		}
		return []netsim.Addr{a}, nil
	}
	return p.cfg.IO.WriteTargets(fh, stripe)
}

// spreadRead picks the replica-group member to serve a read that the
// placement resolved to primary. A dirty object pins to the primary —
// its reply order defines the file's contents while writes are in
// flight; a clean object goes to the less loaded of two member slots
// drawn from the request hash (power-of-two-choices over this µproxy's
// own outstanding spread reads).
func (p *Proxy) spreadRead(pd *pendingReq, key pendKey, primary netsim.Addr, stripe uint64) netsim.Addr {
	g, ok := p.cfg.IO.Replicas.GroupOf(primary)
	if !ok || len(g.Members) <= 1 {
		return primary
	}
	if p.dirty.Dirty(pd.info.FH.Ident()) {
		if p.hists != nil {
			p.hists.pinned.Record(1)
		}
		return g.Members[0]
	}
	h := pendHash(key) ^ (stripe+1)*0x9E3779B97F4A7C15
	i, j := replica.Pick2(len(g.Members), h)
	slot := g.Slot0 + i
	if alt := g.Slot0 + j; alt < len(p.loads) && slot < len(p.loads) &&
		p.loads[alt].Load() < p.loads[slot].Load() {
		i, slot = j, alt
	}
	if slot >= len(p.loads) { // topology outgrew the load array: stay safe
		return primary
	}
	p.loads[slot].Add(1)
	pd.readSlot = int32(slot + 1)
	if p.hists != nil && slot < len(p.hists.readSpread) {
		p.hists.readSpread[slot].Record(1)
	}
	return g.Members[i]
}

// mappedSite returns the block-map site for a stripe, fetching a fragment
// from the coordinator on a miss.
func (p *Proxy) mappedSite(sp *obs.Span, fh fhandle.Handle, stripe uint64) (uint32, error) {
	if site, ok := p.maps.get(fh, stripe); ok {
		return site, nil
	}
	first := stripe - stripe%mapChunk
	sites, err := p.coordGetMap(sp, fh, first, mapChunk)
	if err != nil {
		return 0, err
	}
	p.maps.fill(fh, first, sites)
	site, ok := p.maps.get(fh, stripe)
	if !ok {
		return 0, route.ErrEmptyTable
	}
	return site, nil
}

// retargets re-resolves the forwarding path of a retransmitted request
// after a routing-table change. Only paths that resolve without blocking
// are recomputed; mapped-file I/O may need a coordinator RPC, which must
// not run on the sender's goroutine, so it keeps its recorded path.
// Resolution is deterministic (mkdir switching hashes the parent handle
// and name), so a recomputed path agrees with the original whenever the
// responsible logical site is unchanged — only the physical address moves.
func (p *Proxy) retargets(prog uint32, proc nfsproto.Proc, info nfsproto.RequestInfo) ([]netsim.Addr, bool) {
	if prog == mountProgram {
		a, err := p.cfg.Names.Dirs.Lookup(p.cfg.MountSite)
		if err != nil {
			return nil, false
		}
		return []netsim.Addr{a}, true
	}
	if proc == nfsproto.ProcRead || proc == nfsproto.ProcWrite {
		if info.FH.Mapped() && !p.coord().IsZero() {
			return nil, false
		}
		if p.cfg.IO.SmallFileTarget(info.Offset) {
			a, err := p.cfg.IO.SmallFileServer(info.FH)
			if err != nil {
				return nil, false
			}
			return []netsim.Addr{a}, true
		}
		stripe := p.cfg.IO.StripeIndex(info.Offset)
		if proc == nfsproto.ProcWrite {
			// Keep the full resolved fan-out: replica members must all
			// converge, and a write retransmitted across a transition
			// boundary must reach the pending binding too.
			ts, err := p.writeTargets(nil, info.FH, stripe)
			if err != nil || len(ts) == 0 {
				return nil, false
			}
			return ts, true
		}
		a, err := p.readTarget(nil, info.FH, stripe)
		if err != nil {
			return nil, false
		}
		return []netsim.Addr{a}, true
	}
	// Name-space and attribute operations route by the name policy.
	a, err := p.cfg.Names.AddrFor(&info)
	if err != nil {
		return nil, false
	}
	return []netsim.Addr{a}, true
}

// forward registers the pending record, rewrites the destination in place
// (incremental checksum update), and reinjects the datagram. The rewrite
// and all observability stamps happen before the record is published:
// once it is in the pending table, the reply may pair with it on another
// goroutine.
func (p *Proxy) forward(d []byte, key pendKey, pd *pendingReq, target netsim.Addr) netsim.Verdict {
	t0 := time.Now()
	pd.targetsBuf[0] = target
	pd.targets = pd.targetsBuf[:1]
	pd.routeVer = p.routeVersion()

	t1 := time.Now()
	netsim.RewriteDst(d, target)
	rw := time.Since(t1)
	p.st.rewriteNS.Add(uint64(rw))
	p.markSent(pd, t1, rw)

	t2 := time.Now()
	s := p.shardFor(key)
	s.mu.Lock()
	s.pend[key] = pd
	s.mu.Unlock()
	p.st.softStateNS.Add(uint64(time.Since(t2) + t1.Sub(t0)))
	p.st.requests.Add(1)
	_ = p.cfg.Net.Inject(d)
	return netsim.Consumed
}

// forwardMulti replicates the datagram to several targets (mirrored
// writes). Each copy keeps the client's source address and xid so replies
// pair with the same pending record.
func (p *Proxy) forwardMulti(d []byte, key pendKey, pd *pendingReq, targets []netsim.Addr) netsim.Verdict {
	t0 := time.Now()
	if len(targets) <= len(pd.targetsBuf) {
		pd.targets = pd.targetsBuf[:copy(pd.targetsBuf[:], targets)]
	} else {
		pd.targets = targets
	}
	pd.routeVer = p.routeVersion()
	p.markSent(pd, t0, 0)
	s := p.shardFor(key)
	s.mu.Lock()
	s.pend[key] = pd
	s.mu.Unlock()
	p.st.softStateNS.Add(uint64(time.Since(t0)))

	t1 := time.Now()
	p.injectToAll(d, targets)
	p.st.rewriteNS.Add(uint64(time.Since(t1)))
	p.st.requests.Add(1)
	return netsim.Consumed
}

// injectToAll sends d to every target, duplicating it from the buffer
// pool for all but the first. Ownership of d transfers to the network.
func (p *Proxy) injectToAll(d []byte, targets []netsim.Addr) {
	if len(targets) == 0 {
		netsim.FreeBuf(d)
		return
	}
	// Every copy is cut BEFORE the original is injected anywhere: Inject
	// hands the buffer to the network, which may deliver, free, and
	// recycle it while this loop is still running — copying from d after
	// its first injection would mirror whatever the pool reused it for.
	for _, target := range targets[1:] {
		dup := netsim.GetBuf(len(d))
		copy(dup, d)
		netsim.RewriteDst(dup, target)
		_ = p.cfg.Net.Inject(dup)
	}
	netsim.RewriteDst(d, targets[0])
	_ = p.cfg.Net.Inject(d)
}

// rpc returns a client for addr, creating one on first use.
func (p *Proxy) rpc(addr netsim.Addr) (*oncrpc.Client, error) {
	p.clientsMu.Lock()
	defer p.clientsMu.Unlock()
	if c, ok := p.clients[addr]; ok {
		return c, nil
	}
	port, err := p.cfg.Net.BindAny(p.cfg.Host)
	if err != nil {
		return nil, err
	}
	c := oncrpc.NewClient(port, addr, oncrpc.ClientConfig{})
	p.clients[addr] = c
	return c, nil
}

// coordRPC returns the coordinator client, creating it on first use. It
// is built with a resolver reading coordAddr so each (re)transmission of
// an in-flight call chases the address current at send time: a call
// stuck against a dead coordinator completes against its replacement as
// soon as SetCoord publishes the new address.
func (p *Proxy) coordRPC() (*oncrpc.Client, error) {
	p.clientsMu.Lock()
	defer p.clientsMu.Unlock()
	if p.coordCli != nil {
		return p.coordCli, nil
	}
	port, err := p.cfg.Net.BindAny(p.cfg.Host)
	if err != nil {
		return nil, err
	}
	p.coordCli = oncrpc.NewClient(port, p.coord(), oncrpc.ClientConfig{Resolve: p.coord})
	return p.coordCli, nil
}

// nfsCall issues an NFS call the µproxy originates itself (lookups for
// remove orchestration, setattr writeback, commit fan-out); res must not
// alias the reply, which is released on return. The call is
// attributed to span sp (nil for background work) as a hop of the given
// kind, carrying the trace id on the wire.
func (p *Proxy) nfsCall(sp *obs.Span, hop obs.HopKind, addr netsim.Addr, proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg) error {
	c, err := p.rpc(addr)
	if err != nil {
		return err
	}
	p.st.initiated.Add(1)
	rep, err := p.obsCall(sp, hop, c, nfsproto.Program, nfsproto.Version, uint32(proc), args.Encode)
	if err != nil {
		return err
	}
	defer rep.Release()
	return res.Decode(xdr.NewDecoder(rep.Body))
}

// serviceLoop is the paced request worker: one request per ServiceTime,
// metered against an absolute deadline (next += S) so the loop tracks
// its nominal rate instead of accumulating scheduler drift — under
// saturation it forwards exactly 1/ServiceTime ops/s.
func (p *Proxy) serviceLoop() {
	defer p.wg.Done()
	var next time.Time
	for {
		select {
		case <-p.stopCh:
			for {
				select {
				case d := <-p.workCh:
					netsim.FreeBuf(d)
				default:
					return
				}
			}
		case d := <-p.workCh:
			// Bounded catch-up credit: sleep overshoot (timer slack is
			// coarser than ServiceTime) leaves next behind the clock, and
			// the deficit is repaid by serving queued requests back to
			// back. The credit is capped so an idle proxy cannot bank an
			// unlimited burst.
			now := time.Now()
			if floor := now.Add(-32 * p.cfg.ServiceTime); next.Before(floor) {
				next = floor
			} else if wait := next.Sub(now); wait > 0 {
				time.Sleep(wait)
			}
			next = next.Add(p.cfg.ServiceTime)
			p.handleRequest(d)
		}
	}
}

func (p *Proxy) writebackLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.WritebackInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-tick.C:
			p.WritebackAttrs()
		}
	}
}
