package proxy

import (
	"fmt"
	"time"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/xdr"
)

// This file is the µproxy's observability wiring: per-stage and per-hop
// latency histograms, pooled per-request trace spans keyed by the client
// xid, and the absorbed stats RPC program that lets slicectl aggregate a
// live ensemble over the wire.
//
// The discipline matches the pooled data path: histogram pointers are
// resolved once at construction (the registry's map and lock are never
// touched per request), a span is a pool object stamped and recycled by
// the tracer, and every obs field of a pending record is written before
// the record becomes reachable from the pending table — so the response
// path, which owns the record exclusively after pairing, never races the
// request path.

// proxyHists caches direct histogram pointers for the data path.
type proxyHists struct {
	classify *obs.Histogram
	route    *obs.Histogram
	rewrite  *obs.Histogram
	hop      [obs.HopMount + 1]*obs.Histogram
	e2e      [nfsproto.ProcCommit + 1]*obs.Histogram
	mount    *obs.Histogram

	// Replica-layer counters (empty/nil when the array is unreplicated):
	// dirtyOcc samples dirty-set occupancy at each write fan-out, pinned
	// counts reads pinned to a primary by a dirty object, and
	// readSpread[slot] counts spread reads sent to each member slot —
	// the per-replica read balance slicectl reports.
	dirtyOcc   *obs.Histogram
	pinned     *obs.Histogram
	readSpread []*obs.Histogram
}

func newProxyHists(reg *obs.Registry, replicas *replica.Map) *proxyHists {
	h := &proxyHists{
		classify: reg.Hist("stage.classify"),
		route:    reg.Hist("stage.route"),
		rewrite:  reg.Hist("stage.rewrite"),
		mount:    reg.Hist("e2e.mount.mnt"),
	}
	for k := obs.HopDirsrv; k <= obs.HopMount; k++ {
		h.hop[k] = reg.Hist("hop." + k.String())
	}
	for proc := range h.e2e {
		h.e2e[proc] = reg.Hist("e2e." + obs.OpName(nfsproto.Program, uint32(proc)))
	}
	if replicas.Replicated() {
		h.dirtyOcc = reg.Hist("replica.dirty_occupancy")
		h.pinned = reg.Hist("replica.pinned_reads")
		// One histogram per member slot, named group.member so slicectl
		// can report per-group balance without knowing the topology.
		h.readSpread = make([]*obs.Histogram, replicas.Slots())
		for _, g := range replicas.Groups() {
			for m := range g.Members {
				h.readSpread[g.Slot0+m] = reg.Hist(fmt.Sprintf("replica.read[%d.%d]", g.ID, m))
			}
		}
	}
	return h
}

// histE2E returns the end-to-end histogram for a request's op class.
func (p *Proxy) histE2E(prog uint32, proc nfsproto.Proc) *obs.Histogram {
	if prog == mountProgram {
		return p.hists.mount
	}
	if int(proc) < len(p.hists.e2e) {
		return p.hists.e2e[proc]
	}
	return nil
}

// beginObs stamps a fresh pending record with its observability state:
// the request start, the classify (intercept + decode) cost, and — when
// tracing is on — a pooled span. It runs before the record is published
// to the pending table.
func (p *Proxy) beginObs(pd *pendingReq, xid, proc uint32, t0 time.Time, classify time.Duration) {
	if p.hists == nil && p.tracer == nil {
		return
	}
	pd.startNS = t0.UnixNano()
	pd.clsNS = uint64(classify)
	if p.hists != nil {
		p.hists.classify.Record(pd.clsNS)
	}
	if p.tracer != nil {
		sp := p.tracer.Start(uint64(xid), proc, pd.startNS)
		sp.Prog = pd.prog
		sp.ClassifyNS = pd.clsNS
		pd.span = sp
	}
}

// markSent records the route and rewrite stages and the forward
// timestamp. It must run before the record is inserted into the pending
// table: once inserted, the reply may pair with it concurrently.
func (p *Proxy) markSent(pd *pendingReq, now time.Time, rewrite time.Duration) {
	if pd.startNS == 0 {
		return
	}
	nowNS := now.UnixNano()
	pd.sentAt = nowNS
	var routeNS uint64
	if elapsed := uint64(nowNS - pd.startNS); elapsed > pd.clsNS {
		routeNS = elapsed - pd.clsNS
	}
	if sp := pd.span; sp != nil {
		sp.RouteNS = routeNS
		sp.RewriteNS = uint64(rewrite)
	}
	if p.hists != nil {
		p.hists.route.Record(routeNS)
		p.hists.rewrite.Record(uint64(rewrite))
	}
}

// recordHop attributes the forwarded hop's round trip when its (last)
// reply pairs. The reply trailer, when present, splits out the server's
// handler time; the caller owns pd exclusively.
func (p *Proxy) recordHop(pd *pendingReq, replyBody []byte) {
	if pd.sentAt == 0 {
		return
	}
	total := uint64(time.Now().UnixNano() - pd.sentAt)
	var srvNS uint64
	if _, ns, ok := oncrpc.PeekReplyTrace(replyBody); ok {
		srvNS = ns
	}
	if pd.span != nil {
		pd.span.AddHop(pd.hop, total, srvNS)
	}
	if p.hists != nil {
		if h := p.hists.hop[pd.hop]; h != nil {
			h.Record(total)
		}
	}
	pd.sentAt = 0
}

// endObs closes out a request: records its end-to-end latency and
// archives the span. The caller owns pd exclusively.
func (p *Proxy) endObs(pd *pendingReq) {
	if pd.startNS == 0 {
		return
	}
	endNS := time.Now().UnixNano()
	if p.hists != nil {
		if h := p.histE2E(pd.prog, pd.proc); h != nil {
			h.Record(uint64(endNS - pd.startNS))
		}
	}
	if pd.span != nil {
		p.tracer.Finish(pd.span, endNS)
		pd.span = nil
	}
}

// dropPending recycles a pending record on a request-path error,
// returning its span (never archived: the request crossed no hop).
func (p *Proxy) dropPending(pd *pendingReq) {
	if pd.span != nil {
		p.tracer.Abort(pd.span)
		pd.span = nil
	}
	putPending(pd)
}

// hopForSite classifies a data-site address for hop attribution.
func (p *Proxy) hopForSite(addr netsim.Addr) obs.HopKind {
	if p.cfg.IO.SmallFile != nil {
		for _, a := range p.cfg.IO.SmallFile.Physical() {
			if a == addr {
				return obs.HopSmallfile
			}
		}
	}
	return obs.HopStorage
}

// obsCall wraps a µproxy-originated RPC: it carries the span's trace id
// on the wire (so the server's reply trailer attributes its handler
// time), times the round trip, and records the hop. The caller releases
// the reply.
func (p *Proxy) obsCall(sp *obs.Span, hop obs.HopKind, c *oncrpc.Client, prog, vers, proc uint32, args func(*xdr.Encoder)) (oncrpc.Reply, error) {
	if sp == nil && p.hists == nil {
		return c.Call(prog, vers, proc, args)
	}
	t0 := time.Now()
	var rep oncrpc.Reply
	var err error
	if sp != nil {
		rep, err = c.CallTraced(sp.ID, prog, vers, proc, args)
	} else {
		rep, err = c.Call(prog, vers, proc, args)
	}
	total := uint64(time.Since(t0))
	var srvNS uint64
	if err == nil {
		if _, ns, ok := oncrpc.PeekReplyTrace(rep.Body); ok {
			srvNS = ns
		}
	}
	if sp != nil {
		sp.AddHop(hop, total, srvNS)
	}
	if p.hists != nil {
		if h := p.hists.hop[hop]; h != nil {
			h.Record(total)
		}
	}
	return rep, err
}

// answerStats serves one absorbed stats-program call (obs.Program) from
// the configured StatsFn, replying as the virtual server. Runs on a
// helper goroutine: StatsFn walks registries under their locks.
func (p *Proxy) answerStats(client netsim.Addr, xid, proc, arg uint32) {
	out := p.cfg.StatsFn(proc, arg)
	accept, res := uint32(oncrpc.AcceptSuccess), func(e *xdr.Encoder) { e.PutOpaque(out) }
	if out == nil {
		accept, res = oncrpc.AcceptProcUnavail, nil
	}
	// An oversized snapshot (beyond the fabric MTU) fails to encode and
	// is counted as dropped; the caller times out and can ask for less
	// (fewer traces) rather than the µproxy fragmenting.
	d, err := oncrpc.EncodeReplyDatagram(p.cfg.Virtual, client, xid, accept, res)
	if err != nil {
		p.st.dropped.Add(1)
		return
	}
	p.st.absorbed.Add(1)
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(d)
}
