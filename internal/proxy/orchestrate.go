package proxy

import (
	"time"

	"slice/internal/attr"
	"slice/internal/coord"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/storage"
	"slice/internal/xdr"
)

// This file implements the operations the µproxy coordinates itself:
// REMOVE and truncating SETATTR (which must clear data on multiple storage
// sites), and COMMIT (which must make a multi-site write set durable).
// Each follows the intention-logging protocol of §3.3.2: declare an
// intention with the coordinator, perform the operation, then send an
// asynchronous completion. If the µproxy dies mid-operation, the
// coordinator times out, probes, and finishes the idempotent tail itself.

// coordIntend declares an intention. With no coordinator configured it
// returns id 0, which Complete ignores. The RPC is attributed to span sp
// as a coordinator hop.
func (p *Proxy) coordIntend(sp *obs.Span, op uint32, fh fhandle.Handle, size uint64) uint64 {
	if p.coord().IsZero() {
		return 0
	}
	c, err := p.coordRPC()
	if err != nil {
		return 0
	}
	rep, err := p.obsCall(sp, obs.HopCoord, c, coord.Program, coord.Version, coord.ProcIntend, func(e *xdr.Encoder) {
		e.PutUint32(op)
		fh.Encode(e)
		e.PutUint64(size)
	})
	if err != nil {
		return 0
	}
	defer rep.Release()
	d := xdr.NewDecoder(rep.Body)
	if st, err := d.Uint32(); err != nil || nfsproto.Status(st) != nfsproto.OK {
		return 0
	}
	id, err := d.Uint64()
	if err != nil {
		return 0
	}
	return id
}

// coordComplete clears an intention.
func (p *Proxy) coordComplete(sp *obs.Span, id uint64) {
	if id == 0 || p.coord().IsZero() {
		return
	}
	c, err := p.coordRPC()
	if err != nil {
		return
	}
	rep, _ := p.obsCall(sp, obs.HopCoord, c, coord.Program, coord.Version, coord.ProcComplete, func(e *xdr.Encoder) {
		e.PutUint64(id)
	})
	rep.Release()
}

// coordGetMap fetches a block-map fragment.
func (p *Proxy) coordGetMap(sp *obs.Span, fh fhandle.Handle, first uint64, count uint32) ([]uint32, error) {
	c, err := p.coordRPC()
	if err != nil {
		return nil, err
	}
	rep, err := p.obsCall(sp, obs.HopCoord, c, coord.Program, coord.Version, coord.ProcGetMap, func(e *xdr.Encoder) {
		fh.Encode(e)
		e.PutUint64(first)
		e.PutUint32(count)
	})
	if err != nil {
		return nil, err
	}
	defer rep.Release()
	d := xdr.NewDecoder(rep.Body)
	st, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if s := nfsproto.Status(st); s != nfsproto.OK {
		return nil, s.Error()
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if err := xdr.CheckLen(n, 1<<20); err != nil {
		return nil, err
	}
	sites := make([]uint32, n)
	for i := range sites {
		if sites[i], err = d.Uint32(); err != nil {
			return nil, err
		}
	}
	return sites, nil
}

// capFH stamps the storage capability into a handle the µproxy sends to
// data servers itself (no-op without a key; harmless for small-file
// servers, which ignore the field).
func (p *Proxy) capFH(fh fhandle.Handle) fhandle.Handle {
	if len(p.cfg.CapKey) == 0 {
		return fh
	}
	return fhandle.WithCapability(p.cfg.CapKey, fh)
}

// objOp issues a raw-object remove/truncate/stat at addr. The error
// matters to callers holding an intention: a site that could not be
// reached still holds data, so the intention must stay pending for the
// coordinator to finish.
func (p *Proxy) objOp(sp *obs.Span, addr netsim.Addr, proc uint32, fh fhandle.Handle, extra func(*xdr.Encoder)) error {
	c, err := p.rpc(addr)
	if err != nil {
		return err
	}
	p.st.initiated.Add(1)
	capped := p.capFH(fh)
	rep, err := p.obsCall(sp, p.hopForSite(addr), c, storage.ObjProgram, storage.ObjVersion, proc, func(e *xdr.Encoder) {
		capped.Encode(e)
		if extra != nil {
			extra(e)
		}
	})
	rep.Release()
	return err
}

// dataSites enumerates the sites that may hold data of fh: its small-file
// server and — when the file extends past the threshold, or its size is
// unknown — every storage node, with replica-group primaries expanded to
// their whole group so removes, truncates, and commit barriers reach
// every member.
func (p *Proxy) dataSites(fh fhandle.Handle) []netsim.Addr {
	var out []netsim.Addr
	if p.cfg.IO.SmallFile != nil {
		if a, err := p.cfg.IO.SmallFileServer(fh); err == nil {
			out = append(out, a)
		}
	}
	large := true
	if at, ok := p.attrs.get(fh); ok && at.Size < p.cfg.IO.Threshold {
		large = false
	}
	if large {
		seen := make(map[netsim.Addr]bool)
		add := func(a netsim.Addr) {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
		for _, a := range p.cfg.IO.Storage.Physical() {
			if g, ok := p.cfg.IO.Replicas.GroupOf(a); ok {
				for _, m := range g.Members {
					add(m)
				}
			} else {
				add(a)
			}
		}
		// Mid-transition, the pending binding's nodes may already hold
		// double-written blocks; a remove or truncate that skipped them
		// would resurrect dead bytes at the swap.
		if pend := p.cfg.IO.Storage.PendingPhysical(); pend != nil {
			reps := p.cfg.IO.Storage.PendingReplicas()
			if reps == nil {
				reps = p.cfg.IO.Replicas
			}
			for _, a := range pend {
				if g, ok := reps.GroupOf(a); ok {
					for _, m := range g.Members {
						add(m)
					}
				} else {
					add(a)
				}
			}
		}
	}
	return out
}

// observeAttr folds authoritative attributes into the cache; if the
// insert evicted a dirty entry, its attributes are written back outside
// the shard lock, on a helper goroutine, so a slow directory server never
// stalls unrelated cache traffic.
func (p *Proxy) observeAttr(fh fhandle.Handle, at attr.Attr) {
	if e, dirty := p.attrs.observe(fh, at); dirty {
		p.writebackEvicted(e)
	}
}

// updateAttr applies a local attribute update (I/O completion) to the
// cache, with the same out-of-lock eviction writeback as observeAttr.
func (p *Proxy) updateAttr(fh fhandle.Handle, fn func(*attr.Attr)) {
	if e, dirty := p.attrs.update(fh, fn); dirty {
		p.writebackEvicted(e)
	}
}

// writebackEvicted pushes a dirty evictee's attributes to its directory
// server asynchronously.
func (p *Proxy) writebackEvicted(e attrEntry) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.pushOne(e.fh, e.at)
	}()
}

// resolveChild finds the handle bound to (dir, name), first in the name
// cache, then by an own LOOKUP to the responsible directory server.
func (p *Proxy) resolveChild(dir fhandle.Handle, name string) (fhandle.Handle, bool) {
	if fh, ok := p.names.get(dir, name); ok {
		return fh, true
	}
	info := nfsproto.RequestInfo{Proc: nfsproto.ProcLookup, FH: dir, Name: name, HasName: true}
	addr, err := p.cfg.Names.AddrFor(&info)
	if err != nil {
		return fhandle.Handle{}, false
	}
	var res nfsproto.LookupRes
	if err := p.nfsCall(nil, obs.HopDirsrv, addr, nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: dir, Name: name}, &res); err != nil {
		return fhandle.Handle{}, false
	}
	if res.Status != nfsproto.OK {
		return fhandle.Handle{}, false
	}
	if res.Attr.Present {
		p.observeAttr(res.FH, res.Attr.Attr)
	}
	p.names.put(dir, name, res.FH)
	return res.FH, true
}

// routeRemove forwards REMOVE to the directory server with an onOK hook
// that clears the victim's data across the storage sites under an
// intention, then forgets its soft state. It owns d: every path forwards
// or frees it.
func (p *Proxy) routeRemove(d []byte, key pendKey, pd *pendingReq) netsim.Verdict {
	addr, err := p.cfg.Names.AddrFor(&pd.info)
	if err != nil {
		p.dropPending(pd)
		return p.consumeDrop(d)
	}
	dir, name := pd.info.FH, pd.info.Name
	child, known := p.resolveChild(dir, name)

	// The hook runs on the response goroutine before the span is closed,
	// so its RPCs are attributed to the request's span via pd.
	pd.onOK = func() {
		p.names.drop(dir, name)
		if !known || child.Type == uint8(attr.TypeDir) {
			return
		}
		// Clear data only when the last link went away. The attribute
		// cache is soft state and its link count may be stale (e.g. a
		// LINK the µproxy never saw), so ask the directory server: after
		// a remove, a live attribute cell means other names remain;
		// ESTALE means the file is gone and its data must be cleared.
		var ga nfsproto.GetAttrRes
		gaInfo := nfsproto.RequestInfo{Proc: nfsproto.ProcGetAttr, FH: child}
		if addr, err := p.cfg.Names.AddrFor(&gaInfo); err == nil {
			if err := p.nfsCall(pd.span, obs.HopDirsrv, addr, nfsproto.ProcGetAttr, &nfsproto.GetAttrArgs{FH: child}, &ga); err == nil && ga.Status == nfsproto.OK {
				p.observeAttr(child, ga.Attr)
				return // still linked: keep the data
			}
		}
		id := p.coordIntend(pd.span, coord.OpRemove, child, 0)
		cleared := true
		for _, site := range p.dataSites(child) {
			if err := p.objOp(pd.span, site, storage.ObjProcRemove, child, nil); err != nil {
				cleared = false
			}
		}
		// Complete only when every site confirmed. Otherwise the
		// intention stays pending and the coordinator's probe finishes
		// the idempotent remove on all sites (§4.2) — never an orphan.
		if cleared {
			p.coordComplete(pd.span, id)
		}
		p.attrs.forget(child)
		p.maps.forget(child)
	}
	return p.forward(d, key, pd, addr)
}

// routeSetAttr forwards SETATTR; truncating updates additionally clear
// data beyond the new size on every data site, under an intention.
func (p *Proxy) routeSetAttr(d []byte, key pendKey, pd *pendingReq) netsim.Verdict {
	var args nfsproto.SetAttrArgs
	if err := args.Decode(xdr.NewDecoder(netsim.Payload(d)[oncrpc.CallHeader:])); err != nil {
		p.dropPending(pd)
		return p.consumeDrop(d)
	}
	addr, err := p.cfg.Names.AddrFor(&pd.info)
	if err != nil {
		p.dropPending(pd)
		return p.consumeDrop(d)
	}
	if args.Sattr.SetSize {
		fh, size := args.FH, args.Sattr.Size
		pd.onOK = func() {
			id := p.coordIntend(pd.span, coord.OpTruncate, fh, size)
			cleared := true
			for _, site := range p.dataSites(fh) {
				if err := p.objOp(pd.span, site, storage.ObjProcTruncate, fh, func(e *xdr.Encoder) {
					e.PutUint64(size)
				}); err != nil {
					cleared = false
				}
			}
			// As with remove: an unreached site keeps the intention
			// pending so the coordinator finishes the truncate itself.
			if cleared {
				p.coordComplete(pd.span, id)
			}
			now := attr.FromGo(time.Now())
			p.updateAttr(fh, func(a *attr.Attr) {
				a.Size = size
				a.Mtime = now
				a.Ctime = now
			})
			p.maps.forget(fh)
		}
	}
	return p.forward(d, key, pd, addr)
}

// absorbCommit answers COMMIT without forwarding it: the µproxy pushes the
// file's dirty attributes to the directory server, declares a commit
// intention, commits every involved data site, clears the intention, and
// synthesizes the reply. This is the consistent write commitment of §4.2.
// The span (nil when tracing is off) collects every RPC of the chain and
// is closed — and the absorbed op's end-to-end latency recorded — when
// the reply is injected.
func (p *Proxy) absorbCommit(client netsim.Addr, xid uint32, info nfsproto.RequestInfo, sp *obs.Span, startNS int64) {
	fh := info.FH
	defer func() {
		endNS := time.Now().UnixNano()
		if p.hists != nil && startNS != 0 {
			p.hists.e2e[nfsproto.ProcCommit].Record(uint64(endNS - startNS))
		}
		if sp != nil {
			p.tracer.Finish(sp, endNS)
		}
	}()
	p.pushAttrs(sp, fh)

	id := p.coordIntend(sp, coord.OpCommit, fh, uint64(info.Count))
	var verf uint64
	committed := true
	for _, site := range p.dataSites(fh) {
		var cres nfsproto.CommitRes
		if err := p.nfsCall(sp, p.hopForSite(site), site, nfsproto.ProcCommit, &nfsproto.CommitArgs{
			FH: p.capFH(fh), Offset: info.Offset, Count: info.Count,
		}, &cres); err == nil && cres.Status == nfsproto.OK {
			verf ^= cres.Verf
		} else {
			committed = false
		}
	}
	// Only a fully committed write set clears the intention. A partial
	// commit with a durable intention may still be acknowledged — the
	// coordinator's probe finishes the idempotent commit on every site
	// (§4.2), so the acknowledgement never outruns durability. Without
	// an intention there is no such guarantee: fail the commit so the
	// client retains and retries its uncommitted writes.
	if committed {
		p.coordComplete(sp, id)
		if p.dirty != nil {
			// The commit barrier drained the file's window on every
			// member: whatever over-approximated dirtiness the object
			// accumulated (lost records, partial fan-outs) is resolved,
			// and its reads may spread again.
			p.dirty.ForceClear(fh.Ident())
		}
	} else if id == 0 {
		fail := nfsproto.CommitRes{Status: nfsproto.ErrIO}
		if out, err := oncrpc.EncodeReplyDatagram(p.cfg.Virtual, client, xid, oncrpc.AcceptSuccess, fail.Encode); err == nil {
			p.st.absorbed.Add(1)
			p.st.responses.Add(1)
			_ = p.cfg.Net.Inject(out)
		} else {
			p.st.dropped.Add(1)
		}
		return
	}

	res := nfsproto.CommitRes{Status: nfsproto.OK, Verf: verf}
	if at, ok := p.attrs.get(fh); ok {
		res.Attr = nfsproto.Some(at)
	}
	out, err := oncrpc.EncodeReplyDatagram(p.cfg.Virtual, client, xid, oncrpc.AcceptSuccess, res.Encode)
	if err != nil {
		p.st.dropped.Add(1)
		return
	}
	p.st.absorbed.Add(1)
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(out)
}

// pushAttrs writes the file's dirty cached attributes back to its
// directory server with SETATTR (§4.1: on commit interception and on
// eviction).
func (p *Proxy) pushAttrs(sp *obs.Span, fh fhandle.Handle) {
	at, ok := p.attrs.takeDirty(fh)
	if !ok {
		return
	}
	info := nfsproto.RequestInfo{Proc: nfsproto.ProcSetAttr, FH: fh}
	addr, err := p.cfg.Names.AddrFor(&info)
	if err != nil {
		p.attrs.markDirty(fh)
		return
	}
	args := nfsproto.SetAttrArgs{FH: fh, Sattr: attr.SetAttr{
		SetSize: true, Size: at.Size,
		SetMtime: true, Mtime: at.Mtime,
		SetAtime: true, Atime: at.Atime,
	}}
	var res nfsproto.SetAttrRes
	if err := p.nfsCall(sp, obs.HopDirsrv, addr, nfsproto.ProcSetAttr, &args, &res); err != nil || res.Status != nfsproto.OK {
		p.attrs.markDirty(fh)
	}
}

// WritebackAttrs pushes every dirty attribute entry to the directory
// servers. Capacity eviction happens inline at insert time (LRU per
// shard), with dirty evictees written back outside the shard lock; this
// periodic sweep only bounds the drift of entries that stay resident.
// The background flusher calls this at WritebackInterval; tests and the
// commit path call it directly.
func (p *Proxy) WritebackAttrs() {
	for _, e := range p.attrs.allDirty() {
		p.pushOne(e.fh, e.at)
	}
}

// pushOne writes one attribute set back without consulting the cache.
func (p *Proxy) pushOne(fh fhandle.Handle, at attr.Attr) {
	info := nfsproto.RequestInfo{Proc: nfsproto.ProcSetAttr, FH: fh}
	addr, err := p.cfg.Names.AddrFor(&info)
	if err != nil {
		return
	}
	args := nfsproto.SetAttrArgs{FH: fh, Sattr: attr.SetAttr{
		SetSize: true, Size: at.Size,
		SetMtime: true, Mtime: at.Mtime,
		SetAtime: true, Atime: at.Atime,
	}}
	var res nfsproto.SetAttrRes
	_ = p.nfsCall(nil, obs.HopDirsrv, addr, nfsproto.ProcSetAttr, &args, &res)
}
