// Package coord implements the Slice block-service coordinator (§2.2,
// §3.3.2, §4.2).
//
// A coordinator manages a subset of files, selected by fileID. It has two
// jobs. First, it maintains optional per-file block maps that give the
// storage site for each logical block, enabling dynamic I/O placement
// policies beyond static striping. Second, it preserves the atomicity of
// operations that span multiple storage sites — remove/truncate, NFS V3
// write commitment, and mirrored writes — with an intention-logging
// protocol: the µproxy declares an intention before the operation, the
// coordinator logs it to stable storage, and the µproxy clears it with a
// completion message afterwards. If the completion never arrives, the
// coordinator finishes the operation itself: the finishing actions
// (remove/truncate/commit on every possible site) are idempotent, so
// re-execution after a coordinator crash is safe. A recovering coordinator
// scans its intentions log and completes or discards operations that were
// in flight at the time of the failure.
package coord

import (
	"fmt"
	"sync"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// Program identifies the coordinator RPC service.
const (
	Program = 200301
	Version = 1
)

// Coordinator procedures.
const (
	ProcIntend   = 1 // declare an intention; returns its id
	ProcComplete = 2 // clear an intention
	ProcGetMap   = 3 // fetch/allocate block-map fragments
)

// Intention operation types.
const (
	OpRemove   = 1 // remove file data from all sites
	OpTruncate = 2 // truncate file data on all sites
	OpCommit   = 3 // commit (make durable) a multi-site write set
	OpMirror   = 4 // mirrored write in progress
	OpMigrate  = 5 // topology transition in progress; Size carries the epoch
)

// opName renders an op type for errors and logs.
func opName(op uint32) string {
	switch op {
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpCommit:
		return "commit"
	case OpMirror:
		return "mirror-write"
	case OpMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// intent is one logged intention.
type intent struct {
	ID     uint64
	Op     uint32
	FH     fhandle.Handle
	Size   uint64 // truncate target size; commit/mirror byte count
	Logged time.Time
}

// WAL record types.
const (
	recIntent   = 1
	recComplete = 2
	recMapAlloc = 3
)

// Stats counts coordinator activity.
type Stats struct {
	Intentions  uint64
	Completions uint64
	Finished    uint64 // operations the coordinator finished itself
	MapAllocs   uint64
	MapFetches  uint64
}

// Config configures a coordinator.
type Config struct {
	// Log is the intentions journal (backed by the storage service via a
	// static placement function, per §4.2).
	Log *wal.Log
	// Storage maps logical storage sites to storage nodes.
	Storage *route.Table
	// SmallFile maps logical small-file sites to small-file servers; may
	// be nil when no small-file servers are configured.
	SmallFile *route.Table
	// Net and Host are used to bind client ports toward the data servers.
	Net  *netsim.Network
	Host uint32
	// ProbeAfter is how long an intention may sit unacknowledged before
	// the coordinator finishes the operation itself (default 2s).
	ProbeAfter time.Duration
	// MapStripeSpread controls dynamic placement: block-map allocation
	// assigns stripes round-robin over the storage sites starting at a
	// per-file base.
	MapStripeSpread bool
	// CapKey is the storage capability key (§2.2); the coordinator is
	// inside the trust boundary and stamps capabilities into the handles
	// of its recovery-time storage operations.
	CapKey []byte
}

// Coordinator is one block-service coordinator site.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*intent
	maps    map[fhandle.Key][]uint32 // stripe -> logical storage site
	rr      uint64                   // round-robin allocation cursor
	stats   Stats

	clientsMu sync.Mutex
	clients   map[netsim.Addr]*oncrpc.Client

	srv       *oncrpc.Server
	stopCh    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a coordinator serving on port.
func New(port *netsim.Port, cfg Config) *Coordinator {
	c := newCoordinator(cfg)
	c.start(port)
	return c
}

// Restart builds a coordinator from its intentions log: state is rebuilt
// and in-flight operations of the failed incarnation are finished BEFORE
// the server begins accepting calls on port, so no new intention can race
// recovery or collide with a recovered id. This is the uniform
// crash-restart path the chaos harness uses (§4.2: a restarted
// coordinator scans its log and completes interrupted operations).
func Restart(port *netsim.Port, cfg Config, log *wal.Log) (*Coordinator, error) {
	c := newCoordinator(cfg)
	if err := c.recoverState(log); err != nil {
		return nil, err
	}
	c.finishRecovered()
	c.start(port)
	return c, nil
}

func newCoordinator(cfg Config) *Coordinator {
	if cfg.ProbeAfter <= 0 {
		cfg.ProbeAfter = 2 * time.Second
	}
	return &Coordinator{
		cfg:     cfg,
		nextID:  1,
		pending: make(map[uint64]*intent),
		maps:    make(map[fhandle.Key][]uint32),
		clients: make(map[netsim.Addr]*oncrpc.Client),
		stopCh:  make(chan struct{}),
	}
}

func (c *Coordinator) start(port *netsim.Port) {
	c.srv = oncrpc.NewServer(port, oncrpc.HandlerFunc(c.serve))
	c.wg.Add(1)
	go c.probeLoop()
}

// Addr returns the coordinator's address.
func (c *Coordinator) Addr() netsim.Addr { return c.srv.Addr() }

// SetObs attaches a histogram registry recording per-procedure handler
// latency (nil detaches).
func (c *Coordinator) SetObs(reg *obs.Registry) {
	if reg == nil {
		c.srv.SetObserver(nil)
		return
	}
	c.srv.SetObserver(reg.ObserveRPC)
}

// Stats returns a snapshot of the coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// PendingIntentions returns the number of unacknowledged intentions.
func (c *Coordinator) PendingIntentions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Close stops the coordinator. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stopCh)
		c.srv.Close()
		c.wg.Wait()
		c.clientsMu.Lock()
		for _, cl := range c.clients {
			cl.Close()
		}
		c.clientsMu.Unlock()
	})
}

func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ProbeAfter / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-tick.C:
			c.CheckIntentions(time.Now())
		}
	}
}

// CheckIntentions finishes every intention older than ProbeAfter,
// returning how many it completed. An intention whose operation could
// not be confirmed on every site stays pending — completing it anyway
// would silently orphan the unreachable site's blocks — and the next
// probe retries it. It is exported so tests can drive the probe
// deterministically.
func (c *Coordinator) CheckIntentions(now time.Time) int {
	c.mu.Lock()
	var stale []*intent
	for _, in := range c.pending {
		if now.Sub(in.Logged) >= c.cfg.ProbeAfter {
			stale = append(stale, in)
		}
	}
	c.mu.Unlock()
	done := 0
	for _, in := range stale {
		if c.finish(in) != nil {
			continue
		}
		c.clearIntent(in.ID, true)
		done++
	}
	return done
}

// clearIntent removes an intention and journals the completion. The
// completion record is appended under c.mu (so the journal order matches
// the state-change order) but synced after the lock is dropped: a slow
// log device must not stall every other coordinator RPC. Group commit in
// wal.Log.Sync coalesces the device syncs of concurrent completions.
func (c *Coordinator) clearIntent(id uint64, finished bool) {
	c.mu.Lock()
	if _, ok := c.pending[id]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.pending, id)
	if finished {
		c.stats.Finished++
	} else {
		c.stats.Completions++
	}
	e := xdr.NewEncoder(8)
	e.PutUint64(id)
	log := c.cfg.Log
	_, _ = log.Append(recComplete, e.Bytes())
	c.mu.Unlock()
	_ = log.Sync()
}

// finish performs the idempotent completing actions for an intention whose
// initiator may have failed: it drives every site that could hold state
// for the operation to the operation's final state.
func (c *Coordinator) finish(in *intent) error {
	fh := in.FH
	if len(c.cfg.CapKey) > 0 {
		fh = fhandle.WithCapability(c.cfg.CapKey, fh)
	}
	in = &intent{ID: in.ID, Op: in.Op, FH: fh, Size: in.Size, Logged: in.Logged}
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	switch in.Op {
	case OpRemove:
		c.forEachDataSite(in.FH, func(addr netsim.Addr) {
			record(c.objCall(addr, storageObjProcRemove, in.FH, nil))
		})
	case OpTruncate:
		c.forEachDataSite(in.FH, func(addr netsim.Addr) {
			record(c.objCall(addr, storageObjProcTruncate, in.FH, func(e *xdr.Encoder) { e.PutUint64(in.Size) }))
		})
	case OpCommit, OpMirror:
		// Commit on every replica/site the file's blocks could live on;
		// NFS commit of clean data is a no-op, so over-commit is safe.
		c.forEachStorage(func(addr netsim.Addr) {
			record(c.nfsCommit(addr, in.FH))
		})
	case OpMigrate:
		// A migration intention gone stale means its rebalance driver
		// died mid-copy: roll the topology transition back so the old
		// binding (which saw every double-written byte) stays
		// authoritative. The epoch guard makes this a no-op against a
		// newer — or already closed — transition, and a live driver
		// keeps its intention fresh by chaining Complete+Intend, so a
		// probe never reaches a healthy migration.
		if c.cfg.Storage != nil {
			c.cfg.Storage.Abort(in.Size)
		}
	}
	return firstErr
}

// forEachStorage visits every storage node address once — including the
// nodes of a pending topology transition, so recovery-time removes,
// truncates, and commits reach the binding about to take over (a
// remove finished against only the old nodes could resurrect its bytes
// at the swap).
func (c *Coordinator) forEachStorage(f func(netsim.Addr)) {
	seen := make(map[netsim.Addr]bool)
	for _, a := range c.cfg.Storage.Physical() {
		if !seen[a] {
			seen[a] = true
			f(a)
		}
	}
	for _, a := range c.cfg.Storage.PendingPhysical() {
		if !seen[a] {
			seen[a] = true
			f(a)
		}
	}
}

// forEachDataSite visits every storage node and (if configured) the
// small-file server responsible for fh.
func (c *Coordinator) forEachDataSite(fh fhandle.Handle, f func(netsim.Addr)) {
	c.forEachStorage(f)
	if c.cfg.SmallFile != nil {
		if a, err := c.cfg.SmallFile.Route(fhandle.HandleKey(fh)); err == nil {
			f(a)
		}
	}
}

// client returns (creating if needed) an RPC client to addr.
func (c *Coordinator) client(a netsim.Addr) (*oncrpc.Client, error) {
	c.clientsMu.Lock()
	defer c.clientsMu.Unlock()
	if cl, ok := c.clients[a]; ok {
		return cl, nil
	}
	port, err := c.cfg.Net.BindAny(c.cfg.Host)
	if err != nil {
		return nil, err
	}
	cl := oncrpc.NewClient(port, a, oncrpc.ClientConfig{})
	c.clients[a] = cl
	return cl, nil
}

// Program/proc constants of the storage raw-object service, duplicated
// here to avoid an import cycle with the storage package's tests.
const (
	storageObjProgram      = 200101
	storageObjVersion      = 1
	storageObjProcRemove   = 1
	storageObjProcTruncate = 2
)

// objCall issues a raw-object procedure for fh at addr; extra (optional)
// appends procedure-specific arguments after the handle.
func (c *Coordinator) objCall(addr netsim.Addr, proc uint32, fh fhandle.Handle, extra func(*xdr.Encoder)) error {
	cl, err := c.client(addr)
	if err != nil {
		return err
	}
	rep, err := cl.Call(storageObjProgram, storageObjVersion, proc, func(e *xdr.Encoder) {
		fh.Encode(e)
		if extra != nil {
			extra(e)
		}
	})
	rep.Release()
	return err
}

// nfsCommit issues an NFS COMMIT for fh at addr.
func (c *Coordinator) nfsCommit(addr netsim.Addr, fh fhandle.Handle) error {
	cl, err := c.client(addr)
	if err != nil {
		return err
	}
	rep, err := cl.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcCommit), func(e *xdr.Encoder) {
		args := nfsproto.CommitArgs{FH: fh}
		args.Encode(e)
	})
	rep.Release()
	return err
}

// ---------------------------------------------------------------- serving

func (c *Coordinator) serve(call oncrpc.Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
	if call.Program != Program {
		return nil, oncrpc.AcceptProgUnavail
	}
	d := xdr.NewDecoder(call.Body)
	switch call.Proc {
	case ProcIntend:
		op, err := d.Uint32()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		fh, err := fhandle.Decode(d)
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		size, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		id, err := c.Intend(op, fh, size)
		st := nfsproto.OK
		if err != nil {
			st = nfsproto.ErrIO
		}
		return func(e *xdr.Encoder) {
			e.PutUint32(uint32(st))
			e.PutUint64(id)
		}, oncrpc.AcceptSuccess

	case ProcComplete:
		id, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		c.Complete(id)
		return func(e *xdr.Encoder) { e.PutUint32(uint32(nfsproto.OK)) }, oncrpc.AcceptSuccess

	case ProcGetMap:
		fh, err := fhandle.Decode(d)
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		first, err := d.Uint64()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		count, err := d.Uint32()
		if err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		sites, err := c.GetMap(fh, first, count)
		st := nfsproto.OK
		if err != nil {
			st = nfsproto.ErrIO
		}
		return func(e *xdr.Encoder) {
			e.PutUint32(uint32(st))
			e.PutUint32(uint32(len(sites)))
			for _, s := range sites {
				e.PutUint32(s)
			}
		}, oncrpc.AcceptSuccess

	default:
		return nil, oncrpc.AcceptProcUnavail
	}
}

// Intend logs a new intention and returns its id. The record is appended
// to the journal under c.mu — keeping journal order identical to id
// order — but the durability sync runs outside the critical section, so
// one slow log sync cannot block every other coordinator RPC. The
// "logged before acknowledged" invariant holds: Intend does not return
// (and the RPC reply is not sent) until Sync says the record is durable,
// and concurrent intentions' syncs coalesce via group commit.
func (c *Coordinator) Intend(op uint32, fh fhandle.Handle, size uint64) (uint64, error) {
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	in := &intent{ID: id, Op: op, FH: fh, Size: size, Logged: time.Now()}
	c.pending[id] = in
	c.stats.Intentions++
	e := xdr.NewEncoder(64)
	e.PutUint64(id)
	e.PutUint32(op)
	fh.Encode(e)
	e.PutUint64(size)
	log := c.cfg.Log
	_, err := log.Append(recIntent, e.Bytes())
	c.mu.Unlock()
	if err == nil {
		err = log.Sync()
	}
	if err != nil {
		// Not durable: withdraw the intention rather than acknowledge an
		// operation recovery would never see.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return 0, err
	}
	return id, nil
}

// Complete clears an intention after the initiator finished the operation.
func (c *Coordinator) Complete(id uint64) {
	c.clearIntent(id, false)
}

// GetMap returns the logical storage sites of stripes [first, first+count)
// of fh, allocating map entries for unmapped stripes. Allocation is
// round-robin from a per-file base so concurrent large files interleave
// over the array.
func (c *Coordinator) GetMap(fh fhandle.Handle, first uint64, count uint32) ([]uint32, error) {
	n := c.cfg.Storage.NumLogical()
	if n == 0 {
		return nil, route.ErrEmptyTable
	}
	c.mu.Lock()
	c.stats.MapFetches++
	key := fh.Ident()
	m := c.maps[key]
	end := first + uint64(count)
	grew := false
	for uint64(len(m)) < end {
		var site uint32
		if c.cfg.MapStripeSpread {
			site = uint32(c.rr % uint64(n))
			c.rr++
		} else {
			site = uint32((fhandle.HandleKey(fh) + uint64(len(m))) % uint64(n))
		}
		m = append(m, site)
		c.stats.MapAllocs++
		grew = true
	}
	c.maps[key] = m
	out := make([]uint32, count)
	copy(out, m[first:end])
	if !grew {
		c.mu.Unlock()
		return out, nil
	}
	// Journal the post-state map under c.mu (records for the same file
	// must hit the log in growth order — replay keeps the last one), then
	// sync outside it; see Intend for the locking rationale.
	e := xdr.NewEncoder(32 + 4*len(m))
	fh.Encode(e)
	e.PutUint32(uint32(len(m)))
	for _, s := range m {
		e.PutUint32(s)
	}
	log := c.cfg.Log
	_, err := log.Append(recMapAlloc, e.Bytes())
	c.mu.Unlock()
	if err == nil {
		err = log.Sync()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Recover rebuilds coordinator state from its intentions log and finishes
// every operation that was in flight when the previous incarnation failed.
func (c *Coordinator) Recover(log *wal.Log) error {
	if err := c.recoverState(log); err != nil {
		return err
	}
	c.finishRecovered()
	return nil
}

// recoverState replays the log and installs the rebuilt state; it does
// not finish pending operations.
func (c *Coordinator) recoverState(log *wal.Log) error {
	pending := make(map[uint64]*intent)
	maps := make(map[fhandle.Key][]uint32)
	var maxID uint64
	err := log.Scan(func(seq uint64, recType uint32, payload []byte) error {
		d := xdr.NewDecoder(payload)
		switch recType {
		case recIntent:
			id, err := d.Uint64()
			if err != nil {
				return err
			}
			op, err := d.Uint32()
			if err != nil {
				return err
			}
			fh, err := fhandle.Decode(d)
			if err != nil {
				return err
			}
			size, err := d.Uint64()
			if err != nil {
				return err
			}
			pending[id] = &intent{ID: id, Op: op, FH: fh, Size: size, Logged: time.Now()}
			if id > maxID {
				maxID = id
			}
		case recComplete:
			id, err := d.Uint64()
			if err != nil {
				return err
			}
			delete(pending, id)
		case recMapAlloc:
			fh, err := fhandle.Decode(d)
			if err != nil {
				return err
			}
			n, err := d.Uint32()
			if err != nil {
				return err
			}
			if err := xdr.CheckLen(n, 1<<20); err != nil {
				return err
			}
			m := make([]uint32, n)
			for i := range m {
				if m[i], err = d.Uint32(); err != nil {
					return err
				}
			}
			maps[fh.Ident()] = m
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.cfg.Log = log
	c.pending = pending
	c.maps = maps
	c.nextID = maxID + 1
	c.mu.Unlock()
	return nil
}

// finishRecovered completes or aborts the operations that were in flight
// when the previous incarnation failed. The finishing actions are
// idempotent, so re-finishing after a second crash is safe. An operation
// whose sites cannot all be reached stays pending — the probe loop keeps
// retrying it once the coordinator is serving.
func (c *Coordinator) finishRecovered() {
	c.mu.Lock()
	pending := make([]*intent, 0, len(c.pending))
	for _, in := range c.pending {
		pending = append(pending, in)
	}
	c.mu.Unlock()
	for _, in := range pending {
		if c.finish(in) != nil {
			continue
		}
		c.clearIntent(in.ID, true)
	}
}
