// Package rebalance drives background block migration for a topology
// transition (ISSUE: elastic ensemble; paper §3.3.1's reconfiguration
// step made online). The driver owns one transition end to end:
//
//  1. Begin the transition on the storage table. From this instant every
//     foreground write fans out to BOTH bindings (route.IOPolicy
//     double-writes while Table.Transitioning()), so the copier only has
//     to move bytes written before Begin — it never chases the workload.
//  2. Log a migrate intention with the coordinator and keep it fresh by
//     chaining Complete(old)+Intend(new) every heartbeat. If the driver
//     dies, the intention goes stale, the coordinator's probe fires
//     finish(OpMigrate), and the epoch-guarded Table.Abort rolls the
//     transition back — the old binding saw every double-written byte,
//     so a crash mid-migration loses nothing and fsck stays clean.
//  3. Copy-and-verify rounds: each round re-enumerates the source nodes
//     and, for every stripe whose placement moves, compares the source
//     chunk against every destination replica, repairing mismatches
//     with the source bytes. The first round does the bulk copy (empty
//     destinations mismatch everywhere); later rounds catch chunks a
//     foreground write raced. Two consecutive clean rounds prove
//     convergence: a clean round writes nothing, so any divergence left
//     over from earlier rounds would still be visible to the next full
//     scan — only in-flight double-writes (which land on both sides)
//     can escape it.
//  4. preCommit hook (the ensemble swaps the replica map here), then the
//     epoch-guarded Commit flips reads and new writes to the wider
//     binding in one table generation.
//
// Old copies of moved stripes stay behind on their former owners:
// placement never resolves to them again and the namespace fsck does
// not see storage objects, so they are garbage, not corruption;
// reclaiming them needs sub-object hole punching the object store does
// not expose yet (DESIGN.md §13).
package rebalance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"slice/internal/coord"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/replica"
	"slice/internal/route"
	"slice/internal/xdr"
)

// smallFileIDByte tags the small-file servers' backing objects; they
// live outside the striped space and never migrate with it.
const smallFileIDByte = 0x5F

// Config wires a Driver into the ensemble.
type Config struct {
	// Net and Host bind the driver's client ports.
	Net  *netsim.Network
	Host uint32
	// IO carries the storage table being transitioned, the stripe unit,
	// and the current replica map.
	IO *route.IOPolicy
	// Coord is the coordinator's address; zero runs without an
	// intention log (tests only — a crash then leaves the transition
	// open until something aborts it).
	Coord netsim.Addr
	// CapKey derives the peer-program bearer token.
	CapKey []byte
	// Heartbeat is the intention refresh period; it must stay below the
	// coordinator's ProbeAfter or the probe will abort a live
	// migration. Default 500ms.
	Heartbeat time.Duration
	// Settle is the pause before the confirming verify round, letting
	// in-flight datagrams land. Default 20ms.
	Settle time.Duration
	// RetryBudget bounds how long one peer operation is retried before
	// the migration gives up (rides out storage-node restarts).
	// Default 10s.
	RetryBudget time.Duration
	// MaxRounds caps copy-and-verify rounds. Default 64.
	MaxRounds int
	// Obs records copy/verify chunk latency histograms (nil: none).
	Obs *obs.Registry
}

// Status is a snapshot of migration progress, JSON-encodable for the
// stats plane (slicectl rebalance-status).
type Status struct {
	State          string `json:"state"` // idle|running|done|failed
	Epoch          uint64 `json:"epoch"`
	Round          int    `json:"round"`
	Objects        int    `json:"objects"`
	ChunksChecked  uint64 `json:"chunks_checked"`
	ChunksRepaired uint64 `json:"chunks_repaired"`
	BytesMoved     uint64 `json:"bytes_moved"`
	Ghosts         uint64 `json:"ghosts_removed"`
	StartedNS      int64  `json:"started_ns"`
	DoneNS         int64  `json:"done_ns"`
	Err            string `json:"err,omitempty"`
}

// Driver migrates blocks for one transition at a time.
type Driver struct {
	cfg   Config
	token uint64

	mu      sync.Mutex
	clients map[netsim.Addr]*oncrpc.Client
	status  Status

	copyHist   *obs.Histogram
	verifyHist *obs.Histogram
}

// New builds a driver. The zero-duration config fields get defaults.
func New(cfg Config) *Driver {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 20 * time.Millisecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 10 * time.Second
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 64
	}
	d := &Driver{
		cfg:     cfg,
		token:   replica.PeerToken(cfg.CapKey),
		clients: make(map[netsim.Addr]*oncrpc.Client),
	}
	d.status.State = "idle"
	if cfg.Obs != nil {
		d.copyHist = cfg.Obs.Hist("rebalance.copy_chunk")
		d.verifyHist = cfg.Obs.Hist("rebalance.verify_chunk")
	}
	return d
}

// Status returns a progress snapshot.
func (d *Driver) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.status
}

// StatusJSON renders the snapshot for the stats plane.
func (d *Driver) StatusJSON() []byte {
	b, _ := json.Marshal(d.Status())
	return b
}

// Close releases the driver's RPC clients.
func (d *Driver) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.clients {
		c.Close()
	}
	d.clients = make(map[netsim.Addr]*oncrpc.Client)
}

func (d *Driver) setStatus(f func(*Status)) {
	d.mu.Lock()
	f(&d.status)
	d.mu.Unlock()
}

// Run drives one transition: Begin(next, nextReps) on the storage
// table, migrate, call preCommit (may be nil) with the copy complete
// and the transition still open, then Commit. On any failure the
// transition is aborted and the old binding stays authoritative.
func (d *Driver) Run(next []netsim.Addr, nextReps *replica.Map, preCommit func() error) error {
	table := d.cfg.IO.Storage
	epoch, err := table.Begin(next, nextReps)
	if err != nil {
		return err
	}
	d.setStatus(func(s *Status) {
		*s = Status{State: "running", Epoch: epoch, StartedNS: time.Now().UnixNano()}
	})
	stopHB := d.startHeartbeat(epoch)
	fail := func(err error) error {
		table.Abort(epoch)
		stopHB()
		d.setStatus(func(s *Status) {
			s.State = "failed"
			s.Err = err.Error()
			s.DoneNS = time.Now().UnixNano()
		})
		return err
	}

	clean := 0
	for round := 1; ; round++ {
		if round > d.cfg.MaxRounds {
			return fail(fmt.Errorf("rebalance: no convergence after %d rounds", d.cfg.MaxRounds))
		}
		d.setStatus(func(s *Status) { s.Round = round })
		if !table.Transitioning() || table.PendingEpoch() != epoch {
			return fail(fmt.Errorf("rebalance: transition %d aborted externally", epoch))
		}
		changed, err := d.round(table, round > 1)
		if err != nil {
			return fail(err)
		}
		if changed == 0 {
			clean++
			if clean >= 2 {
				break
			}
			time.Sleep(d.cfg.Settle) // let in-flight datagrams land, then confirm
		} else {
			clean = 0
		}
	}

	if preCommit != nil {
		if err := preCommit(); err != nil {
			return fail(fmt.Errorf("rebalance: preCommit: %w", err))
		}
	}
	if !table.Commit(epoch) {
		return fail(fmt.Errorf("rebalance: transition %d lost before commit (probe abort or failover swap)", epoch))
	}
	stopHB()
	d.setStatus(func(s *Status) {
		s.State = "done"
		s.DoneNS = time.Now().UnixNano()
	})
	return nil
}

// chunkMove is one stripe-sized copy obligation: src holds the bytes
// under the current binding, dsts must hold them under the pending one.
type chunkMove struct {
	id   uint64
	off  uint64
	n    uint32
	src  netsim.Addr
	dsts []netsim.Addr
}

// round re-enumerates the current binding's nodes and repairs every
// moving chunk whose destination bytes differ from the source. It
// returns how many repairs (writes, truncates, removes) it made —
// zero means the bindings agree everywhere the placement moves.
func (d *Driver) round(table *route.Table, verifyOnly bool) (int, error) {
	su := d.cfg.IO.StripeUnit
	if su == 0 {
		su = route.DefaultStripeUnit
	}

	srcNodes := distinct(table.Physical())
	sizes := make(map[uint64]uint64) // object -> max size across src nodes
	for _, a := range srcNodes {
		objs, err := d.listObjects(a)
		if err != nil {
			return 0, err
		}
		for id, size := range objs {
			if cur, ok := sizes[id]; !ok || cur < size {
				sizes[id] = size
			}
		}
	}
	d.setStatus(func(s *Status) { s.Objects = len(sizes) })

	// Destination listings, for size sync and ghost scrubbing. Every
	// node of the pending binding is listed — an incoming node may hold
	// stale bytes (earlier aborted migration) even when no move of this
	// round targets it.
	dstSizes := make(map[netsim.Addr]map[uint64]uint64)
	moves := make(map[netsim.Addr][]chunkMove) // keyed by src node
	reps := table.PendingReplicas()
	if reps == nil {
		reps = d.cfg.IO.Replicas
	}
	pend := table.PendingPhysical()
	if pend == nil {
		return 0, fmt.Errorf("rebalance: transition closed under the round")
	}
	for _, p := range pend {
		for _, a := range d.expand(p, reps) {
			if dstSizes[a] != nil {
				continue
			}
			objs, err := d.listObjects(a)
			if err != nil {
				return 0, err
			}
			dstSizes[a] = objs
		}
	}
	for id, size := range sizes {
		if id>>56 == smallFileIDByte {
			continue // small-file backing object: not in the striped space
		}
		for stripe := uint64(0); stripe == 0 || stripe*su < size; stripe++ {
			key := id + stripe
			src, err := table.Route(key)
			if err != nil {
				return 0, err
			}
			dst, err := table.PendingLookup(table.PendingSite(key))
			if err != nil {
				return 0, fmt.Errorf("rebalance: pending lookup: %w", err)
			}
			var dsts []netsim.Addr
			for _, a := range d.expand(dst, reps) {
				if a != src && !d.memberOfCurrent(src, a) {
					dsts = append(dsts, a)
				}
			}
			if len(dsts) == 0 {
				continue
			}
			// PeerProcRead caps one transfer at PeerChunk bytes, so a
			// stripe wider than that becomes several moves.
			start := stripe * su
			end := start + su
			if end > size {
				end = size
			}
			if start >= end {
				// Size-sync only (zero-length object or hole at the tail).
				moves[src] = append(moves[src], chunkMove{id: id, off: start, src: src, dsts: dsts})
				continue
			}
			for off := start; off < end; off += replica.PeerChunk {
				n := uint32(replica.PeerChunk)
				if end-off < uint64(n) {
					n = uint32(end - off)
				}
				moves[src] = append(moves[src], chunkMove{id: id, off: off, n: n, src: src, dsts: dsts})
			}
		}
	}

	// Drain each source node concurrently; chunks of one node go in
	// order through one client.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		changed  int
		firstErr error
	)
	truncated := make(map[netsim.Addr]map[uint64]bool) // size-synced this round
	for src, list := range moves {
		wg.Add(1)
		go func(src netsim.Addr, list []chunkMove) {
			defer wg.Done()
			for _, m := range list {
				c, err := d.repairChunk(m, sizes[m.id], dstSizes, truncated, &mu, verifyOnly)
				mu.Lock()
				changed += c
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(src, list)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}

	// Ghost scrub: a destination object whose source vanished (the file
	// was removed mid-copy and the remove raced our writes).
	for dst, objs := range dstSizes {
		for id := range objs {
			if _, live := sizes[id]; live || id>>56 == smallFileIDByte {
				continue
			}
			if !d.everMovesTo(table, sizes, id, dst) {
				continue // not ours: the node owned it before the transition
			}
			if err := d.peerRemove(dst, id); err != nil {
				return 0, err
			}
			changed++
			d.setStatus(func(s *Status) { s.Ghosts++ })
		}
	}
	return changed, nil
}

// everMovesTo reports whether object id has any stripe the transition
// places on dst. Sizes no longer list the object (it was removed), so
// scan a bounded stripe range — ghosts are creatures of the copy
// window, which only ever touched stripes below the listed size.
func (d *Driver) everMovesTo(table *route.Table, sizes map[uint64]uint64, id uint64, dst netsim.Addr) bool {
	reps := table.PendingReplicas()
	if reps == nil {
		reps = d.cfg.IO.Replicas
	}
	const scanStripes = 1024
	for stripe := uint64(0); stripe < scanStripes; stripe++ {
		a, err := table.PendingLookup(table.PendingSite(id + stripe))
		if err != nil {
			return false
		}
		for _, m := range d.expand(a, reps) {
			if m == dst {
				return true
			}
		}
	}
	return false
}

// repairChunk size-syncs the destinations of one chunk and rewrites any
// destination whose bytes differ from the source. Returns how many
// repairs it made.
func (d *Driver) repairChunk(m chunkMove, size uint64, dstSizes map[netsim.Addr]map[uint64]uint64,
	truncated map[netsim.Addr]map[uint64]bool, mu *sync.Mutex, verify bool) (int, error) {
	changed := 0
	var srcData []byte
	var srcOK bool
	if m.n > 0 {
		data, ok, rep, err := d.peerRead(m.src, m.id, m.off, m.n)
		if err != nil {
			return changed, err
		}
		defer rep.Release()
		srcData, srcOK = data, ok
		if !ok {
			// Object vanished from the source: the remove fans out to the
			// destinations too (dataSites includes pending nodes); the
			// ghost scrub catches stragglers.
			return changed, nil
		}
	}
	hist := d.copyHist
	if verify {
		hist = d.verifyHist
	}
	for _, dst := range m.dsts {
		// Size-sync once per (object, destination) per round.
		mu.Lock()
		if truncated[dst] == nil {
			truncated[dst] = make(map[uint64]bool)
		}
		dsz, present := dstSizes[dst][m.id]
		needTrunc := !truncated[dst][m.id] && (!present || dsz != size)
		truncated[dst][m.id] = true
		mu.Unlock()
		if needTrunc {
			if err := d.peerTruncate(dst, m.id, size); err != nil {
				return changed, err
			}
			changed++
		}
		if m.n == 0 || !srcOK {
			continue
		}
		t0 := time.Now()
		dstData, ok, rep, err := d.peerRead(dst, m.id, m.off, m.n)
		if err != nil {
			return changed, err
		}
		same := ok && bytes.Equal(srcData, dstData)
		rep.Release()
		if same {
			d.setStatus(func(s *Status) { s.ChunksChecked++ })
			if hist != nil {
				hist.RecordSince(t0)
			}
			continue
		}
		if err := d.peerWrite(dst, m.id, m.off, srcData); err != nil {
			return changed, err
		}
		changed++
		d.setStatus(func(s *Status) {
			s.ChunksChecked++
			s.ChunksRepaired++
			s.BytesMoved += uint64(len(srcData))
		})
		if hist != nil {
			hist.RecordSince(t0)
		}
	}
	return changed, nil
}

// expand resolves a primary to its replica-group members under reps
// (itself when unreplicated).
func (d *Driver) expand(a netsim.Addr, reps *replica.Map) []netsim.Addr {
	if g, ok := reps.GroupOf(a); ok {
		return g.Members
	}
	return []netsim.Addr{a}
}

// memberOfCurrent reports whether cand already replicates src's data
// under the CURRENT binding (same group: no copy needed).
func (d *Driver) memberOfCurrent(src, cand netsim.Addr) bool {
	g, ok := d.cfg.IO.Replicas.GroupOf(src)
	if !ok {
		return false
	}
	for _, m := range g.Members {
		if m == cand {
			return true
		}
	}
	return false
}

// ------------------------------------------------------- peer operations

func (d *Driver) client(a netsim.Addr) (*oncrpc.Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.clients[a]; ok {
		return c, nil
	}
	port, err := d.cfg.Net.BindAny(d.cfg.Host)
	if err != nil {
		return nil, err
	}
	c := oncrpc.NewClient(port, a, oncrpc.ClientConfig{})
	d.clients[a] = c
	return c, nil
}

// retry runs op until it succeeds or the retry budget is spent — a
// destination node restarting mid-migration (chaos does exactly this)
// must not kill the whole transition.
func (d *Driver) retry(op func() error) error {
	deadline := time.Now().Add(d.cfg.RetryBudget)
	for {
		err := op()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// peerCall makes one retried peer-program call and returns its status,
// the remaining decoder, and the reply the decoder reads, which the
// caller releases (on error there is nothing to release).
func (d *Driver) peerCall(a netsim.Addr, proc uint32, args func(*xdr.Encoder)) (uint32, *xdr.Decoder, oncrpc.Reply, error) {
	c, err := d.client(a)
	if err != nil {
		return 0, nil, oncrpc.Reply{}, err
	}
	var status uint32
	var dec *xdr.Decoder
	var rep oncrpc.Reply
	err = d.retry(func() error {
		r, err := c.Call(replica.PeerProgram, replica.PeerVersion, proc, func(e *xdr.Encoder) {
			e.PutUint64(d.token)
			args(e)
		})
		if err != nil {
			return err
		}
		dec = xdr.NewDecoder(r.Body)
		if status, err = dec.Uint32(); err != nil {
			r.Release()
			return err
		}
		rep = r
		return nil
	})
	if err != nil {
		return 0, nil, oncrpc.Reply{}, fmt.Errorf("rebalance: peer %v proc %d: %w", a, proc, err)
	}
	if status == replica.PeerDenied {
		rep.Release()
		return status, nil, oncrpc.Reply{}, fmt.Errorf("rebalance: peer %v denied the bearer token", a)
	}
	return status, dec, rep, nil
}

// listObjects pages a node's object directory.
func (d *Driver) listObjects(a netsim.Addr) (map[uint64]uint64, error) {
	out := make(map[uint64]uint64)
	after := uint64(0)
	for {
		status, dec, rep, err := d.peerCall(a, replica.PeerProcList, func(e *xdr.Encoder) {
			e.PutUint64(after)
			e.PutUint32(replica.PeerListMax)
		})
		if err != nil {
			return nil, err
		}
		n, err := listPage(dec, status, out, &after)
		rep.Release()
		if err != nil {
			return nil, fmt.Errorf("rebalance: list %v: %w", a, err)
		}
		if n < replica.PeerListMax {
			return out, nil
		}
	}
}

// listPage decodes one object-directory page into out, advancing the
// cursor, and returns how many objects it held.
func listPage(dec *xdr.Decoder, status uint32, out map[uint64]uint64, after *uint64) (uint32, error) {
	if status != replica.PeerOK {
		return 0, fmt.Errorf("peer status %d", status)
	}
	n, err := dec.Uint32()
	if err != nil {
		return 0, err
	}
	for i := uint32(0); i < n; i++ {
		id, err := dec.Uint64()
		if err != nil {
			return 0, err
		}
		size, err := dec.Uint64()
		if err != nil {
			return 0, err
		}
		out[id] = size
		*after = id
	}
	return n, nil
}

// peerRead fetches one chunk; ok is false when the object is gone. data
// aliases the returned reply, which the caller releases once done with
// it.
func (d *Driver) peerRead(a netsim.Addr, id, off uint64, n uint32) ([]byte, bool, oncrpc.Reply, error) {
	status, dec, rep, err := d.peerCall(a, replica.PeerProcRead, func(e *xdr.Encoder) {
		e.PutUint64(id)
		e.PutUint64(off)
		e.PutUint32(n)
	})
	if err != nil {
		return nil, false, oncrpc.Reply{}, err
	}
	if status != replica.PeerOK {
		rep.Release()
		if status == replica.PeerNoObj {
			return nil, false, oncrpc.Reply{}, nil
		}
		return nil, false, oncrpc.Reply{}, fmt.Errorf("rebalance: read %v obj %d: peer status %d", a, id, status)
	}
	data, err := dec.Opaque()
	if err != nil {
		rep.Release()
		return nil, false, oncrpc.Reply{}, err
	}
	return data, true, rep, nil
}

// peerDo makes a peer call whose reply carries nothing past its status.
func (d *Driver) peerDo(a netsim.Addr, proc uint32, args func(*xdr.Encoder)) (uint32, error) {
	status, _, rep, err := d.peerCall(a, proc, args)
	rep.Release()
	return status, err
}

func (d *Driver) peerWrite(a netsim.Addr, id, off uint64, data []byte) error {
	status, err := d.peerDo(a, replica.PeerProcWrite, func(e *xdr.Encoder) {
		e.PutUint64(id)
		e.PutUint64(off)
		e.PutOpaque(data)
	})
	if err != nil {
		return err
	}
	if status != replica.PeerOK {
		return fmt.Errorf("rebalance: write %v obj %d: peer status %d", a, id, status)
	}
	return nil
}

func (d *Driver) peerTruncate(a netsim.Addr, id, size uint64) error {
	status, err := d.peerDo(a, replica.PeerProcTruncate, func(e *xdr.Encoder) {
		e.PutUint64(id)
		e.PutUint64(size)
	})
	if err != nil {
		return err
	}
	if status != replica.PeerOK {
		return fmt.Errorf("rebalance: truncate %v obj %d: peer status %d", a, id, status)
	}
	return nil
}

func (d *Driver) peerRemove(a netsim.Addr, id uint64) error {
	status, err := d.peerDo(a, replica.PeerProcRemove, func(e *xdr.Encoder) {
		e.PutUint64(id)
	})
	if err != nil {
		return err
	}
	if status != replica.PeerOK {
		return fmt.Errorf("rebalance: remove %v obj %d: peer status %d", a, id, status)
	}
	return nil
}

// ------------------------------------------------------ intention chain

// startHeartbeat logs the migrate intention and keeps it fresh by
// chaining a new Intend before completing the old one, so the
// transition is covered by an unexpired intention at every instant the
// driver is alive. The returned stop function completes the last
// intention.
func (d *Driver) startHeartbeat(epoch uint64) (stop func()) {
	if d.cfg.Coord.IsZero() {
		return func() {}
	}
	id := d.intend(epoch)
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(d.cfg.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stopCh:
				d.complete(id)
				return
			case <-tick.C:
				if next := d.intend(epoch); next != 0 {
					d.complete(id)
					id = next
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			wg.Wait()
		})
	}
}

// intend logs one migrate intention carrying the epoch; 0 on failure
// (the previous intention stays pending and keeps covering us).
func (d *Driver) intend(epoch uint64) uint64 {
	c, err := d.client(d.cfg.Coord)
	if err != nil {
		return 0
	}
	rep, err := c.Call(coord.Program, coord.Version, coord.ProcIntend, func(e *xdr.Encoder) {
		e.PutUint32(coord.OpMigrate)
		fhandle.Handle{}.Encode(e)
		e.PutUint64(epoch)
	})
	if err != nil {
		return 0
	}
	defer rep.Release()
	dec := xdr.NewDecoder(rep.Body)
	if st, err := dec.Uint32(); err != nil || st != 0 {
		return 0
	}
	id, err := dec.Uint64()
	if err != nil {
		return 0
	}
	return id
}

func (d *Driver) complete(id uint64) {
	if id == 0 {
		return
	}
	c, err := d.client(d.cfg.Coord)
	if err != nil {
		return
	}
	rep, _ := c.Call(coord.Program, coord.Version, coord.ProcComplete, func(e *xdr.Encoder) {
		e.PutUint64(id)
	})
	rep.Release()
}

// distinct returns the distinct addresses in first-appearance order.
func distinct(sites []netsim.Addr) []netsim.Addr {
	seen := make(map[netsim.Addr]bool, len(sites))
	out := make([]netsim.Addr, 0, len(sites))
	for _, a := range sites {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
