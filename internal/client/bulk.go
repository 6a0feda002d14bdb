// Bulk-I/O engine: a bounded sliding window of chunk RPCs with
// sequential readahead and write-behind.
//
// The serial loops in client.go issue one chunk round trip at a time, so
// aggregate bandwidth is latency-bound and flat no matter how wide the
// storage array is. The windowed engine keeps up to Config.Window chunk
// RPCs in flight at once; because the µproxy stripes consecutive stripe
// units across storage nodes, a full window spreads load over the whole
// array and bandwidth scales with its width (PAPER.md Figures 4–5).
//
// Ordering rules that keep the pipelined path byte-exact with the serial
// one:
//
//   - Unstable writes are write-behind: strictly sequential bytes
//     accumulate in a per-client tail buffer, full stripe-unit chunks are
//     carved off and dispatched asynchronously, and the partial tail is
//     flushed when the stream breaks or a barrier arrives. A write that
//     would overlap a chunk already in flight drains the file first, so
//     two writes to the same range can never race.
//   - Reads, GetAttr, SetAttr, Commit, and stable writes drain the
//     target file's write-behind traffic before issuing; Remove and
//     Rename (which identify files by name, not handle) drain everything.
//   - A failed asynchronous chunk is reported at the next Write, Commit,
//     or drain on the same file (the NFSv3 deferred-error model); the
//     error is sticky until surfaced exactly once.
//   - Readahead caches whole prefetched chunks keyed by offset for a
//     single sequential stream; any write, SetAttr, Remove, or Rename
//     invalidates it, and a read that breaks the sequential pattern
//     resets it.
//
// Buffer ownership across the async boundary: every write-behind chunk
// copies its bytes into a buffer from the netsim datagram pool once it
// holds a window slot, still before Write returns; the dispatched worker
// owns that buffer exclusively until its WRITE — including any retry,
// which re-encodes the payload — completes, and only then returns it to
// the pool, whether the WRITE succeeded or failed. Callers may therefore
// reuse their own buffers the moment Write returns, and write-behind
// never pins more pooled chunks than the window holds. Readahead entries
// own the READ reply datagram they received: nothing is copied until a
// read consumes the entry, which then releases the reply; an entry
// dropped unread releases it too (see raDropLocked).
package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
)

// windowed reports whether the pipelined bulk path is enabled.
func (c *Client) windowed() bool { return c.win != nil }

// acquire takes a window slot, blocking until one is free, and samples
// occupancy.
func (c *Client) acquire() {
	c.win <- struct{}{}
	n := c.occ.Add(1)
	if c.winHist != nil {
		c.winHist.Record(uint64(n))
	}
}

// tryAcquire takes a window slot only if one is free right now. Used by
// readahead so prefetch never delays demand traffic.
func (c *Client) tryAcquire() bool {
	select {
	case c.win <- struct{}{}:
		n := c.occ.Add(1)
		if c.winHist != nil {
			c.winHist.Record(uint64(n))
		}
		return true
	default:
		return false
	}
}

func (c *Client) release() {
	c.occ.Add(-1)
	<-c.win
}

// chunkSpan is one serial-equivalent I/O chunk: [off, end) never crosses
// a stripe-unit or threshold boundary (chunkEnd).
type chunkSpan struct{ off, end uint64 }

// chunkSpans splits [off, off+n) exactly as the serial loops would.
func (c *Client) chunkSpans(off uint64, n int) []chunkSpan {
	end := off + uint64(n)
	var out []chunkSpan
	for cur := off; cur < end; {
		ce := c.chunkEnd(cur)
		if ce > end {
			ce = end
		}
		out = append(out, chunkSpan{cur, ce})
		cur = ce
	}
	return out
}

// chunkRead reads one chunk, continuing on short replies. Returns bytes
// read and whether the server reported EOF.
func (c *Client) chunkRead(fh fhandle.Handle, off uint64, p []byte) (int, bool, error) {
	got := 0
	for got < len(p) {
		data, eof, rep, err := c.readOnce(fh, off+uint64(got), len(p)-got)
		if err != nil {
			return got, false, err
		}
		n := copy(p[got:], data)
		rep.Release()
		got += n
		if eof || n == 0 {
			return got, true, nil
		}
	}
	return got, false, nil
}

// readOnce issues one READ of up to n bytes at off, re-issuing once
// (fresh xid) on timeout — reads are idempotent, so the re-issue
// preserves at-most-once effects while riding out a node restart
// mid-transfer. The returned data aliases the returned reply, which the
// caller releases once done with the data; on error there is nothing to
// release.
func (c *Client) readOnce(fh fhandle.Handle, off uint64, n int) ([]byte, bool, oncrpc.Reply, error) {
	args := nfsproto.ReadArgs{FH: fh, Offset: off, Count: uint32(n)}
	var res nfsproto.ReadRes
	rep, err := c.callReply(fh, nfsproto.ProcRead, &args, &res)
	if errors.Is(err, oncrpc.ErrTimedOut) {
		res = nfsproto.ReadRes{}
		rep, err = c.callReply(fh, nfsproto.ProcRead, &args, &res)
	}
	if err != nil {
		return nil, false, oncrpc.Reply{}, err
	}
	if res.Status != nfsproto.OK {
		rep.Release()
		return nil, false, oncrpc.Reply{}, res.Status.Error()
	}
	return res.Data, res.EOF, rep, nil
}

// chunkWrite writes one chunk, continuing on short writes and re-issuing
// once on timeout (WRITE of fixed bytes at a fixed offset is idempotent;
// the servers' duplicate-request caches absorb retransmits of the same
// xid).
func (c *Client) chunkWrite(fh fhandle.Handle, off uint64, data []byte, stability uint32) error {
	written := 0
	for written < len(data) {
		cur := off + uint64(written)
		args := nfsproto.WriteArgs{
			FH: fh, Offset: cur, Count: uint32(len(data) - written),
			Stable: stability, Data: data[written:],
		}
		var res nfsproto.WriteRes
		err := c.call(fh, nfsproto.ProcWrite, &args, &res)
		if errors.Is(err, oncrpc.ErrTimedOut) {
			res = nfsproto.WriteRes{}
			err = c.call(fh, nfsproto.ProcWrite, &args, &res)
		}
		if err != nil {
			return err
		}
		if res.Status != nfsproto.OK {
			return res.Status.Error()
		}
		if res.Count == 0 {
			return fmt.Errorf("client: zero-length write progress at offset %d", cur)
		}
		written += int(res.Count)
	}
	return nil
}

// ---------------------------------------------------------------------
// Windowed read path
// ---------------------------------------------------------------------

// windowedRead serves a read from the readahead cache where possible and
// fans the remainder out across the window, folding chunk results in
// offset order so EOF and short-read handling stay byte-exact with
// serialRead — including the server-reported EOF on a full-buffer read
// that ends exactly at end of file.
func (c *Client) windowedRead(fh fhandle.Handle, off uint64, p []byte) (int, bool, error) {
	id := fh.Ident()
	if c.fileDirty(id) {
		// Reads must observe every write already accepted by Write.
		if err := c.drainFile(fh); err != nil {
			return 0, false, err
		}
	}
	if len(p) == 0 {
		return 0, false, nil
	}
	seq := c.raAdvance(id, off)
	read := 0
	eof := false
	for read < len(p) {
		e := c.raTake(id, off+uint64(read), len(p)-read)
		if e == nil {
			break
		}
		<-e.ready
		if e.err != nil || (len(e.data) < e.want && !e.eof) {
			// Unusable entry (failed, or short without EOF): drop it and
			// fetch those bytes on the demand path below.
			e.rep.Release()
			break
		}
		n := copy(p[read:], e.data)
		e.rep.Release()
		read += n
		if e.eof || n == 0 {
			eof = true
			break
		}
	}
	if !eof && read < len(p) {
		n, e2, err := c.fanoutRead(fh, off+uint64(read), p[read:])
		read += n
		if err != nil {
			c.raFinish(fh, id, off+uint64(read), false, false)
			return read, false, err
		}
		eof = e2
	}
	c.raFinish(fh, id, off+uint64(read), eof, seq && !eof)
	return read, eof, nil
}

// fanoutRead issues the chunks of [off, off+len(p)) concurrently under
// the window and folds results in chunk order. A chunk that comes back
// short without EOF (or whose later siblings would otherwise be folded in
// misaligned) retreats to the serial loop from the first gap.
func (c *Client) fanoutRead(fh fhandle.Handle, off uint64, p []byte) (int, bool, error) {
	spans := c.chunkSpans(off, len(p))
	if len(spans) == 1 {
		c.acquire()
		t0 := time.Now()
		n, eof, err := c.chunkRead(fh, off, p)
		if c.readNS != nil {
			c.readNS.RecordSince(t0)
		}
		c.release()
		return n, eof, err
	}
	type rres struct {
		n   int
		eof bool
		err error
	}
	results := make([]rres, len(spans))
	var wg sync.WaitGroup
	for i, s := range spans {
		c.acquire()
		wg.Add(1)
		go func(i int, s chunkSpan) {
			defer wg.Done()
			defer c.release()
			t0 := time.Now()
			n, eof, err := c.chunkRead(fh, s.off, p[s.off-off:s.end-off])
			if c.readNS != nil {
				c.readNS.RecordSince(t0)
			}
			results[i] = rres{n, eof, err}
		}(i, s)
	}
	wg.Wait()
	read := 0
	for i, s := range spans {
		r := results[i]
		if r.err != nil {
			return read, false, r.err
		}
		read += r.n
		if r.eof {
			return read, true, nil
		}
		if r.n < int(s.end-s.off) {
			n2, eof2, err2 := c.serialRead(fh, off+uint64(read), p[read:])
			return read + n2, eof2, err2
		}
	}
	return read, false, nil
}

// ---------------------------------------------------------------------
// Windowed write path
// ---------------------------------------------------------------------

// windowedWrite routes stable writes through the window synchronously
// and unstable writes into write-behind. Either way the readahead cache
// for the file is stale the moment bytes change.
func (c *Client) windowedWrite(fh fhandle.Handle, off uint64, p []byte, stable bool) (int, error) {
	id := fh.Ident()
	c.invalidateRA(id)
	if err := c.takeErr(id); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if stable {
		// FILE_SYNC data must not be reordered against buffered or
		// in-flight unstable bytes for the same file.
		if err := c.drainFile(fh); err != nil {
			return 0, err
		}
		return c.fanoutWrite(fh, off, p, nfsproto.FileSync)
	}
	return c.writeBehind(fh, id, off, p)
}

// fanoutWrite writes [off, off+len(p)) through the window and waits for
// every chunk. On error it reports the byte count of the error-free
// prefix, like the serial loop.
func (c *Client) fanoutWrite(fh fhandle.Handle, off uint64, p []byte, stability uint32) (int, error) {
	spans := c.chunkSpans(off, len(p))
	if len(spans) == 1 {
		c.acquire()
		t0 := time.Now()
		err := c.chunkWrite(fh, off, p, stability)
		if c.writeNS != nil {
			c.writeNS.RecordSince(t0)
		}
		c.release()
		if err != nil {
			return 0, err
		}
		return len(p), nil
	}
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i, s := range spans {
		c.acquire()
		wg.Add(1)
		go func(i int, s chunkSpan) {
			defer wg.Done()
			defer c.release()
			t0 := time.Now()
			errs[i] = c.chunkWrite(fh, s.off, p[s.off-off:s.end-off], stability)
			if c.writeNS != nil {
				c.writeNS.RecordSince(t0)
			}
		}(i, s)
	}
	wg.Wait()
	written := 0
	for i, s := range spans {
		if errs[i] != nil {
			return written, errs[i]
		}
		written += int(s.end - s.off)
	}
	return written, nil
}

// writeTail is the buffered sequential write stream: bytes accepted by
// Write but not yet dispatched. buf[0] is at file offset off.
type writeTail struct {
	id  fhandle.Key
	fh  fhandle.Handle
	off uint64
	buf []byte
}

func (t *writeTail) end() uint64 { return t.off + uint64(len(t.buf)) }

// fileIO tracks a file's in-flight write-behind chunks and its deferred
// error.
type fileIO struct {
	inflight int
	spans    []span
	err      error
}

type span struct{ off, end uint64 }

func (f *fileIO) dropSpan(off uint64) {
	for i := range f.spans {
		if f.spans[i].off == off {
			f.spans[i] = f.spans[len(f.spans)-1]
			f.spans = f.spans[:len(f.spans)-1]
			return
		}
	}
}

// wchunk is one write-behind chunk. data is a netsim pool buffer the
// worker returns after its WRITE completes — or, while borrowed is set,
// bytes the chunk does not own (the caller's, or a detached tail's),
// which dispatchChunk copies into a pool buffer once the chunk holds a
// window slot.
type wchunk struct {
	fh       fhandle.Handle
	id       fhandle.Key
	off      uint64
	data     []byte
	borrowed bool
}

// writeBehind carves p's full chunks off the sequential tail, dispatches
// them, buffers the sub-chunk remainder, and returns immediately.
// Non-sequential bytes flush the old tail first; bytes overlapping an
// in-flight chunk drain the file so conflicting writes are never
// concurrently in flight.
func (c *Client) writeBehind(fh fhandle.Handle, id fhandle.Key, off uint64, p []byte) (int, error) {
	c.bulkMu.Lock()
	var flush *writeTail
	if c.tail != nil && (c.tail.id != id || c.tail.end() != off) {
		flush = c.tail
		c.tail = nil
	}
	c.bulkMu.Unlock()
	if flush != nil {
		c.dispatchTail(flush)
	}
	if c.overlapsInflight(id, off, off+uint64(len(p))) {
		if err := c.drainFile(fh); err != nil {
			return 0, err
		}
	}
	c.bulkMu.Lock()
	if c.tail == nil {
		c.tail = &writeTail{id: id, fh: fh, off: off}
	}
	ready := c.carveLocked(p)
	c.bulkMu.Unlock()
	for _, ch := range ready {
		c.dispatchChunk(ch)
	}
	return len(p), nil
}

// carveLocked appends p to the tail, carving every full chunk off its
// head. A chunk that completes buffered tail bytes is copied into a
// pooled buffer now; every later chunk comes straight from p and is
// carved as a borrowed reference, so a chunk-aligned write never passes
// through the tail and nothing is copied ahead of the window. The
// sub-chunk remainder stays buffered, coalescing with the next
// sequential write. Caller holds bulkMu.
func (c *Client) carveLocked(p []byte) []wchunk {
	t := c.tail
	var out []wchunk
	for {
		end := c.chunkEnd(t.off)
		n := int(end - t.off)
		if len(t.buf)+len(p) < n {
			break
		}
		ch := wchunk{fh: t.fh, id: t.id, off: t.off}
		if len(t.buf) == 0 {
			ch.data, ch.borrowed = p[:n], true
			p = p[n:]
		} else {
			ch.data = netsim.GetBuf(n)
			k := copy(ch.data, t.buf)
			p = p[copy(ch.data[k:], p):]
			t.buf = t.buf[:0]
		}
		out = append(out, ch)
		t.off = end
	}
	t.buf = append(t.buf, p...)
	return out
}

// dispatchTail dispatches a detached tail's buffered bytes. The tail is
// no longer reachable from the client, so its chunks borrow its buffer.
func (c *Client) dispatchTail(t *writeTail) {
	off, buf := t.off, t.buf
	for len(buf) > 0 {
		n := int(c.chunkEnd(off) - off)
		if n > len(buf) {
			n = len(buf)
		}
		c.dispatchChunk(wchunk{fh: t.fh, id: t.id, off: off, data: buf[:n], borrowed: true})
		buf = buf[n:]
		off += uint64(n)
	}
}

// dispatchChunk registers ch as in flight and hands it to an async
// worker once a window slot frees up. Registration happens before the
// (possibly blocking) slot acquisition so a concurrent drain always sees
// the chunk. A borrowed chunk is copied into the pool only after the
// slot is taken — still before Write returns — so write-behind holds at
// most a window's worth of pooled chunks however large the Write.
func (c *Client) dispatchChunk(ch wchunk) {
	c.bulkMu.Lock()
	f := c.files[ch.id]
	if f == nil {
		f = &fileIO{}
		c.files[ch.id] = f
	}
	f.inflight++
	f.spans = append(f.spans, span{ch.off, ch.off + uint64(len(ch.data))})
	c.bulkMu.Unlock()
	c.acquire()
	if ch.borrowed {
		buf := netsim.GetBuf(len(ch.data))
		copy(buf, ch.data)
		ch.data, ch.borrowed = buf, false
	}
	go func() {
		t0 := time.Now()
		err := c.chunkWrite(ch.fh, ch.off, ch.data, nfsproto.Unstable)
		if c.writeNS != nil {
			c.writeNS.RecordSince(t0)
		}
		c.release()
		netsim.FreeBuf(ch.data)
		c.bulkMu.Lock()
		f.inflight--
		f.dropSpan(ch.off)
		if err != nil && f.err == nil {
			f.err = err
		}
		if f.inflight == 0 {
			if f.err == nil {
				delete(c.files, ch.id)
			}
			c.bulkCnd.Broadcast()
		}
		c.bulkMu.Unlock()
	}()
}

// overlapsInflight reports whether [lo, hi) intersects any chunk
// currently in flight for id.
func (c *Client) overlapsInflight(id fhandle.Key, lo, hi uint64) bool {
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	f := c.files[id]
	if f == nil {
		return false
	}
	for _, s := range f.spans {
		if s.off < hi && lo < s.end {
			return true
		}
	}
	return false
}

// fileDirty reports whether id has buffered or in-flight write-behind
// state (including an unsurfaced deferred error).
func (c *Client) fileDirty(id fhandle.Key) bool {
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	return (c.tail != nil && c.tail.id == id) || c.files[id] != nil
}

// takeErr surfaces (and clears) the file's deferred write error.
func (c *Client) takeErr(id fhandle.Key) error {
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	f := c.files[id]
	if f == nil || f.err == nil {
		return nil
	}
	err := f.err
	f.err = nil
	if f.inflight == 0 {
		delete(c.files, id)
	}
	return err
}

// drainFile flushes the tail (if it belongs to fh) and waits until the
// file has no chunk in flight, returning its deferred error, if any.
// This is the Commit barrier and the write-to-read ordering point.
func (c *Client) drainFile(fh fhandle.Handle) error {
	id := fh.Ident()
	c.bulkMu.Lock()
	var flush *writeTail
	if c.tail != nil && c.tail.id == id {
		flush = c.tail
		c.tail = nil
	}
	c.bulkMu.Unlock()
	if flush != nil {
		c.dispatchTail(flush)
	}
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	for {
		f := c.files[id]
		if f == nil {
			return nil
		}
		if f.inflight == 0 {
			err := f.err
			delete(c.files, id)
			return err
		}
		c.bulkCnd.Wait()
	}
}

// drainAll flushes and waits out every file's write-behind traffic,
// returning the first deferred error found. Used by Close and by
// namespace operations that cannot name their target handle.
func (c *Client) drainAll() error {
	c.bulkMu.Lock()
	flush := c.tail
	c.tail = nil
	c.bulkMu.Unlock()
	if flush != nil {
		c.dispatchTail(flush)
	}
	c.invalidateRAAll()
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	var first error
	for {
		busy := false
		for id, f := range c.files {
			if f.inflight > 0 {
				busy = true
				continue
			}
			if f.err != nil && first == nil {
				first = f.err
			}
			delete(c.files, id)
		}
		if !busy {
			return first
		}
		c.bulkCnd.Wait()
	}
}

// ---------------------------------------------------------------------
// Sequential readahead
// ---------------------------------------------------------------------

// raState caches prefetched chunks for one sequential read stream.
type raState struct {
	valid    bool
	id       fhandle.Key
	expected uint64 // offset that would continue the stream
	horizon  uint64 // lowest offset not yet prefetched
	eofAt    uint64 // lowest offset known to be at/past EOF
	entries  map[uint64]*raEntry
}

// raEntry is one prefetched chunk. data/eof/err/rep are written by the
// worker before ready closes and read only after. The entry owns rep,
// the reply datagram data aliases: a read that takes the entry releases
// it once it has copied the data out; an entry dropped from the cache
// unread is released by raDropLocked, or by its worker when its READ
// finishes after the drop (done and dropped are guarded by bulkMu).
type raEntry struct {
	off   uint64
	want  int
	ready chan struct{}
	data  []byte
	eof   bool
	err   error
	rep   oncrpc.Reply

	done    bool // the worker has filled the entry
	dropped bool // the entry left the cache unread before done
}

// raDropLocked discards a cached entry nobody will read. Caller holds
// bulkMu and has removed e from the cache.
func (c *Client) raDropLocked(e *raEntry) {
	if e.done {
		e.rep.Release()
	} else {
		e.dropped = true
	}
}

// raResetLocked drops every cached entry and installs s as the new
// readahead state. Caller holds bulkMu.
func (c *Client) raResetLocked(s raState) {
	for _, e := range c.ra.entries {
		c.raDropLocked(e)
	}
	c.ra = s
}

// raAdvance reports whether a read at off continues the cached stream;
// if not, the cache resets to start a new stream at off.
func (c *Client) raAdvance(id fhandle.Key, off uint64) bool {
	if c.cfg.Readahead <= 0 {
		return false
	}
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	if c.ra.valid && c.ra.id == id && c.ra.expected == off {
		return true
	}
	c.raResetLocked(raState{
		valid: true, id: id, expected: off, horizon: off,
		eofAt:   ^uint64(0),
		entries: make(map[uint64]*raEntry),
	})
	return false
}

// raTake removes and returns the entry at off if it exists and fits
// within max bytes (an entry larger than the caller's remaining buffer
// is left uncached and the bytes are read on the demand path instead).
func (c *Client) raTake(id fhandle.Key, off uint64, max int) *raEntry {
	c.bulkMu.Lock()
	defer c.bulkMu.Unlock()
	if !c.ra.valid || c.ra.id != id {
		return nil
	}
	e := c.ra.entries[off]
	if e == nil || e.want > max {
		return nil
	}
	delete(c.ra.entries, off)
	return e
}

// raFinish records where the stream now stands and, when the read was
// sequential and did not hit EOF, tops the prefetch horizon up to
// Readahead chunks ahead using only window slots that are free right now.
func (c *Client) raFinish(fh fhandle.Handle, id fhandle.Key, next uint64, eof, prefetch bool) {
	if c.cfg.Readahead <= 0 {
		return
	}
	c.bulkMu.Lock()
	if !c.ra.valid || c.ra.id != id {
		c.bulkMu.Unlock()
		return
	}
	c.ra.expected = next
	if eof && next < c.ra.eofAt {
		c.ra.eofAt = next
	}
	for o, e := range c.ra.entries {
		if o < next {
			delete(c.ra.entries, o)
			c.raDropLocked(e)
		}
	}
	if c.ra.horizon < next {
		c.ra.horizon = next
	}
	if !prefetch {
		c.bulkMu.Unlock()
		return
	}
	budget := c.cfg.Readahead - len(c.ra.entries)
	var started []*raEntry
	for budget > 0 && c.ra.horizon < c.ra.eofAt {
		if !c.tryAcquire() {
			break
		}
		end := c.chunkEnd(c.ra.horizon)
		e := &raEntry{
			off: c.ra.horizon, want: int(end - c.ra.horizon),
			ready: make(chan struct{}),
		}
		c.ra.entries[e.off] = e
		c.ra.horizon = end
		started = append(started, e)
		budget--
	}
	c.bulkMu.Unlock()
	for _, e := range started {
		go c.prefetchWorker(fh, e)
	}
}

// prefetchWorker fills one readahead entry with a single READ. It
// already holds a window slot (taken in raFinish) and releases it when
// done. The entry keeps the reply itself, data aliasing it; a short
// reply without EOF leaves the entry unusable, and the consumer reads
// those bytes on the demand path. If the entry was dropped while the
// READ was in flight, nobody will read it: the worker frees the reply.
func (c *Client) prefetchWorker(fh fhandle.Handle, e *raEntry) {
	t0 := time.Now()
	data, eof, rep, err := c.readOnce(fh, e.off, e.want)
	if c.readNS != nil {
		c.readNS.RecordSince(t0)
	}
	c.bulkMu.Lock()
	if e.dropped {
		rep.Release()
	} else {
		e.data, e.eof, e.err, e.rep = data, eof || len(data) == 0, err, rep
		e.done = true
	}
	c.bulkMu.Unlock()
	close(e.ready)
	c.release()
}

// invalidateRA drops the readahead cache if it belongs to id.
func (c *Client) invalidateRA(id fhandle.Key) {
	c.bulkMu.Lock()
	if c.ra.valid && c.ra.id == id {
		c.raResetLocked(raState{})
	}
	c.bulkMu.Unlock()
}

// invalidateRAAll drops the readahead cache unconditionally.
func (c *Client) invalidateRAAll() {
	c.bulkMu.Lock()
	c.raResetLocked(raState{})
	c.bulkMu.Unlock()
}
