package client_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// Tests for pooled-buffer ownership on the bulk path: write-behind holds
// at most a window of pooled chunks, and readahead entries dropped while
// their READ is still in flight free their replies when it lands.

var (
	scriptServer = netsim.Addr{Host: 2, Port: 2049}
	scriptSelf   = netsim.Addr{Host: 1, Port: 100}
)

// scriptConn is an oncrpc.Conn wired to a scripted in-memory server
// instead of a fabric. It serves one file's bytes to READ, acknowledges
// every WRITE, and answers anything else with a bare OK status. While
// hold matches a call, its reply is withheld until release, so a test
// can keep chosen calls in flight for as long as it likes.
type scriptConn struct {
	data  []byte
	inbox chan []byte
	done  chan struct{}

	mu     sync.Mutex
	hold   func(proc nfsproto.Proc, off uint64, count uint32) bool
	held   []func()
	calls  map[nfsproto.Proc]int
	closed bool
}

func newScriptConn(data []byte) *scriptConn {
	return &scriptConn{
		data: data,
		// Room for every reply a test can have in flight at once (a
		// window of calls plus readahead), so deliver never blocks.
		inbox: make(chan []byte, 1024),
		done:  make(chan struct{}),
		calls: make(map[nfsproto.Proc]int),
	}
}

func (s *scriptConn) Addr() netsim.Addr { return scriptSelf }

// SendTo answers the call at once or, when hold matches, withholds the
// answer; the reply is encoded only when it is sent, so a withheld call
// pins no pool buffer of its own.
func (s *scriptConn) SendTo(dst netsim.Addr, payload []byte) error {
	call, err := oncrpc.ParseCall(payload)
	if err != nil {
		return err
	}
	proc := nfsproto.Proc(call.Proc)
	var res func(*xdr.Encoder)
	var off uint64
	var count uint32
	switch proc {
	case nfsproto.ProcRead:
		var a nfsproto.ReadArgs
		if err := a.Decode(xdr.NewDecoder(call.Body)); err != nil {
			return err
		}
		off, count = a.Offset, a.Count
		lo := min(off, uint64(len(s.data)))
		hi := min(off+uint64(count), uint64(len(s.data)))
		r := nfsproto.ReadRes{Status: nfsproto.OK, Count: uint32(hi - lo),
			EOF: hi == uint64(len(s.data)), Data: s.data[lo:hi]}
		res = r.Encode
	case nfsproto.ProcWrite:
		var a nfsproto.WriteArgs
		if err := a.Decode(xdr.NewDecoder(call.Body)); err != nil {
			return err
		}
		off, count = a.Offset, a.Count
		r := nfsproto.WriteRes{Status: nfsproto.OK, Count: a.Count, Committed: nfsproto.Unstable}
		res = r.Encode
	default:
		res = func(e *xdr.Encoder) { e.PutUint32(uint32(nfsproto.OK)) }
	}
	answer := func() {
		d, err := oncrpc.EncodeReplyDatagram(dst, scriptSelf, call.Xid, oncrpc.AcceptSuccess, res)
		if err == nil {
			s.deliver(d)
		}
	}
	s.mu.Lock()
	s.calls[proc]++
	if s.hold != nil && s.hold(proc, off, count) {
		s.held = append(s.held, answer)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	answer()
	return nil
}

func (s *scriptConn) deliver(d []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		netsim.FreeBuf(d)
		return
	}
	s.inbox <- d
}

func (s *scriptConn) Recv(time.Duration) ([]byte, error) {
	select {
	case d := <-s.inbox:
		return d, nil
	case <-s.done:
		return nil, netsim.ErrClosed
	}
}

// Close frees every reply still queued; withheld replies are dropped.
func (s *scriptConn) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.held = nil
	close(s.done)
	for {
		select {
		case d := <-s.inbox:
			netsim.FreeBuf(d)
		default:
			return
		}
	}
}

// setHold installs the withholding rule (nil answers everything).
func (s *scriptConn) setHold(h func(proc nfsproto.Proc, off uint64, count uint32) bool) {
	s.mu.Lock()
	s.hold = h
	s.mu.Unlock()
}

// release stops withholding and sends every withheld reply.
func (s *scriptConn) release() {
	s.mu.Lock()
	held := s.held
	s.held, s.hold = nil, nil
	s.mu.Unlock()
	for _, answer := range held {
		answer()
	}
}

func (s *scriptConn) numCalls(proc nfsproto.Proc) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[proc]
}

func (s *scriptConn) numHeld() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func newScriptClient(conn *scriptConn, window, readahead int) (*client.Client, *obs.Registry) {
	reg := obs.NewRegistry("client")
	return client.NewWithConn(conn, client.Config{
		Server: scriptServer, Window: window, Readahead: readahead, Obs: reg,
		// Nothing times out: withheld calls stay in flight until released.
		RPC: oncrpc.ClientConfig{Timeout: time.Minute},
	}), reg
}

// waitReads waits until n chunk READs have completed: each one, demand
// or prefetch, is recorded in the chunk-latency histogram once its reply
// is in hand, before a prefetch worker settles its entry.
func waitReads(t *testing.T, reg *obs.Registry, n int) {
	t.Helper()
	waitUntil(t, "the READs to complete", func() bool { return reg.Hist(obs.HistBulkReadChunk).Count() == uint64(n) })
}

// expectBalanced fails unless the pool settles back to base.
func expectBalanced(t *testing.T, base int64) {
	t.Helper()
	if got := netsim.SettledOutstanding(); got != base {
		t.Fatalf("netsim pool: %d buffers outstanding, want %d", got, base)
	}
}

var scriptFH = fhandle.Handle{Volume: 1, FileID: 7}

// TestWriteBehindHoldsOnlyWindowBuffers: a Write far larger than the
// window copies each chunk into the pool only once the chunk holds a
// window slot. While the window is full, write-behind holds one pooled
// chunk and one encoded call per slot — not a pooled copy of every chunk
// of the Write.
func TestWriteBehindHoldsOnlyWindowBuffers(t *testing.T) {
	const window = 4
	base := netsim.SettledOutstanding()
	conn := newScriptConn(nil)
	conn.setHold(func(proc nfsproto.Proc, _ uint64, _ uint32) bool { return proc == nfsproto.ProcWrite })
	c, _ := newScriptClient(conn, window, 0)
	data := bytes.Repeat([]byte{0x5A}, 2<<20) // 64 stripe-unit chunks
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(scriptFH, 0, data, false)
		done <- err
	}()
	waitUntil(t, "a full window of WRITEs", func() bool { return conn.numCalls(nfsproto.ProcWrite) == window })
	time.Sleep(20 * time.Millisecond) // Write is now blocked on the window
	if got := netsim.PoolStats().Outstanding() - base; got < window || got > 2*window {
		t.Fatalf("%d pool buffers outstanding with a full window of %d, want %d..%d", got, window, window, 2*window)
	}
	conn.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(scriptFH); err != nil {
		t.Fatal(err)
	}
	if got := conn.numCalls(nfsproto.ProcWrite); got != len(data)/(32<<10) {
		t.Fatalf("%d WRITEs, want %d", got, len(data)/(32<<10))
	}
	c.Close()
	expectBalanced(t, base)
}

// prefetchDepth is how many readahead READs startPrefetch leaves in
// flight: half the window, so demand reads still find free slots.
const prefetchDepth = 4

// startPrefetch opens a sequential stream on a scripted file and leaves
// prefetchDepth readahead READs in flight, their replies withheld. The
// first two chunks (below 64 KiB) and any READ shorter than a chunk are
// answered at once.
func startPrefetch(t *testing.T, size int) (*scriptConn, *client.Client, *obs.Registry, []byte) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	conn := newScriptConn(data)
	conn.setHold(func(proc nfsproto.Proc, off uint64, count uint32) bool {
		return proc == nfsproto.ProcRead && off >= 64<<10 && count == 32<<10
	})
	c, reg := newScriptClient(conn, 2*prefetchDepth, prefetchDepth)
	buf := make([]byte, 32<<10)
	for off := 0; off < 64<<10; off += len(buf) {
		n, _, err := c.Read(scriptFH, uint64(off), buf)
		if err != nil || n != len(buf) || !bytes.Equal(buf, data[off:off+n]) {
			t.Fatalf("read at %d: %d, %v (or data mismatch)", off, n, err)
		}
	}
	waitUntil(t, "readahead in flight", func() bool { return conn.numHeld() == prefetchDepth })
	return conn, c, reg, data
}

// TestReadaheadDroppedByWriteFreesReplies: a write invalidates readahead
// entries whose READs are still in flight; each worker frees its reply
// when it lands.
func TestReadaheadDroppedByWriteFreesReplies(t *testing.T) {
	base := netsim.SettledOutstanding()
	conn, c, reg, _ := startPrefetch(t, 256<<10)
	if _, err := c.Write(scriptFH, 0, []byte("overwrite"), false); err != nil {
		t.Fatal(err)
	}
	conn.release()
	if err := c.Flush(scriptFH); err != nil {
		t.Fatal(err)
	}
	waitReads(t, reg, 2+prefetchDepth)
	c.Close()
	expectBalanced(t, base)
}

// TestReadaheadDroppedBySeekFreesReplies: a read that breaks the stream
// resets the cache while its prefetches are in flight.
func TestReadaheadDroppedBySeekFreesReplies(t *testing.T) {
	base := netsim.SettledOutstanding()
	conn, c, reg, data := startPrefetch(t, 256<<10)
	buf := make([]byte, 32<<10)
	if n, _, err := c.Read(scriptFH, 0, buf); err != nil || !bytes.Equal(buf[:n], data[:n]) {
		t.Fatalf("read after seek: %d, %v (or data mismatch)", n, err)
	}
	conn.release()
	waitReads(t, reg, 3+prefetchDepth)
	c.Close()
	expectBalanced(t, base)
}

// TestReadaheadDroppedAtEOFFreesReplies: a short read that ends the
// stream at EOF steps past an entry whose READ is still in flight, and
// the stream's remaining entries are dropped when the client closes.
func TestReadaheadDroppedAtEOFFreesReplies(t *testing.T) {
	base := netsim.SettledOutstanding()
	const size = 70 << 10
	conn, c, reg, data := startPrefetch(t, size)
	// Shorter than the prefetched 64 KiB entry, so it is read on the
	// demand path (answered at once) and reaches EOF.
	buf := make([]byte, 16<<10)
	n, eof, err := c.Read(scriptFH, 64<<10, buf)
	if err != nil || !eof || n != size-64<<10 || !bytes.Equal(buf[:n], data[64<<10:]) {
		t.Fatalf("read to EOF: %d, eof=%v, %v (or data mismatch)", n, eof, err)
	}
	conn.release()
	waitReads(t, reg, 3+prefetchDepth)
	c.Close()
	expectBalanced(t, base)
}
