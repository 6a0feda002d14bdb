package client_test

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/server"
)

// Tests for the windowed bulk-I/O engine: EOF parity with the serial
// path, write-behind coalescing and deferred errors, readahead
// correctness, and the WriteFile empty-file fast path.

func newBulkEnsemble(t *testing.T, nodes int) (*ensemble.Ensemble, func() *client.Client) {
	t.Helper()
	e, err := ensemble.New(ensemble.Config{
		StorageNodes: nodes, DirServers: 1, SmallFileServers: 1,
		Coordinator: true, NameKind: route.MkdirSwitching,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, func() *client.Client {
		c, err := e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
}

// TestReadEOFAtExactBoundary: a full-buffer read that ends exactly at
// EOF must report eof=true from the last chunk's server-reported flag,
// on both the windowed and the serial path — including when the file
// size is an exact chunk multiple, so no short read hints at the end.
func TestReadEOFAtExactBoundary(t *testing.T) {
	e, newWindowed := newBulkEnsemble(t, 4)
	serial, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serial.Close)
	clients := map[string]*client.Client{"windowed": newWindowed(), "serial": serial}
	// 64KB (threshold), 160KB (chunk multiple), and an odd size.
	for _, size := range []int{64 * 1024, 160 * 1024, 96*1024 + 17} {
		data := bytes.Repeat([]byte{0xa5}, size)
		for name, c := range clients {
			fh, _, err := c.Create(c.Root(), name+strconv.Itoa(size), 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteFile(fh, data); err != nil {
				t.Fatal(err)
			}
			p := make([]byte, size) // len(p) == file size exactly
			n, eof, err := c.Read(fh, 0, p)
			if err != nil || n != size {
				t.Fatalf("%s size=%d: read %d, %v", name, size, n, err)
			}
			if !eof {
				t.Fatalf("%s size=%d: full-buffer read ending at EOF reported eof=false", name, size)
			}
			if !bytes.Equal(p, data) {
				t.Fatalf("%s size=%d: data mismatch", name, size)
			}
		}
	}
}

// TestWriteFileEmptySkipsCommit: writing an empty file must not spend a
// COMMIT round trip (nor any WRITE) on the wire.
func TestWriteFileEmptySkipsCommit(t *testing.T) {
	e, newClient := newBulkEnsemble(t, 2)
	c := newClient()
	fh, _, err := c.Create(c.Root(), "empty", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Net.Stats().Sent
	if err := c.WriteFile(fh, nil); err != nil {
		t.Fatal(err)
	}
	if after := e.Net.Stats().Sent; after != before {
		t.Fatalf("WriteFile(empty) sent %d datagrams, want 0", after-before)
	}
	if data, err := c.ReadAll(fh); err != nil || len(data) != 0 {
		t.Fatalf("empty file after WriteFile: %d bytes, %v", len(data), err)
	}
}

// TestWindowedSerialEquivalence writes a file through the windowed
// client with a mix of sequential, unaligned, and overlapping writes,
// mirrors every operation on an in-memory reference, and checks both a
// windowed and a serial reader observe byte-identical content.
func TestWindowedSerialEquivalence(t *testing.T) {
	e, newWindowed := newBulkEnsemble(t, 4)
	w := newWindowed()
	serial, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serial.Close)

	fh, _, err := w.Create(w.Root(), "equiv", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	ref := make([]byte, 0)
	off := uint64(0)
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(50*1024)
		chunk := make([]byte, n)
		rng.Read(chunk)
		switch rng.Intn(4) {
		case 0: // rewind: overlapping rewrite
			if off > uint64(n) {
				off -= uint64(n) / 2
			}
		case 1: // hole-free jump back to a random earlier offset
			if len(ref) > 0 {
				off = uint64(rng.Intn(len(ref)))
			}
		}
		if _, err := w.Write(fh, off, chunk, rng.Intn(3) == 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		end := off + uint64(n)
		if uint64(len(ref)) < end {
			ref = append(ref, make([]byte, end-uint64(len(ref)))...)
		}
		copy(ref[off:end], chunk)
		off = end
	}
	if _, err := w.Commit(fh); err != nil {
		t.Fatal(err)
	}

	got, err := w.ReadAll(fh)
	if err != nil || !bytes.Equal(got, ref) {
		t.Fatalf("windowed ReadAll: %d bytes (want %d), %v", len(got), len(ref), err)
	}
	got2, err := serial.ReadAll(fh)
	if err != nil || !bytes.Equal(got2, ref) {
		t.Fatalf("serial ReadAll: %d bytes (want %d), %v", len(got2), len(ref), err)
	}
	// Random windows must agree between the two paths, including eof.
	for i := 0; i < 25; i++ {
		o := uint64(rng.Intn(len(ref)))
		l := 1 + rng.Intn(len(ref))
		pw := make([]byte, l)
		ps := make([]byte, l)
		nw, eofW, errW := w.Read(fh, o, pw)
		ns, eofS, errS := serial.Read(fh, o, ps)
		if errW != nil || errS != nil {
			t.Fatalf("read off=%d len=%d: windowed %v serial %v", o, l, errW, errS)
		}
		if nw != ns || eofW != eofS || !bytes.Equal(pw[:nw], ps[:ns]) {
			t.Fatalf("read off=%d len=%d: windowed (n=%d eof=%v) != serial (n=%d eof=%v)",
				o, l, nw, eofW, ns, eofS)
		}
	}
}

// newDirectClient runs a client against the baseline in-process server
// so the test can see the client's own observability registry and stop
// the server underneath it.
func newDirectClient(t *testing.T, cfg client.Config) (*client.Client, *obs.Registry, *server.Server) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	port, err := net.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(port, 1, nil)
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry("client")
	cfg.Net, cfg.Host, cfg.Server, cfg.Obs = net, 100, srv.Addr(), reg
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Mount(); err != nil {
		t.Fatal(err)
	}
	return c, reg, srv
}

// TestWriteBehindCoalesces: many small strictly sequential unstable
// writes must be coalesced into stripe-unit chunk RPCs, not sent
// one WRITE per call.
func TestWriteBehindCoalesces(t *testing.T) {
	c, reg, _ := newDirectClient(t, client.Config{})
	fh, _, err := c.Create(c.Root(), "seq", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	const (
		start = 64 * 1024 // above the threshold, stripe-aligned
		step  = 512
		count = 256 // 128KB total = exactly 4 stripe units
	)
	payload := bytes.Repeat([]byte{7}, step)
	for i := 0; i < count; i++ {
		if _, err := c.Write(fh, uint64(start+i*step), payload, false); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := c.Flush(fh); err != nil {
		t.Fatal(err)
	}
	if chunks := reg.Hist(obs.HistBulkWriteChunk).Count(); chunks != 4 {
		t.Fatalf("%d sub-stripe writes dispatched as %d chunk RPCs, want 4", count, chunks)
	}
	got := make([]byte, count*step)
	if n, _, err := c.Read(fh, start, got); err != nil || n != len(got) {
		t.Fatalf("read back: %d, %v", n, err)
	}
	for i, b := range got {
		if b != 7 {
			t.Fatalf("byte %d = %d after coalesced write-behind", i, b)
		}
	}
}

// TestReadaheadSequentialStream reads a large file in chunk-sized steps
// and verifies every byte plus the final EOF; the occupancy histogram
// proves prefetch actually put concurrent chunks in flight.
func TestReadaheadSequentialStream(t *testing.T) {
	c, reg, _ := newDirectClient(t, client.Config{})
	fh, _, err := c.Create(c.Root(), "stream", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512*1024+333)
	rng := rand.New(rand.NewSource(5))
	rng.Read(data)
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32*1024)
	pos := 0
	for {
		n, eof, err := c.Read(fh, uint64(pos), buf)
		if err != nil {
			t.Fatalf("read at %d: %v", pos, err)
		}
		if !bytes.Equal(buf[:n], data[pos:pos+n]) {
			t.Fatalf("readahead stream corrupt at offset %d", pos)
		}
		pos += n
		if eof {
			break
		}
	}
	if pos != len(data) {
		t.Fatalf("stream ended at %d, want %d", pos, len(data))
	}
	if reg.Hist(obs.HistBulkWindow).Count() == 0 {
		t.Fatal("window occupancy histogram never sampled — no pipelining happened")
	}
}

// TestDeferredWriteErrorSurfaces: an asynchronous write-behind failure
// must surface at the Commit barrier (exactly once), not vanish.
func TestDeferredWriteErrorSurfaces(t *testing.T) {
	c, _, srv := newDirectClient(t, client.Config{
		RPC: oncrpc.ClientConfig{Timeout: 5 * time.Millisecond, Retries: 1},
	})
	fh, _, err := c.Create(c.Root(), "doomed", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	// First write succeeds end to end.
	if _, err := c.Write(fh, 64*1024, bytes.Repeat([]byte{1}, 32*1024), false); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(fh); err != nil {
		t.Fatal(err)
	}
	// Take the server down; the next unstable write is accepted into the
	// window and its chunks fail asynchronously.
	srv.Close()
	if _, err := c.Write(fh, 96*1024, bytes.Repeat([]byte{2}, 64*1024), false); err != nil {
		t.Fatalf("unstable write should be accepted into write-behind: %v", err)
	}
	if _, err := c.Commit(fh); err == nil {
		t.Fatal("Commit after failed async writes returned nil")
	}
}

// TestBulkIOLeavesBufferPoolBalanced: every pooled buffer the bulk path
// draws — encoded calls and replies, write-behind chunks, datagrams —
// goes back to the netsim pool. After a windowed write + commit, a
// sequential read with readahead, a non-sequential read that resets the
// stream, a write that invalidates prefetched entries, and Close, the
// pool's outstanding count (gets − puts) is back where it started.
func TestBulkIOLeavesBufferPoolBalanced(t *testing.T) {
	outstanding := func() int64 { return netsim.PoolStats().Outstanding() }
	before := netsim.SettledOutstanding()
	e, _ := newBulkEnsemble(t, 4)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := c.Create(c.Root(), "balance", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(12)).Read(data)
	const piece = 64 << 10
	for off := 0; off < len(data); off += piece {
		if _, err := c.Write(fh, uint64(off), data[off:off+piece], false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, piece)
	readAt := func(off int) {
		t.Helper()
		n, _, err := c.Read(fh, uint64(off), buf)
		if err != nil || n != piece || !bytes.Equal(buf, data[off:off+piece]) {
			t.Fatalf("read at %d: %d bytes, %v (or data mismatch)", off, n, err)
		}
	}
	for off := 0; off < len(data)/2; off += piece {
		readAt(off) // sequential: readahead runs ahead of the stream
	}
	readAt(len(data) - piece) // breaks the stream: readahead resets
	readAt(0)
	readAt(piece) // prefetch is running again
	// Overwriting the file drops the prefetched entries.
	copy(data[3*piece:], bytes.Repeat([]byte{0xEE}, piece))
	if _, err := c.Write(fh, 3*piece, data[3*piece:4*piece], false); err != nil {
		t.Fatal(err)
	}
	readAt(2 * piece)
	readAt(3 * piece)
	c.Close()

	// Replies to abandoned prefetches may still be crossing the fabric.
	deadline := time.Now().Add(5 * time.Second)
	for outstanding() != before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := outstanding(); got != before {
		ps := netsim.PoolStats()
		t.Fatalf("netsim pool: %d buffers outstanding after Close, want %d (gets %d, puts %d)",
			got, before, ps.Gets, ps.Puts)
	}
}
