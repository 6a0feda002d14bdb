package storage

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewObjectStore()
	data := []byte("hello object storage")
	if err := s.WriteAt(1, 0, data, true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	n, eof, err := s.ReadAt(1, 0, buf)
	if err != nil || n != len(data) || !eof {
		t.Fatalf("read: n=%d eof=%v err=%v", n, eof, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("content mismatch")
	}
}

func TestSparseHolesReadZero(t *testing.T) {
	s := NewObjectStore()
	// Write one block far into the object.
	if err := s.WriteAt(1, 5*BlockSize, []byte("tail"), true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _, err := s.ReadAt(1, BlockSize, buf)
	if err != nil || n != 64 {
		t.Fatalf("hole read: n=%d err=%v", n, err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, b)
		}
	}
	if size, ok := s.Size(1); !ok || size != 5*BlockSize+4 {
		t.Fatalf("size = %d, want %d", size, 5*BlockSize+4)
	}
}

func TestReadPastEOF(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, []byte("xy"), true)
	buf := make([]byte, 8)
	n, eof, err := s.ReadAt(1, 100, buf)
	if err != nil || n != 0 || !eof {
		t.Fatalf("past-EOF read: n=%d eof=%v err=%v", n, eof, err)
	}
}

func TestReadMissingObject(t *testing.T) {
	s := NewObjectStore()
	if _, _, err := s.ReadAt(42, 0, make([]byte, 4)); err == nil {
		t.Fatal("read of missing object succeeded")
	}
}

func TestCrashDropsUncommitted(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, bytes.Repeat([]byte("d"), BlockSize), false)
	s.Commit(1)
	_ = s.WriteAt(1, BlockSize, bytes.Repeat([]byte("v"), BlockSize), false)
	v1 := s.Verifier()
	s.Crash()
	if s.Verifier() == v1 {
		t.Fatal("verifier unchanged across crash")
	}
	size, ok := s.Size(1)
	if !ok || size != BlockSize {
		t.Fatalf("size after crash = %d, want %d (committed prefix only)", size, BlockSize)
	}
	buf := make([]byte, BlockSize)
	n, _, err := s.ReadAt(1, 0, buf)
	if err != nil || n != BlockSize || buf[0] != 'd' {
		t.Fatalf("committed data lost: n=%d err=%v", n, err)
	}
}

func TestStableWriteSurvivesCrash(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, []byte("stable!!"), true)
	s.Crash()
	buf := make([]byte, 8)
	n, _, err := s.ReadAt(1, 0, buf)
	if err != nil || n == 0 {
		t.Fatalf("stable write lost in crash: n=%d err=%v", n, err)
	}
}

func TestTruncateShrinkAndZero(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, bytes.Repeat([]byte{0xFF}, 2*BlockSize), true)
	if err := s.Truncate(1, 100); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.Size(1); size != 100 {
		t.Fatalf("size = %d", size)
	}
	// Growing back must expose zeros, not stale bytes.
	_ = s.Truncate(1, 200)
	buf := make([]byte, 100)
	_, _, _ = s.ReadAt(1, 100, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("stale byte %d = %x after shrink+grow", i, b)
		}
	}
}

func TestRemoveIdempotent(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, []byte("x"), true)
	s.Remove(1)
	s.Remove(1) // must not panic or error
	if _, ok := s.Size(1); ok {
		t.Fatal("object still present after remove")
	}
}

// TestWriteReadProperty: arbitrary writes at arbitrary offsets read back.
func TestWriteReadProperty(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s := NewObjectStore()
		if err := s.WriteAt(7, int64(off), data, true); err != nil {
			return false
		}
		buf := make([]byte, len(data))
		n, _, err := s.ReadAt(7, int64(off), buf)
		return err == nil && n == len(data) && bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappingWrites(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, bytes.Repeat([]byte("a"), 100), true)
	_ = s.WriteAt(1, 50, bytes.Repeat([]byte("b"), 100), true)
	buf := make([]byte, 150)
	n, _, _ := s.ReadAt(1, 0, buf)
	if n != 150 {
		t.Fatalf("n = %d", n)
	}
	if buf[49] != 'a' || buf[50] != 'b' || buf[149] != 'b' {
		t.Fatalf("overlap wrong: %c %c %c", buf[49], buf[50], buf[149])
	}
}

func TestPrefetchDetection(t *testing.T) {
	s := NewObjectStore()
	_ = s.WriteAt(1, 0, make([]byte, 4*BlockSize), true)
	buf := make([]byte, BlockSize)
	for off := int64(0); off < 4*BlockSize; off += BlockSize {
		_, _, _ = s.ReadAt(1, off, buf)
	}
	if st := s.Stats(); st.PrefetchStarts < 3 {
		t.Fatalf("sequential stream not detected: %d prefetch starts", st.PrefetchStarts)
	}
}

// ---------------------------------------------------------- RPC node

func newNode(t *testing.T) (*Node, *oncrpc.Client) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(sp, NewObjectStore())
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := oncrpc.NewClient(cp, node.Addr(), oncrpc.ClientConfig{Timeout: 100 * time.Millisecond})
	t.Cleanup(func() { cli.Close(); node.Close() })
	return node, cli
}

func testFH(id uint64) fhandle.Handle {
	return fhandle.Handle{Volume: 1, FileID: id, Type: 1, Gen: 1}
}

func TestNodeWriteReadCommitRPC(t *testing.T) {
	_, cli := newNode(t)
	fh := testFH(5)

	wargs := nfsproto.WriteArgs{FH: fh, Offset: 0, Count: 5, Stable: nfsproto.Unstable, Data: []byte("12345")}
	body, err := cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcWrite), wargs.Encode)
	if err != nil {
		t.Fatal(err)
	}
	var wres nfsproto.WriteRes
	if err := wres.Decode(xdr.NewDecoder(body)); err != nil {
		t.Fatal(err)
	}
	if wres.Status != nfsproto.OK || wres.Count != 5 || wres.Committed != nfsproto.Unstable {
		t.Fatalf("write res %+v", wres)
	}
	if wres.Attr.Present {
		t.Fatal("storage node must not fabricate attributes; the µproxy patches them")
	}

	cargs := nfsproto.CommitArgs{FH: fh}
	body, err = cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcCommit), cargs.Encode)
	if err != nil {
		t.Fatal(err)
	}
	var cres nfsproto.CommitRes
	_ = cres.Decode(xdr.NewDecoder(body))
	if cres.Status != nfsproto.OK || cres.Verf == 0 {
		t.Fatalf("commit res %+v", cres)
	}

	rargs := nfsproto.ReadArgs{FH: fh, Offset: 0, Count: 5}
	body, err = cli.Call(nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRead), rargs.Encode)
	if err != nil {
		t.Fatal(err)
	}
	var rres nfsproto.ReadRes
	_ = rres.Decode(xdr.NewDecoder(body))
	if rres.Status != nfsproto.OK || string(rres.Data) != "12345" {
		t.Fatalf("read res %+v", rres)
	}
}

func TestNodeObjProgramRPC(t *testing.T) {
	node, cli := newNode(t)
	fh := testFH(9)
	if err := node.Store().WriteAt(ObjectOf(fh), 0, []byte("to be removed"), true); err != nil {
		t.Fatal(err)
	}

	// Stat sees it.
	body, err := cli.Call(ObjProgram, ObjVersion, ObjProcStat, func(e *xdr.Encoder) { fh.Encode(e) })
	if err != nil {
		t.Fatal(err)
	}
	var st ObjStatRes
	if err := st.Decode(xdr.NewDecoder(body)); err != nil {
		t.Fatal(err)
	}
	if st.Status != nfsproto.OK || st.Size != 13 {
		t.Fatalf("stat %+v", st)
	}

	// Truncate.
	_, err = cli.Call(ObjProgram, ObjVersion, ObjProcTruncate, func(e *xdr.Encoder) {
		fh.Encode(e)
		e.PutUint64(4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := node.Store().Size(ObjectOf(fh)); size != 4 {
		t.Fatalf("size after RPC truncate = %d", size)
	}

	// Remove.
	_, err = cli.Call(ObjProgram, ObjVersion, ObjProcRemove, func(e *xdr.Encoder) { fh.Encode(e) })
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := node.Store().Size(ObjectOf(fh)); ok {
		t.Fatal("object survived RPC remove")
	}

	// Stat now reports ENOENT.
	body, _ = cli.Call(ObjProgram, ObjVersion, ObjProcStat, func(e *xdr.Encoder) { fh.Encode(e) })
	_ = st.Decode(xdr.NewDecoder(body))
	if st.Status != nfsproto.ErrNoEnt {
		t.Fatalf("stat of removed object: %v", st.Status)
	}
}

func TestObjectOfIgnoresHints(t *testing.T) {
	a := testFH(3)
	b := a
	b.MirrorDegree = 2
	b.Flags = fhandle.FlagMirrored
	if ObjectOf(a) != ObjectOf(b) {
		t.Fatal("placement hints changed the backing object identity")
	}
}

// TestRetransmittedReadReturnsCurrentBytes: READ is idempotent, so the
// node's duplicate-request cache keeps no READ reply. A retransmission
// of a completed READ (same xid) executes again and returns the bytes
// the object holds now, not a replay of the first answer.
func TestRetransmittedReadReturnsCurrentBytes(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	node := NewNode(sp, NewObjectStore())
	defer node.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()
	fh := testFH(9)

	read := func() string {
		t.Helper()
		args := nfsproto.ReadArgs{FH: fh, Offset: 0, Count: 4}
		payload := oncrpc.EncodeCall(4711, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcRead), args.Encode)
		defer netsim.FreeBuf(payload)
		if err := cp.SendTo(node.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := cp.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer netsim.FreeBuf(d)
		rep, err := oncrpc.ParseReply(netsim.Payload(d))
		if err != nil {
			t.Fatal(err)
		}
		var res nfsproto.ReadRes
		if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil || res.Status != nfsproto.OK {
			t.Fatalf("READ: %v, status %v", err, res.Status)
		}
		return string(res.Data)
	}
	if err := node.Store().WriteAt(ObjectOf(fh), 0, []byte("AAAA"), true); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "AAAA" {
		t.Fatalf("first READ = %q", got)
	}
	if err := node.Store().WriteAt(ObjectOf(fh), 0, []byte("BBBB"), true); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "BBBB" {
		t.Fatalf("retransmitted READ = %q, want the current bytes %q", got, "BBBB")
	}
}

// staleAlloc is an xdr.Allocator whose buffers arrive full of 0xEE, as
// a pool buffer still holding an earlier datagram's bytes would.
type staleAlloc struct{}

func (staleAlloc) Get(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
func (staleAlloc) Free([]byte)      {}

// TestReadReplyMatchesReadRes: the node encodes READ replies in place
// into pooled memory that still holds old bytes; the reply must be
// exactly what encoding a ReadRes would produce, for a full read, a
// short read at EOF, a hole, and a missing object — so every byte the
// reply claims (hole zeros and XDR padding included) is written.
func TestReadReplyMatchesReadRes(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	node := NewNode(sp, NewObjectStore())
	defer node.Close()
	fh := testFH(3)
	_ = node.Store().WriteAt(ObjectOf(fh), 2*BlockSize, []byte("tail!"), true)
	for _, tc := range []struct {
		off   uint64
		count uint32
		fh    fhandle.Handle
	}{
		{0, 64, fh}, {2 * BlockSize, 64, fh}, {2*BlockSize + 1, 3, fh}, {0, 16, testFH(4)},
		{0, 1 << 31, fh}, // a count no datagram can carry is cut to maxReadCount
	} {
		got := xdr.NewPooledEncoder(staleAlloc{}, 0, 64)
		node.read(nfsproto.ReadArgs{FH: tc.fh, Offset: tc.off, Count: tc.count})(got)

		want := nfsproto.ReadRes{Status: nfsproto.OK, Count: 0, EOF: true}
		buf := make([]byte, min(tc.count, maxReadCount))
		if cnt, eof, err := node.Store().ReadAt(ObjectOf(tc.fh), int64(tc.off), buf); err == nil {
			want = nfsproto.ReadRes{Status: nfsproto.OK, Count: uint32(cnt), EOF: eof, Data: buf[:cnt]}
		}
		we := xdr.NewEncoder(0)
		want.Encode(we)
		if !bytes.Equal(got.Bytes(), we.Bytes()) {
			t.Fatalf("off %d count %d: in-place reply %x, ReadRes encodes %x", tc.off, tc.count, got.Bytes(), we.Bytes())
		}
	}
}
