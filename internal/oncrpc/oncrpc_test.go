package oncrpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/xdr"
)

func newPair(t *testing.T, netCfg netsim.Config, h Handler, clientCfg ClientConfig) (*Client, *Server) {
	t.Helper()
	n := netsim.New(netCfg)
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, h)
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cp, srv.Addr(), clientCfg)
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// discard releases the reply of a call whose result only its error
// matters for.
func discard(rep Reply, err error) error {
	rep.Release()
	return err
}

// echoHandler replies with the call body it received.
var echoHandler = HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
	body := append([]byte(nil), call.Body...)
	return func(e *xdr.Encoder) { e.PutFixedOpaque(body) }, AcceptSuccess
})

func TestCallReply(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	rep, err := cli.Call(7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(0xC0FFEE) })
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	v, err := xdr.NewDecoder(rep.Body).Uint32()
	if err != nil || v != 0xC0FFEE {
		t.Fatalf("echo = %x, %v", v, err)
	}
}

func TestHeaderOffsets(t *testing.T) {
	payload := EncodeCall(42, 100003, 3, 6, func(e *xdr.Encoder) { e.PutUint32(9) })
	defer netsim.FreeBuf(payload)
	d := xdr.NewDecoder(payload)
	xid, _ := d.UintAt(OffXid)
	mt, _ := d.UintAt(OffMsgType)
	prog, _ := d.UintAt(OffProgram)
	vers, _ := d.UintAt(OffVersion)
	proc, _ := d.UintAt(OffProc)
	if xid != 42 || mt != MsgCall || prog != 100003 || vers != 3 || proc != 6 {
		t.Fatalf("fields %d %d %d %d %d", xid, mt, prog, vers, proc)
	}
	call, err := ParseCall(payload)
	if err != nil {
		t.Fatal(err)
	}
	if call.Xid != 42 || call.Proc != 6 || len(call.Body) != 4 {
		t.Fatalf("ParseCall: %+v", call)
	}
}

func TestParseRejects(t *testing.T) {
	if _, err := ParseCall([]byte{1, 2, 3}); err == nil {
		t.Fatal("short call accepted")
	}
	reply := EncodeReply(1, AcceptSuccess, nil)
	defer netsim.FreeBuf(reply)
	if _, err := ParseCall(reply); err == nil {
		t.Fatal("reply parsed as call")
	}
	call := EncodeCall(1, 2, 3, 4, nil)
	defer netsim.FreeBuf(call)
	if _, err := ParseReply(call); err == nil {
		t.Fatal("call parsed as reply")
	}
}

func TestIsCall(t *testing.T) {
	c := EncodeCall(1, 2, 3, 4, nil)
	r := EncodeReply(1, AcceptSuccess, nil)
	defer netsim.FreeBuf(c)
	defer netsim.FreeBuf(r)
	if ok, err := IsCall(c); err != nil || !ok {
		t.Fatalf("IsCall(call) = %v, %v", ok, err)
	}
	if ok, err := IsCall(r); err != nil || ok {
		t.Fatalf("IsCall(reply) = %v, %v", ok, err)
	}
	if _, err := IsCall([]byte{0}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	// 30% loss: calls must still succeed via retransmission.
	cli, _ := newPair(t, netsim.Config{LossRate: 0.3, Seed: 5}, echoHandler,
		ClientConfig{Timeout: 20 * time.Millisecond, Retries: 10})
	for i := 0; i < 30; i++ {
		if err := discard(cli.Call(7, 1, 1, func(e *xdr.Encoder) { e.PutUint32(uint32(i)) })); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if cli.Retransmissions() == 0 {
		t.Fatal("expected retransmissions under 30% loss")
	}
}

func TestTimeoutWhenServerGone(t *testing.T) {
	n := netsim.New(netsim.Config{})
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := NewClient(cp, netsim.Addr{Host: 9, Port: 9}, ClientConfig{
		Timeout: 5 * time.Millisecond, Retries: 2,
	})
	defer cli.Close()
	err := discard(cli.Call(1, 1, 1, nil))
	if !errors.Is(err, ErrTimedOut) {
		t.Fatalf("err = %v, want ErrTimedOut", err)
	}
}

func TestRejectedCall(t *testing.T) {
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		return nil, AcceptProcUnavail
	})
	cli, _ := newPair(t, netsim.Config{}, h, ClientConfig{})
	err := discard(cli.Call(1, 1, 99, nil))
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Accept != AcceptProcUnavail {
		t.Fatalf("err = %v, want ErrRejected{ProcUnavail}", err)
	}
}

// TestDuplicateRequestCache verifies that a retransmitted non-idempotent
// call executes once: the server replays the cached reply.
func TestDuplicateRequestCache(t *testing.T) {
	var executions atomic.Uint64
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		n := executions.Add(1)
		return func(e *xdr.Encoder) { e.PutUint64(n) }, AcceptSuccess
	})
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, h)
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	// Send the same xid twice, manually.
	payload := EncodeCall(1234, 7, 1, 1, nil)
	defer netsim.FreeBuf(payload)
	for i := 0; i < 2; i++ {
		if err := cp.SendTo(srv.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := cp.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ParseReply(netsim.Payload(d))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := xdr.NewDecoder(rep.Body).Uint64()
		netsim.FreeBuf(d)
		if v != 1 {
			t.Fatalf("attempt %d: execution counter in reply = %d, want 1", i, v)
		}
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1", got)
	}
}

// TestSlowHandlerRetransmitDropped: a retransmission arriving while the
// original is still executing must not run the handler twice.
func TestSlowHandlerRetransmitDropped(t *testing.T) {
	var executions atomic.Uint64
	release := make(chan struct{})
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		executions.Add(1)
		<-release
		return func(e *xdr.Encoder) {}, AcceptSuccess
	})
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, h)
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	payload := EncodeCall(77, 7, 1, 1, nil)
	defer netsim.FreeBuf(payload)
	_ = cp.SendTo(srv.Addr(), payload)
	time.Sleep(10 * time.Millisecond)
	_ = cp.SendTo(srv.Addr(), payload) // retransmit while in flight
	time.Sleep(10 * time.Millisecond)
	close(release)
	d, err := cp.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	netsim.FreeBuf(d)
	if got := executions.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1", got)
	}
}

func TestConcurrentCalls(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i uint32) {
			defer wg.Done()
			rep, err := cli.Call(7, 1, 2, func(e *xdr.Encoder) { e.PutUint32(i) })
			if err != nil {
				errs <- err
				return
			}
			defer rep.Release()
			v, _ := xdr.NewDecoder(rep.Body).Uint32()
			if v != i {
				errs <- errors.New("reply/call mismatch across concurrent xids")
			}
		}(uint32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientCloseFailsCalls(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	cli.Close()
	if err := discard(cli.Call(1, 1, 1, nil)); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

// countingHandler replies with the number of times it has executed.
func countingHandler(executions *atomic.Uint64) Handler {
	return HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		n := executions.Add(1)
		return func(e *xdr.Encoder) { e.PutUint64(n) }, AcceptSuccess
	})
}

// TestClientRestartNoStaleDRCReplay is the regression test for xid
// seeding: a client restarted on the same host/port must not match its
// previous incarnation's duplicate-request-cache entries and receive a
// stale reply. With the old fixed nextXid=1 seed, the second client's
// first call collided with the first client's and the server replayed the
// dead incarnation's reply instead of executing.
func TestClientRestartNoStaleDRCReplay(t *testing.T) {
	var executions atomic.Uint64
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, countingHandler(&executions))
	defer srv.Close()

	clientAddr := netsim.Addr{Host: 1, Port: 100}
	callOnce := func() uint64 {
		t.Helper()
		cp, err := n.Bind(clientAddr)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(cp, srv.Addr(), ClientConfig{})
		defer cli.Close()
		rep, err := cli.Call(7, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Release()
		v, _ := xdr.NewDecoder(rep.Body).Uint64()
		return v
	}

	if got := callOnce(); got != 1 {
		t.Fatalf("first incarnation saw execution %d, want 1", got)
	}
	// "Restart" the client: same host, same port, fresh incarnation.
	if got := callOnce(); got != 2 {
		t.Fatalf("restarted client saw execution %d, want 2 (stale DRC replay)", got)
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("handler executed %d times, want 2", got)
	}
}

// TestXidSeedsPerClient: distinct clients draw distinct random xid seeds,
// and an explicit XidSeed is honoured.
func TestXidSeedsPerClient(t *testing.T) {
	var mu sync.Mutex
	var xids []uint32
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		mu.Lock()
		xids = append(xids, call.Xid)
		mu.Unlock()
		return func(e *xdr.Encoder) {}, AcceptSuccess
	})
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, h)
	defer srv.Close()

	for i := 0; i < 4; i++ {
		cp, err := n.BindAny(1)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(cp, srv.Addr(), ClientConfig{})
		if err := discard(cli.Call(7, 1, 1, nil)); err != nil {
			t.Fatal(err)
		}
		cli.Close()
	}
	mu.Lock()
	firstXids := append([]uint32(nil), xids...)
	mu.Unlock()
	seen := make(map[uint32]bool)
	for _, x := range firstXids {
		if x == 1 {
			t.Fatal("client still seeds xid from the fixed value 1")
		}
		if seen[x] {
			t.Fatalf("two clients drew the same first xid %d", x)
		}
		seen[x] = true
	}

	cp, _ := n.BindAny(1)
	cli := NewClient(cp, srv.Addr(), ClientConfig{XidSeed: 0xDEAD0001})
	defer cli.Close()
	if err := discard(cli.Call(7, 1, 1, nil)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := xids[len(xids)-1]
	mu.Unlock()
	if got != 0xDEAD0001 {
		t.Fatalf("explicit XidSeed ignored: first xid %#x", got)
	}
}

// TestResolverRetargetsRestartedServer: a client whose config carries a
// Resolver follows the service to a replacement address — including via
// retransmission within a single in-flight Call, the failover path a
// restarted manager depends on.
func TestResolverRetargetsRestartedServer(t *testing.T) {
	var executions atomic.Uint64
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srvA := NewServer(sp, countingHandler(&executions))

	var target atomic.Value // netsim.Addr
	target.Store(srvA.Addr())
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := NewClient(cp, srvA.Addr(), ClientConfig{
		Timeout: 20 * time.Millisecond,
		Retries: 8,
		Resolve: func() netsim.Addr { return target.Load().(netsim.Addr) },
	})
	defer cli.Close()

	if err := discard(cli.Call(7, 1, 1, nil)); err != nil {
		t.Fatalf("call to original server: %v", err)
	}

	// Kill the server. Mid-call, flip the resolver to a replacement on a
	// different host after the first transmission has already timed out.
	srvA.Close()
	done := make(chan error, 1)
	go func() {
		err := discard(cli.Call(7, 1, 2, nil))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	sp2, _ := n.Bind(netsim.Addr{Host: 3, Port: 2049})
	srvB := NewServer(sp2, countingHandler(&executions))
	defer srvB.Close()
	target.Store(srvB.Addr())

	if err := <-done; err != nil {
		t.Fatalf("call did not fail over to restarted server: %v", err)
	}
	if cli.Retransmissions() == 0 {
		t.Fatal("expected the failover to happen via retransmission")
	}
}

// TestKeyResolverRoutesByFlow: keyed calls route through ResolveKey per
// flow key, fall back to the static server for unknown keys, and
// re-resolve per retransmission — so when a flow's owner dies mid-call
// and the key remaps, the retry lands on the sibling.
func TestKeyResolverRoutesByFlow(t *testing.T) {
	var execA, execB atomic.Uint64
	n := netsim.New(netsim.Config{})
	pa, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srvA := NewServer(pa, countingHandler(&execA))
	defer srvA.Close()
	pb, _ := n.Bind(netsim.Addr{Host: 3, Port: 2049})
	srvB := NewServer(pb, countingHandler(&execB))
	defer srvB.Close()

	// Flow 1 -> A, flow 2 -> B, behind an atomic table so the test can
	// remap mid-call.
	var owners [3]atomic.Value // netsim.Addr per flow key
	owners[1].Store(srvA.Addr())
	owners[2].Store(srvB.Addr())
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	cli := NewClient(cp, srvA.Addr(), ClientConfig{
		Timeout: 20 * time.Millisecond,
		Retries: 8,
		ResolveKey: func(key uint64) netsim.Addr {
			if key < uint64(len(owners)) {
				if a, ok := owners[key].Load().(netsim.Addr); ok {
					return a
				}
			}
			return netsim.Addr{} // fall back to the static server
		},
	})
	defer cli.Close()

	if err := discard(cli.CallKeyed(2, 7, 1, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if execB.Load() != 1 || execA.Load() != 0 {
		t.Fatalf("keyed call misrouted: A=%d B=%d", execA.Load(), execB.Load())
	}
	// An unmapped key falls back to the static server (A).
	if err := discard(cli.CallKeyed(0, 7, 1, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if execA.Load() != 1 {
		t.Fatalf("fallback call misrouted: A=%d B=%d", execA.Load(), execB.Load())
	}

	// Kill flow 1's owner, then remap the flow to B mid-call: the
	// retransmission must follow the key to the sibling.
	srvA.Close()
	done := make(chan error, 1)
	go func() {
		err := discard(cli.CallKeyed(1, 7, 1, 2, nil))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	owners[1].Store(srvB.Addr())
	if err := <-done; err != nil {
		t.Fatalf("keyed call did not fail over: %v", err)
	}
	if cli.Retransmissions() == 0 {
		t.Fatal("expected the keyed failover to happen via retransmission")
	}
	if execB.Load() != 2 {
		t.Fatalf("sibling did not absorb the failed-over call: B=%d", execB.Load())
	}
}

// FuzzParse ensures the RPC header parsers never panic on hostile bytes —
// they run on every datagram a server or µproxy receives.
func FuzzParse(f *testing.F) {
	for _, seed := range [][]byte{
		EncodeCall(1, 100003, 3, 6, func(e *xdr.Encoder) { e.PutUint32(9) }),
		EncodeReply(1, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(9) }),
	} {
		f.Add(append([]byte(nil), seed...))
		netsim.FreeBuf(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _ = ParseCall(payload)
		_, _ = ParseReply(payload)
		_, _ = IsCall(payload)
	})
}

// TestStrayReplyRejected pins the peer-address check: a reply carrying
// the right xid but sourced from an address the call was never sent to
// must be ignored, leaving the call registered for the real peer's
// answer. This is what stops one replica of an interposed fan-out from
// acknowledging a write directly to the client after the router lost
// its soft state.
func TestStrayReplyRejected(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := n.Bind(netsim.Addr{Host: 9, Port: 9})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cp, sp.Addr(), ClientConfig{Timeout: time.Second, Retries: 2})
	defer cli.Close()

	clientAddr := cp.Addr()
	go func() {
		d, err := sp.Recv(0)
		if err != nil {
			return
		}
		call, err := ParseCall(netsim.Payload(d))
		netsim.FreeBuf(d)
		if err != nil {
			return
		}
		// The imposter answers first, from the wrong address…
		stray := EncodeReply(call.Xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0xBAD) })
		_ = imposter.SendTo(clientAddr, stray)
		netsim.FreeBuf(stray)
		// …and only after the client has provably seen and rejected it
		// does the real server reply.
		for i := 0; i < 200 && cli.StrayReplies() == 0; i++ {
			time.Sleep(time.Millisecond)
		}
		real := EncodeReply(call.Xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0x600D) })
		_ = sp.SendTo(clientAddr, real)
		netsim.FreeBuf(real)
	}()

	rep, err := cli.Call(7, 1, 3, nil)
	if err != nil {
		t.Fatalf("call failed: %v", err)
	}
	defer rep.Release()
	v, err := xdr.NewDecoder(rep.Body).Uint32()
	if err != nil || v != 0x600D {
		t.Fatalf("got body %x, %v; want the real server's reply", v, err)
	}
	if got := cli.StrayReplies(); got != 1 {
		t.Fatalf("StrayReplies = %d, want 1", got)
	}
}

// TestStrayReplyPromptsRetransmission: a stray reply is never accepted,
// but it tells the client its call was answered and the answer went
// astray (an interposed router lost the request's soft state), so the
// client retransmits after Timeout/strayPace instead of the full
// timeout. A burst of strays — one per replica of a fanned-out call —
// prompts a single retransmission, not one each.
func TestStrayReplyPromptsRetransmission(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	imposter, _ := n.Bind(netsim.Addr{Host: 9, Port: 9})
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	const timeout = 2 * time.Second
	cli := NewClient(cp, sp.Addr(), ClientConfig{Timeout: timeout, Retries: 1, Jitter: -1})
	defer cli.Close()

	type result struct {
		transmissions int
		err           error
	}
	done := make(chan result, 1)
	go func() {
		d, err := sp.Recv(0)
		if err != nil {
			done <- result{err: err}
			return
		}
		call, err := ParseCall(netsim.Payload(d))
		netsim.FreeBuf(d)
		if err != nil {
			done <- result{err: err}
			return
		}
		for i := 0; i < 3; i++ {
			stray := EncodeReply(call.Xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0xBAD) })
			_ = imposter.SendTo(cp.Addr(), stray)
			netsim.FreeBuf(stray)
		}
		// The prompted retransmission arrives well before the timeout…
		d, err = sp.Recv(timeout / 2)
		if err != nil {
			done <- result{transmissions: 1, err: err}
			return
		}
		netsim.FreeBuf(d)
		// …and no other follows it: the burst was one prompt.
		count := 2
		for {
			d, err := sp.Recv(4 * timeout / strayPace)
			if err != nil {
				break
			}
			netsim.FreeBuf(d)
			count++
		}
		real := EncodeReply(call.Xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(0x600D) })
		_ = sp.SendTo(cp.Addr(), real)
		netsim.FreeBuf(real)
		done <- result{transmissions: count}
	}()

	rep, err := cli.Call(7, 1, 3, nil)
	if err != nil {
		t.Fatalf("call failed: %v", err)
	}
	defer rep.Release()
	if v, _ := xdr.NewDecoder(rep.Body).Uint32(); v != 0x600D {
		t.Fatalf("got body %x, want the real server's reply", v)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("server saw %d transmission(s), then: %v", r.transmissions, r.err)
	}
	if r.transmissions != 2 {
		t.Fatalf("server saw %d transmissions, want 2 (the call and one prompted retransmission)", r.transmissions)
	}
	if got := cli.StrayReplies(); got != 3 {
		t.Fatalf("StrayReplies = %d, want 3", got)
	}
	if got := cli.Retransmissions(); got != 1 {
		t.Fatalf("Retransmissions = %d, want 1", got)
	}
}

// TestDRCVerifiesCallIdentity is the regression test for cross-client
// reply replay: the DRC used to key replays on {src, xid} alone, so when
// a fabric source address was recycled (gateway synthetic-host reuse plus
// netsim ephemeral-port recycling) a new client whose xid collided with a
// dead client's cached entry was handed the dead client's reply — for a
// different procedure. A same-{src, xid} call that differs in program,
// version, procedure, or body length must execute fresh.
func TestDRCVerifiesCallIdentity(t *testing.T) {
	var executions atomic.Uint64
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, countingHandler(&executions))
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	call := func(payload []byte) uint64 {
		t.Helper()
		defer netsim.FreeBuf(payload)
		if err := cp.SendTo(srv.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := cp.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer netsim.FreeBuf(d)
		rep, err := ParseReply(netsim.Payload(d))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := xdr.NewDecoder(rep.Body).Uint64()
		return v
	}

	const xid = 4242
	if got := call(EncodeCall(xid, 7, 1, 1, nil)); got != 1 {
		t.Fatalf("first call saw execution %d, want 1", got)
	}
	// Identical call, same {src, xid}: a true retransmission — replayed.
	if got := call(EncodeCall(xid, 7, 1, 1, nil)); got != 1 {
		t.Fatalf("retransmission saw execution %d, want replay of 1", got)
	}
	// Same {src, xid}, different procedure: an address-reuse collision,
	// not a retransmission — must execute fresh.
	if got := call(EncodeCall(xid, 7, 1, 2, nil)); got != 2 {
		t.Fatalf("colliding different-proc call saw %d, want fresh execution 2", got)
	}
	// The collision evicted the stale entry; retransmitting the *new*
	// call now replays the new call's reply.
	if got := call(EncodeCall(xid, 7, 1, 2, nil)); got != 2 {
		t.Fatalf("retransmit after collision saw %d, want replay of 2", got)
	}
	// A different body length under the same {src, xid, proc} also misses.
	if got := call(EncodeCall(xid, 7, 1, 2, func(e *xdr.Encoder) { e.PutUint32(1) })); got != 3 {
		t.Fatalf("different-body call saw %d, want fresh execution 3", got)
	}
	if got := executions.Load(); got != 3 {
		t.Fatalf("handler executed %d times, want 3", got)
	}
}

// TestDRCKeepsCreateAcrossIdempotentTraffic: the duplicate-request
// cache holds only non-idempotent replies, so a burst of LOOKUP/GETATTR
// traffic — twice the cache's size — cannot evict a CREATE's reply. Its
// late retransmission is replayed rather than re-executed (which would
// fail the exclusive create with EEXIST although it succeeded).
func TestDRCKeepsCreateAcrossIdempotentTraffic(t *testing.T) {
	var creates, reads atomic.Uint64
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		if nfsproto.Proc(call.Proc) == nfsproto.ProcCreate {
			st := nfsproto.OK
			if creates.Add(1) > 1 {
				st = nfsproto.ErrExist
			}
			return func(e *xdr.Encoder) { e.PutUint32(uint32(st)) }, AcceptSuccess
		}
		reads.Add(1)
		return func(e *xdr.Encoder) { e.PutUint32(uint32(nfsproto.OK)) }, AcceptSuccess
	})
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, h)
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()
	lp, _ := n.Bind(netsim.Addr{Host: 3, Port: 100})
	cli := NewClient(lp, srv.Addr(), ClientConfig{})
	defer cli.Close()

	create := func() nfsproto.Status {
		t.Helper()
		payload := EncodeCall(777, nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcCreate), nil)
		defer netsim.FreeBuf(payload)
		if err := cp.SendTo(srv.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := cp.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer netsim.FreeBuf(d)
		rep, err := ParseReply(netsim.Payload(d))
		if err != nil {
			t.Fatal(err)
		}
		st, _ := xdr.NewDecoder(rep.Body).Uint32()
		return nfsproto.Status(st)
	}
	if st := create(); st != nfsproto.OK {
		t.Fatalf("first CREATE: %v", st)
	}
	for i := 0; i < 2*DRCSize; i++ {
		proc := nfsproto.ProcLookup
		if i%2 == 1 {
			proc = nfsproto.ProcGetAttr
		}
		if err := discard(cli.Call(nfsproto.Program, nfsproto.Version, uint32(proc), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if st := create(); st != nfsproto.OK {
		t.Fatalf("retransmitted CREATE after %d idempotent calls: %v, want the replayed OK", 2*DRCSize, st)
	}
	if got := creates.Load(); got != 1 {
		t.Fatalf("CREATE executed %d times, want 1", got)
	}
	if got := reads.Load(); got != 2*DRCSize {
		t.Fatalf("idempotent calls executed %d times, want %d", got, 2*DRCSize)
	}
}

// TestDRCReexecutesIdempotentRetransmission: a retransmitted idempotent
// NFS call that already completed finds no cached reply and executes
// again; a retransmitted call of any other program is replayed.
func TestDRCReexecutesIdempotentRetransmission(t *testing.T) {
	var executions atomic.Uint64
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, countingHandler(&executions))
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	defer cp.Close()

	call := func(xid, prog, proc uint32) uint64 {
		t.Helper()
		payload := EncodeCall(xid, prog, nfsproto.Version, proc, nil)
		defer netsim.FreeBuf(payload)
		if err := cp.SendTo(srv.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		d, err := cp.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer netsim.FreeBuf(d)
		rep, err := ParseReply(netsim.Payload(d))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := xdr.NewDecoder(rep.Body).Uint64()
		return v
	}
	read := uint32(nfsproto.ProcRead)
	if got := call(1, nfsproto.Program, read); got != 1 {
		t.Fatalf("READ saw execution %d, want 1", got)
	}
	if got := call(1, nfsproto.Program, read); got != 2 {
		t.Fatalf("retransmitted READ saw execution %d, want re-execution 2", got)
	}
	// The same procedure number under another program is not NFS READ.
	if got := call(2, 7, read); got != 3 {
		t.Fatalf("program-7 call saw execution %d, want 3", got)
	}
	if got := call(2, 7, read); got != 3 {
		t.Fatalf("retransmitted program-7 call saw execution %d, want replay of 3", got)
	}
}
