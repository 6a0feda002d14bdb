package oncrpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/xdr"
)

// TestCallStartAwait exercises the asynchronous call API on a clean
// network: many calls started before any is awaited, results matched to
// their own arguments.
func TestCallStartAwait(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	const n = 64
	pendings := make([]*Pending, n)
	for i := range pendings {
		v := uint32(i)
		pendings[i] = cli.CallStart(7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(v) })
	}
	for i, p := range pendings {
		rep, err := p.Await()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		defer rep.Release()
		got, err := xdr.NewDecoder(rep.Body).Uint32()
		if err != nil || got != uint32(i) {
			t.Fatalf("call %d echoed %d, %v", i, got, err)
		}
	}
}

// TestConcurrentCallsUnderFaults drives concurrent async windows from
// several goroutines through a link injected with loss, duplication, and
// reordering in both directions, and asserts reply matching never
// cross-wires two in-flight calls: every reply body must carry the exact
// (caller, sequence) pair its call sent. Run under -race this also
// checks the sharded pending map for data races.
func TestConcurrentCallsUnderFaults(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 7})
	sp, err := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp, echoHandler)
	cp, err := n.Bind(netsim.Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cp, srv.Addr(), ClientConfig{
		Timeout: 20 * time.Millisecond,
		Retries: 8,
	})
	t.Cleanup(func() { cli.Close(); srv.Close() })
	fault := netsim.LinkFault{
		Drop:          0.15,
		Duplicate:     0.15,
		Reorder:       0.3,
		ReorderWindow: 4 * time.Millisecond,
	}
	n.SetLinkFault(1, 2, fault)
	n.SetLinkFault(2, 1, fault)

	const (
		callers = 8
		window  = 16
		rounds  = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for caller := 0; caller < callers; caller++ {
		wg.Add(1)
		go func(caller uint32) {
			defer wg.Done()
			seq := uint32(0)
			for r := 0; r < rounds; r++ {
				pendings := make([]*Pending, window)
				sent := make([][2]uint32, window)
				for i := range pendings {
					a, b := caller, seq
					seq++
					sent[i] = [2]uint32{a, b}
					pendings[i] = cli.CallStart(7, 1, 3, func(e *xdr.Encoder) {
						e.PutUint32(a)
						e.PutUint32(b)
					})
				}
				for i, p := range pendings {
					rep, err := p.Await()
					if err != nil {
						errs <- err
						return
					}
					defer rep.Release()
					d := xdr.NewDecoder(rep.Body)
					ga, _ := d.Uint32()
					gb, err := d.Uint32()
					if err != nil || ga != sent[i][0] || gb != sent[i][1] {
						t.Errorf("cross-wired reply: sent (%d,%d) got (%d,%d) err=%v",
							sent[i][0], sent[i][1], ga, gb, err)
						return
					}
				}
			}
		}(uint32(caller))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		// Residual timeouts are possible at 15% loss with finite
		// retries, but should be absent with 8 attempts; surface them.
		t.Fatalf("call failed under faults: %v", err)
	}
}

// TestAsyncCallsAfterClose verifies CallStart on a closed client fails
// fast instead of hanging.
func TestAsyncCallsAfterClose(t *testing.T) {
	cli, _ := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	cli.Close()
	p := cli.CallStart(7, 1, 3, nil)
	if err := discard(p.Await()); err == nil {
		t.Fatal("CallStart after Close succeeded")
	}
}

// TestCallReturnsWithPoolBalanced: by the time a call returns, every
// pooled buffer it touched — the encoded call, the request datagram — is
// back in the pool except the reply datagram itself, which the caller
// holds until it releases the reply. The server hands its reply to the
// network instead of freeing it after the send, and the client hands
// that datagram to the caller uncopied, so a caller sees exactly one
// buffer outstanding until Release and none after.
func TestCallReturnsWithPoolBalanced(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, echoHandler)
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	// A retransmission's late duplicate reply would legitimately still
	// be in flight when its call returns: the timeout is long enough that
	// no call here retransmits, even on a loaded machine.
	c := NewClient(cp, srv.Addr(), ClientConfig{Timeout: 10 * time.Second})
	defer c.Close()
	if err := discard(c.Call(7, 1, 1, nil)); err != nil {
		t.Fatal(err)
	}
	before := netsim.SettledOutstanding()
	payload := make([]byte, 3000)
	for i := 0; i < 500; i++ {
		rep, err := c.Call(7, 1, 1, func(e *xdr.Encoder) { e.PutOpaque(payload) })
		if err != nil {
			t.Fatal(err)
		}
		if got := netsim.PoolStats().Outstanding(); got != before+1 {
			t.Fatalf("call %d returned with %d pool buffers outstanding, want %d (the reply)", i, got, before+1)
		}
		rep.Release()
		if got := netsim.PoolStats().Outstanding(); got != before {
			t.Fatalf("call %d: %d pool buffers outstanding after Release, want %d", i, got, before)
		}
	}
}

// TestCloseFailsInFlightCalls: Close ends calls still waiting for a
// reply at once, and their pooled payloads go back to the pool.
func TestCloseFailsInFlightCalls(t *testing.T) {
	n := netsim.New(netsim.Config{})
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	before := netsim.SettledOutstanding()
	// Nothing listens at the server address: no reply ever comes.
	c := NewClient(cp, netsim.Addr{Host: 9, Port: 9}, ClientConfig{Timeout: 2 * time.Second, Retries: 1})
	p := c.CallStart(7, 1, 1, nil)
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	c.Close()
	if err := discard(p.Await()); !errors.Is(err, netsim.ErrClosed) {
		t.Fatalf("in-flight call after Close: %v, want netsim.ErrClosed", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("in-flight call took %v to fail after Close", d)
	}
	if got := netsim.PoolStats().Outstanding(); got != before {
		t.Fatalf("%d pool buffers outstanding after Close, want %d", got, before)
	}
}
