package oncrpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/xdr"
)

// Every way a call can end leaves the pool balanced: the reply datagram
// the receive loop hands over is released by the caller, by the call
// itself on a rejected or abandoned call, or by the network when nobody
// is left to receive it.

// expectSettled fails unless the pool settles back to base.
func expectSettled(t *testing.T, base int64) {
	t.Helper()
	if got := netsim.SettledOutstanding(); got != base {
		t.Fatalf("netsim pool: %d buffers outstanding, want %d", got, base)
	}
}

// TestReplyRacingTimeoutIsFreed: replies that arrive just as their calls
// time out — before, during, or after the caller gives up — never leak.
// A reply matched after its caller stopped waiting sits on the call's
// channel until unregister frees it; one that arrives after unregister
// finds no pending call and is freed by the receive loop.
func TestReplyRacingTimeoutIsFreed(t *testing.T) {
	const timeout = 2 * time.Millisecond
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	base := netsim.SettledOutstanding()
	cli := NewClient(cp, sp.Addr(), ClientConfig{Timeout: timeout, Retries: 1, Jitter: -1})
	// A raw server that answers every call after about one timeout,
	// spread across [timeout/2, 3*timeout/2).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			d, err := sp.Recv(0)
			if err != nil {
				return
			}
			h, _ := netsim.Parse(d)
			call, err := ParseCall(netsim.Payload(d))
			netsim.FreeBuf(d)
			if err != nil {
				continue
			}
			delay := timeout/2 + time.Duration(i%16)*timeout/16
			time.AfterFunc(delay, func() {
				rep := EncodeReply(call.Xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(1) })
				_ = sp.SendTo(h.Src, rep)
				netsim.FreeBuf(rep)
			})
		}
	}()
	var callers sync.WaitGroup
	var answered, timedOut atomic.Int64
	for g := 0; g < 16; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < 500; i++ {
				rep, err := cli.Call(7, 1, 1, nil)
				switch {
				case err == nil:
					answered.Add(1)
				case errors.Is(err, ErrTimedOut):
					timedOut.Add(1)
				default:
					t.Errorf("call: %v", err)
				}
				rep.Release()
			}
		}()
	}
	callers.Wait()
	time.Sleep(4 * timeout) // the last late replies land
	cli.Close()
	sp.Close()
	wg.Wait()
	expectSettled(t, base)
	t.Logf("%d calls answered, %d timed out", answered.Load(), timedOut.Load())
}

// TestRejectedReplyIsFreed: a rejected call returns ErrRejected with its
// reply datagram already back in the pool.
func TestRejectedReplyIsFreed(t *testing.T) {
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		return nil, AcceptProcUnavail
	})
	cli, _ := newPair(t, netsim.Config{}, h, ClientConfig{Timeout: 10 * time.Second})
	base := netsim.SettledOutstanding()
	for i := 0; i < 50; i++ {
		rep, err := cli.Call(7, 1, 99, nil)
		var rej *ErrRejected
		if !errors.As(err, &rej) {
			t.Fatalf("err = %v, want ErrRejected", err)
		}
		rep.Release()
		if got := netsim.PoolStats().Outstanding(); got != base {
			t.Fatalf("rejected call %d returned with %d buffers outstanding, want %d", i, got, base)
		}
	}
}

// TestReplyInFlightDuringCloseIsFreed: Close ends a call whose reply is
// still crossing a slow link; the reply, delivered to the closed port
// after the call is gone, goes back to the pool.
func TestReplyInFlightDuringCloseIsFreed(t *testing.T) {
	n := netsim.New(netsim.Config{Latency: 30 * time.Millisecond})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	srv := NewServer(sp, echoHandler)
	defer srv.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	base := netsim.SettledOutstanding()
	cli := NewClient(cp, srv.Addr(), ClientConfig{Timeout: 10 * time.Second})
	p := cli.CallStart(7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(5) })
	time.Sleep(45 * time.Millisecond) // call delivered; its reply is on the wire
	cli.Close()
	if err := discard(p.Await()); !errors.Is(err, netsim.ErrClosed) {
		t.Fatalf("call across Close: %v, want netsim.ErrClosed", err)
	}
	expectSettled(t, base)
}

// TestStrayThenRealReplyBalanced: a stray reply is freed by the receive
// loop, and the real reply that follows is the caller's to release; once
// it is, nothing of the exchange is left outstanding.
func TestStrayThenRealReplyBalanced(t *testing.T) {
	n := netsim.New(netsim.Config{})
	sp, _ := n.Bind(netsim.Addr{Host: 2, Port: 2049})
	defer sp.Close()
	imposter, _ := n.Bind(netsim.Addr{Host: 9, Port: 9})
	defer imposter.Close()
	cp, _ := n.Bind(netsim.Addr{Host: 1, Port: 100})
	base := netsim.SettledOutstanding()
	cli := NewClient(cp, sp.Addr(), ClientConfig{Timeout: 10 * time.Second})
	defer cli.Close()
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
		for _, from := range []*netsim.Port{imposter, sp} {
			rep := EncodeReply(call.Xid, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(from.Addr().Host) })
			_ = from.SendTo(cp.Addr(), rep)
			netsim.FreeBuf(rep)
		}
	}()
	rep, err := cli.Call(7, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := xdr.NewDecoder(rep.Body).Uint32(); v != sp.Addr().Host {
		t.Fatalf("reply from host %d, want the real server's", v)
	}
	rep.Release()
	expectSettled(t, base)
	if cli.StrayReplies() != 1 {
		t.Fatalf("StrayReplies = %d, want 1", cli.StrayReplies())
	}
}
