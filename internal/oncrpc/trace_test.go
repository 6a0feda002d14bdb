package oncrpc

import (
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/xdr"
)

func TestCallTraceRoundTrip(t *testing.T) {
	e := encodeCall(1, 7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(0xBEEF) })
	defer func() { netsim.FreeBuf(e.Bytes()) }()
	body := append([]byte(nil), e.Bytes()[CallHeader:]...)
	if _, _, ok := SplitCallTrace(body); ok {
		t.Fatal("untraced body reported a trailer")
	}
	PutCallTrace(e, 0xDEAD1234)
	traced := e.Bytes()
	id, stripped, ok := SplitCallTrace(traced[CallHeader:])
	if !ok || id != 0xDEAD1234 {
		t.Fatalf("SplitCallTrace = %x, %v", id, ok)
	}
	if len(stripped) != len(body) {
		t.Fatalf("stripped body %d bytes, want %d", len(stripped), len(body))
	}
	v, err := xdr.NewDecoder(stripped).Uint32()
	if err != nil || v != 0xBEEF {
		t.Fatalf("stripped body decodes to %x, %v", v, err)
	}
}

func TestReplyTraceRoundTrip(t *testing.T) {
	e := encodeReply(0, 1, AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(5) })
	defer func() { netsim.FreeBuf(e.Bytes()) }()
	if _, _, ok := PeekReplyTrace(e.Bytes()[ReplyHeader:]); ok {
		t.Fatal("untraced reply reported a trailer")
	}
	PutReplyTrace(e, 99, 12345)
	traced := e.Bytes()
	id, ns, ok := PeekReplyTrace(traced[ReplyHeader:])
	if !ok || id != 99 || ns != 12345 {
		t.Fatalf("PeekReplyTrace = %d, %d, %v", id, ns, ok)
	}
	// Peek does not modify: an unaware decoder still reads the result.
	v, err := xdr.NewDecoder(traced[ReplyHeader:]).Uint32()
	if err != nil || v != 5 {
		t.Fatalf("reply body decodes to %d, %v", v, err)
	}
}

// TestTracedCallEndToEnd drives CallTraced against a server with an
// observer: the handler must see the trailer stripped, the observer must
// see the handler time, and the reply must carry the trace trailer.
func TestTracedCallEndToEnd(t *testing.T) {
	var sawTrace atomic.Uint64
	var sawBodyLen atomic.Int64
	h := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		if call.Traced {
			sawTrace.Store(call.Trace)
		}
		sawBodyLen.Store(int64(len(call.Body)))
		time.Sleep(time.Millisecond)
		return func(e *xdr.Encoder) { e.PutUint32(77) }, AcceptSuccess
	})
	cli, srv := newPair(t, netsim.Config{}, h, ClientConfig{})

	var obsNS atomic.Uint64
	srv.SetObserver(func(prog, vers, proc uint32, handlerNS uint64) {
		if prog == 7 && proc == 3 {
			obsNS.Store(handlerNS)
		}
	})

	rep, err := cli.CallTraced(0xABCD, 7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	body := rep.Body
	if sawTrace.Load() != 0xABCD {
		t.Fatalf("handler saw trace %x, want abcd", sawTrace.Load())
	}
	if sawBodyLen.Load() != 4 {
		t.Fatalf("handler body = %d bytes, want 4 (trailer not stripped)", sawBodyLen.Load())
	}
	if obsNS.Load() == 0 {
		t.Fatal("observer saw zero handler time")
	}
	id, ns, ok := PeekReplyTrace(body)
	if !ok || id != 0xABCD {
		t.Fatalf("reply trailer = %x, %v", id, ok)
	}
	if ns < uint64(time.Millisecond) {
		t.Fatalf("server ns = %d, want >= 1ms", ns)
	}
	// The result itself still decodes for a trailer-unaware reader.
	v, err := xdr.NewDecoder(body).Uint32()
	if err != nil || v != 77 {
		t.Fatalf("result = %d, %v", v, err)
	}
}

// TestUntracedCallToObservedServer checks backward compatibility in the
// other direction: a plain Call to a server with an observer installed
// still works, and the trailer the server appends is invisible to the
// sequential decoder.
func TestUntracedCallToObservedServer(t *testing.T) {
	cli, srv := newPair(t, netsim.Config{}, echoHandler, ClientConfig{})
	var calls atomic.Uint64
	srv.SetObserver(func(prog, vers, proc uint32, handlerNS uint64) { calls.Add(1) })

	rep, err := cli.Call(7, 1, 3, func(e *xdr.Encoder) { e.PutUint32(0xC0FFEE) })
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	body := rep.Body
	if calls.Load() != 1 {
		t.Fatalf("observer calls = %d, want 1", calls.Load())
	}
	v, err := xdr.NewDecoder(body).Uint32()
	if err != nil || v != 0xC0FFEE {
		t.Fatalf("echo = %x, %v", v, err)
	}
	if id, _, ok := PeekReplyTrace(body); !ok || id != 0 {
		t.Fatalf("reply trailer = %d, %v; want id 0 present", id, ok)
	}
}
