package netsim

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Datagram buffer pool.
//
// Every datagram the fabric carries is backed by a buffer drawn from a set
// of size-class sync.Pools, so steady-state forwarding through an
// interposed µproxy does no heap allocation: Build draws a buffer, the
// datagram travels tap → queue → Recv in place, and the final receiver
// returns it with FreeBuf.
//
// Ownership rule: a datagram buffer has exactly one owner at a time, and
// handing the buffer to the network transfers ownership.
//
//   - Build/GetBuf give the caller an owned buffer.
//   - send/Inject/Port.SendDatagram take ownership; if the network drops
//     the datagram (tap drop, configured loss, unbound port, queue
//     overrun) the network frees it.
//   - A tap returning Consumed takes ownership and must either reinject the
//     buffer or free it.
//   - Recv transfers ownership to the receiver, who frees the buffer once
//     done with it (and with anything aliasing it, e.g. parsed RPC bodies).
//     Closing a port frees the datagrams still queued on it.
//   - An encoder drawing from BufPool owns every buffer it grows
//     through, frees each one it outgrows, and hands its final buffer to
//     the caller (see xdr.NewPooledEncoder).
//
// FreeBuf ignores buffers whose capacity is not exactly a pool class, so
// externally allocated datagrams may flow through the same paths safely.

// bufClasses are the pooled buffer capacities, smallest first. The largest
// class covers MaxDatagram.
var bufClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10, MaxDatagram}

// bufPools holds one sync.Pool per size class. Pools store a *byte to the
// first element of a full-class-capacity array (a pointer stores directly
// into an interface, so Put/Get do not allocate); GetBuf rebuilds the
// slice with unsafe.Slice.
var bufPools [len(bufClasses)]sync.Pool

// BufPoolStats counts buffer pool traffic.
type BufPoolStats struct {
	Gets    uint64 // pool-class buffers handed out by GetBuf
	Puts    uint64 // pool-class buffers returned by FreeBuf
	News    uint64 // fresh allocations: pool misses and oversized requests
	Ignored uint64 // FreeBuf calls on foreign (non-class) buffers
}

var poolGets, poolPuts, poolNews, poolIgnored atomic.Uint64

// PoolStats returns a snapshot of the process-wide buffer pool counters.
func PoolStats() BufPoolStats {
	return BufPoolStats{
		Gets:    poolGets.Load(),
		Puts:    poolPuts.Load(),
		News:    poolNews.Load(),
		Ignored: poolIgnored.Load(),
	}
}

// Outstanding is Gets − Puts: pool buffers some owner still holds.
func (s BufPoolStats) Outstanding() int64 { return int64(s.Gets) - int64(s.Puts) }

// SettledOutstanding waits until the pool's outstanding count has held
// still for five 5 ms polls (at most 2 s) and returns it. Datagrams still
// crossing a fabric — delayed, reordered or duplicated by a fault model,
// or replies to abandoned calls — are freed milliseconds after their
// senders stop, so a balance check takes its baseline from a count they
// no longer move.
func SettledOutstanding() int64 {
	last := PoolStats().Outstanding()
	deadline := time.Now().Add(2 * time.Second)
	for stable := 0; stable < 5 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if cur := PoolStats().Outstanding(); cur != last {
			last, stable = cur, 0
		} else {
			stable++
		}
	}
	return last
}

// classFor returns the index of the smallest class holding n bytes, or -1
// if n exceeds the largest class.
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// classOf returns the index of the class whose capacity is exactly c, or
// -1 for foreign buffers.
func classOf(c int) int {
	for i, cc := range bufClasses {
		if c == cc {
			return i
		}
		if c < cc {
			break
		}
	}
	return -1
}

// GetBuf returns an owned buffer of length n from the pool. The contents
// are unspecified. A request beyond the largest class is a plain heap
// allocation, outside the Gets/Puts balance (FreeBuf ignores it).
func GetBuf(n int) []byte {
	cls := classFor(n)
	if cls < 0 {
		poolNews.Add(1)
		return make([]byte, n)
	}
	poolGets.Add(1)
	if p, _ := bufPools[cls].Get().(*byte); p != nil {
		return unsafe.Slice(p, bufClasses[cls])[:n]
	}
	poolNews.Add(1)
	return make([]byte, n, bufClasses[cls])
}

// FreeBuf returns a buffer obtained from GetBuf (or Build, or Recv) to the
// pool. Freeing nil or a foreign buffer is a no-op; the caller must not
// touch the buffer, or anything aliasing it, afterwards.
func FreeBuf(d []byte) {
	if cap(d) == 0 {
		return
	}
	cls := classOf(cap(d))
	if cls < 0 {
		poolIgnored.Add(1)
		return
	}
	poolPuts.Add(1)
	d = d[:1]
	bufPools[cls].Put(&d[0])
}

// BufPool is the datagram pool as an xdr.Allocator: a pooled encoder
// built on it encodes RPC messages straight into pool buffers.
type BufPool struct{}

// Get implements xdr.Allocator with GetBuf.
func (BufPool) Get(n int) []byte { return GetBuf(n) }

// Free implements xdr.Allocator with FreeBuf.
func (BufPool) Free(b []byte) { FreeBuf(b) }
