package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
)

// This file is the traced run: benchmark-side spans around each client
// call (lane.begin/end) and around each SendTo/Recv on the connection
// handed to the client, joined by RPC xid with a sample of the µproxy's
// own per-request spans.

// rpcSpan is one RPC as the wrapped connection saw it: the first
// transmission's SendTo, and the arrival of the reply with its xid. It
// expands to two spans, oncrpc.send [Start, SendEnd] and oncrpc.wait
// [SendEnd, End], both children of the op span Parent.
type rpcSpan struct {
	Xid     uint32
	Parent  int32 // index of the lane's op span, -1 when none was open
	Start   int64
	SendEnd int64
	SendNS  int64 // time inside SendTo over all transmissions
	End     int64 // reply arrival; 0 when none arrived while tracing
}

// traceConn wraps the oncrpc.Conn a lane's client uses. While the run
// is tracing it records an rpcSpan per xid; otherwise it only forwards.
type traceConn struct {
	oncrpc.Conn
	l *lane
	// inline is set when SendTo itself runs the µproxy (a fabric port:
	// the µproxy's tap handles the datagram on the sender's goroutine),
	// so send time already contains the µproxy's stages.
	inline bool

	mu      sync.Mutex
	open    map[uint32]int32 // xid -> index in rpcs, until the reply
	rpcs    []rpcSpan
	dropped int

	sends  atomic.Uint64
	sendNS atomic.Uint64
}

func newTraceConn(c oncrpc.Conn, l *lane, inline bool) *traceConn {
	return &traceConn{Conn: c, l: l, inline: inline, open: make(map[uint32]int32)}
}

// SendTo implements oncrpc.Conn.
func (c *traceConn) SendTo(dst netsim.Addr, payload []byte) error {
	run := c.l.run
	if !run.tracing.Load() || len(payload) < 4 {
		return c.Conn.SendTo(dst, payload)
	}
	xid := binary.BigEndian.Uint32(payload)
	t0 := run.now()
	// Register before sending: an absorbed reply can arrive before
	// SendTo returns.
	c.mu.Lock()
	i, ok := c.open[xid]
	if !ok && len(c.rpcs) < run.spanCap {
		i = int32(len(c.rpcs))
		c.rpcs = append(c.rpcs, rpcSpan{Xid: xid, Parent: c.l.openSpan.Load() - 1, Start: t0})
		c.open[xid] = i
		ok = true
	} else if !ok {
		c.dropped++
	}
	c.mu.Unlock()

	err := c.Conn.SendTo(dst, payload)
	t1 := run.now()
	c.sends.Add(1)
	c.sendNS.Add(uint64(t1 - t0))
	if ok {
		c.mu.Lock()
		r := &c.rpcs[i]
		r.SendNS += t1 - t0
		if r.SendEnd == 0 {
			r.SendEnd = t1
		}
		c.mu.Unlock()
	}
	return err
}

// Recv implements oncrpc.Conn.
func (c *traceConn) Recv(timeout time.Duration) ([]byte, error) {
	d, err := c.Conn.Recv(timeout)
	if err != nil || !c.l.run.tracing.Load() {
		return d, err
	}
	if p := netsim.Payload(d); len(p) >= 4 {
		t := c.l.run.now()
		xid := binary.BigEndian.Uint32(p)
		c.mu.Lock()
		if i, ok := c.open[xid]; ok {
			c.rpcs[i].End = t
			delete(c.open, xid)
		}
		c.mu.Unlock()
	}
	return d, err
}

// sampler polls the ensemble's µproxy trace rings while the run is
// traced. Each ring keeps only its most recent ~512 spans, so what it
// collects is a sample; its size is reported.
type sampler struct {
	stopCh chan struct{}
	done   chan map[spanKey]obs.NamedSpan
}

type spanKey struct {
	comp  string
	id    uint64
	start int64
}

// samplePeriod is how often the rings are read, and maxSampled bounds
// the sample's memory. A ring turns over in tens of milliseconds at
// untar's request rate, so each read takes a slice of recent requests
// and the reads spread the sample over the whole traced phase.
const (
	samplePeriod = 100 * time.Millisecond
	maxSampled   = 1 << 17
)

func startSampler(c *obs.Collector) *sampler {
	s := &sampler{stopCh: make(chan struct{}), done: make(chan map[spanKey]obs.NamedSpan, 1)}
	go func() {
		seen := make(map[spanKey]obs.NamedSpan)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		collect := func() {
			for _, sp := range c.Traces(0) {
				if len(seen) >= maxSampled {
					return
				}
				seen[spanKey{sp.Component, sp.ID, sp.Start}] = sp
			}
		}
		for {
			select {
			case <-s.stopCh:
				collect()
				s.done <- seen
				return
			case <-t.C:
				collect()
			}
		}
	}()
	return s
}

// stop ends sampling and returns every distinct span seen.
func (s *sampler) stop() []obs.NamedSpan {
	close(s.stopCh)
	seen := <-s.done
	out := make([]obs.NamedSpan, 0, len(seen))
	for _, sp := range seen {
		out = append(out, sp)
	}
	return out
}

// hopAgg sums one hop kind over the sampled µproxy spans.
type hopAgg struct {
	calls    int64
	serverNS int64
	waitNS   int64 // hop total minus server time: fabric and queueing
}

// traceSummary is what the traced phase measured about where time went.
type traceSummary struct {
	ops       int64   // op spans kept
	opNS      float64 // their total duration
	clientNS  float64 // op time with no RPC of the op outstanding
	rpcs      int64   // rpc spans with a reply
	sampled   int     // µproxy spans sampled
	joined    int     // rpc spans joined to a sampled µproxy span
	dropped   int     // spans not kept once the cap was reached
	sendCalls uint64
	sendNS    uint64
	hops      [obs.HopMount + 1]hopAgg
	// layers is each layer's share of the joined RPCs' time, scaled to
	// the op time spent with an RPC outstanding; "unattributed" is the
	// rest.
	layers map[string]float64
}

// layerOrder fixes the self-time table's rows.
var layerOrder = []string{
	"client", "oncrpc.send", "proxy.stages",
	"dirsrv.server", "dirsrv.wait", "smallfile.server", "smallfile.wait",
	"storage.server", "storage.wait", "coord.server", "coord.wait",
	"mount.server", "mount.wait", "unattributed",
}

func analyzeTrace(v *env, proxySpans []obs.NamedSpan) *traceSummary {
	ts := &traceSummary{sampled: len(proxySpans), layers: make(map[string]float64)}
	byXid := make(map[uint32]*obs.SpanRecord, len(proxySpans))
	for i := range proxySpans {
		sp := &proxySpans[i].SpanRecord
		byXid[uint32(sp.ID)] = sp
		n := sp.NHops
		if n > obs.MaxHops {
			n = obs.MaxHops
		}
		for _, h := range sp.Hops[:n] {
			if int(h.Kind) >= len(ts.hops) {
				continue
			}
			a := &ts.hops[h.Kind]
			a.calls++
			a.serverNS += int64(h.ServerNS)
			if h.TotalNS > h.ServerNS {
				a.waitNS += int64(h.TotalNS - h.ServerNS)
			}
		}
	}

	var joinedNS float64
	parts := make(map[string]float64)
	for _, l := range v.lanes {
		c := l.conn
		c.mu.Lock()
		rpcs := append([]rpcSpan(nil), c.rpcs...)
		ts.dropped += c.dropped
		c.mu.Unlock()
		ts.dropped += l.dropped
		ts.sendCalls += c.sends.Load()
		ts.sendNS += c.sendNS.Load()

		// Client self time: each op's duration minus the union of its
		// RPCs' intervals.
		sort.Slice(rpcs, func(i, j int) bool {
			if rpcs[i].Parent != rpcs[j].Parent {
				return rpcs[i].Parent < rpcs[j].Parent
			}
			return rpcs[i].Start < rpcs[j].Start
		})
		covered := make([]int64, len(l.spans))
		var curOp int32 = -1
		var cs, ce int64 // current merged interval of curOp
		flush := func() {
			if curOp >= 0 && ce > cs {
				covered[curOp] += ce - cs
			}
		}
		for _, r := range rpcs {
			if r.End == 0 || r.Parent < 0 || int(r.Parent) >= len(l.spans) {
				continue
			}
			ts.rpcs++
			op := l.spans[r.Parent]
			s, e := max(r.Start, op.Start), min(max(r.End, r.SendEnd), op.End)
			if r.Parent != curOp {
				flush()
				curOp, cs, ce = r.Parent, s, e
			} else if s > ce {
				flush()
				cs, ce = s, e
			} else if e > ce {
				ce = e
			}
		}
		flush()
		for i, sp := range l.spans {
			if sp.End == 0 {
				continue
			}
			d := sp.End - sp.Start
			ts.ops++
			ts.opNS += float64(d)
			if self := d - covered[i]; self > 0 {
				ts.clientNS += float64(self)
			}
		}

		// Split the joined RPCs' intervals over the layers they crossed.
		for _, r := range rpcs {
			psp, ok := byXid[r.Xid]
			if r.End == 0 || !ok {
				continue
			}
			ts.joined++
			interval := float64(max(r.End, r.SendEnd) - r.Start)
			joinedNS += interval
			stages := float64(psp.ClassifyNS + psp.RouteNS + psp.RewriteNS)
			send := float64(r.SendNS)
			if c.inline {
				send -= stages
				if send < 0 {
					send = 0
				}
			}
			rest := interval - send - stages
			parts["oncrpc.send"] += send
			parts["proxy.stages"] += stages
			n := psp.NHops
			if n > obs.MaxHops {
				n = obs.MaxHops
			}
			for _, h := range psp.Hops[:n] {
				wait := float64(0)
				if h.TotalNS > h.ServerNS {
					wait = float64(h.TotalNS - h.ServerNS)
				}
				parts[h.Kind.String()+".server"] += float64(h.ServerNS)
				parts[h.Kind.String()+".wait"] += wait
				rest -= float64(h.TotalNS)
			}
			if rest > 0 {
				parts["unattributed"] += rest
			}
		}
	}

	ts.layers["client"] = ts.clientNS
	rpcNS := ts.opNS - ts.clientNS
	if joinedNS > 0 {
		// Parts can sum past joinedNS where a hop overlaps the send (the
		// inline µproxy forwards before SendTo returns); normalise.
		var sum float64
		for _, p := range parts {
			sum += p
		}
		for k, p := range parts {
			ts.layers[k] = p / sum * rpcNS
		}
	} else {
		ts.layers["unattributed"] = rpcNS
	}
	return ts
}

// unattributedFrac is the share of op time no layer accounts for.
func (ts *traceSummary) unattributedFrac() float64 {
	if ts.opNS == 0 {
		return 0
	}
	return ts.layers["unattributed"] / ts.opNS
}

// writeTable prints the per-layer self-time table.
func (ts *traceSummary) writeTable(w *bufio.Writer) {
	fmt.Fprintf(w, "# self time by layer (traced phase): %d op spans, %d RPCs with replies, %d µproxy spans sampled, %d joined by xid, %d spans over the cap\n",
		ts.ops, ts.rpcs, ts.sampled, ts.joined, ts.dropped)
	fmt.Fprintf(w, "# %-18s %12s %8s\n", "layer", "us/op", "share")
	for _, name := range layerOrder {
		ns, ok := ts.layers[name]
		if !ok {
			continue
		}
		perOp, share := 0.0, 0.0
		if ts.ops > 0 {
			perOp = ns / float64(ts.ops) / 1e3
		}
		if ts.opNS > 0 {
			share = ns / ts.opNS
		}
		fmt.Fprintf(w, "# %-18s %12.3f %7.1f%%\n", name, perOp, 100*share)
	}
}

// writeSpans writes the traced phase's spans, one per line:
// name, start ns, end ns, span id, parent id, xid. Op spans are named
// client.<OP>; each RPC gives an oncrpc.send and an oncrpc.wait span.
func writeSpans(dir, workload string, seed uint64, v *env) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tid\tparent\txid")
	for _, l := range v.lanes {
		base := uint64(l.id+1) << 40
		for i, sp := range l.spans {
			fmt.Fprintf(w, "client.%s\t%d\t%d\t%d\t0\t0\n", sp.Op, sp.Start, sp.End, base+uint64(i))
		}
		c := l.conn
		c.mu.Lock()
		rpcBase := base + 1<<39
		for i, r := range c.rpcs {
			parent := uint64(0)
			if r.Parent >= 0 {
				parent = base + uint64(r.Parent)
			}
			id := rpcBase + 2*uint64(i)
			fmt.Fprintf(w, "oncrpc.send\t%d\t%d\t%d\t%d\t%d\n", r.Start, r.SendEnd, id, parent, r.Xid)
			if r.End != 0 {
				fmt.Fprintf(w, "oncrpc.wait\t%d\t%d\t%d\t%d\t%d\n", r.SendEnd, r.End, id+1, parent, r.Xid)
			}
		}
		c.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
