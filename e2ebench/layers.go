package main

import (
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"slice/internal/coord"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/proxy"
	"slice/internal/smallfile"
	"slice/internal/storage"
	"slice/internal/udpgate"
	"slice/internal/wal"
	"slice/internal/wire"
)

// snapshot is every counter the benchmark reads, taken at a phase
// boundary through each layer's public accessors.
type snapshot struct {
	at                                   time.Time
	cpuNS                                int64  // process user+system time (getrusage)
	alloc                                uint64 // runtime.MemStats.TotalAlloc
	net                                  netsim.Stats
	pool                                 netsim.BufPoolStats
	proxies                              []proxy.StageStats
	attrHit, attrMiss, nameHit, nameMiss uint64
	udp                                  udpgate.Stats
	wire                                 []wire.Stats
	store                                []storage.Stats
	small                                []smallfile.Stats
	smallPB                              int64 // small-file backing bytes allocated to live fragments
	wal                                  []wal.Stats
	coord                                coord.Stats
	retrans                              uint64
	pinned                               uint64   // reads pinned to a primary by a dirty object
	spread                               []uint64 // spread reads per replica member slot
	window                               obs.HistSnapshot
}

// mark is the process-wide part of a snapshot, taken at every window
// boundary.
type mark struct {
	at    time.Time
	cpuNS int64  // process user+system time (getrusage)
	alloc uint64 // runtime.MemStats.TotalAlloc
}

func takeMark() mark {
	t := time.Now()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: t, cpuNS: ru.Utime.Nano() + ru.Stime.Nano(), alloc: ms.TotalAlloc}
}

func (v *env) snapshot() snapshot {
	m := takeMark()
	s := snapshot{
		at:    m.at,
		cpuNS: m.cpuNS,
		alloc: m.alloc,
		net:   v.e.Net.Stats(),
		pool:  netsim.PoolStats(),
	}
	for _, p := range v.e.Proxies {
		s.proxies = append(s.proxies, p.Stats())
		for _, sh := range p.ShardStats() {
			s.attrHit += sh.AttrHits
			s.attrMiss += sh.AttrMisses
			s.nameHit += sh.NameHits
			s.nameMiss += sh.NameMisses
		}
	}
	if v.udp != nil {
		s.udp = v.udp.Stats()
	}
	for _, g := range v.e.Gateways {
		s.wire = append(s.wire, g.Stats())
	}
	for _, n := range v.e.Storage {
		s.store = append(s.store, n.Store().Stats())
	}
	for _, sm := range v.e.Small {
		s.small = append(s.small, sm.Store().Stats())
		s.smallPB += sm.Store().PhysicalBytes()
	}
	for _, d := range v.e.Dirs {
		s.wal = append(s.wal, d.Log().Stats())
	}
	if v.e.Coord != nil {
		s.coord = v.e.Coord.Stats()
	}
	for _, l := range v.lanes {
		s.retrans += l.c.Retransmissions()
		s.window.Merge(l.reg.Hist(obs.HistBulkWindow).Snapshot())
	}
	px, _ := v.e.Obs.Snapshot().MergeRole("uproxy", "uproxy")
	s.pinned = px.Hists["replica.pinned_reads"].Count()
	var slots []string
	for name := range px.Hists {
		if strings.HasPrefix(name, "replica.read[") {
			slots = append(slots, name)
		}
	}
	sort.Strings(slots)
	for _, name := range slots {
		s.spread = append(s.spread, px.Hists[name].Count())
	}
	return s
}

// ratio is a/b, or 0 when the layer saw no traffic (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of one phase. Every metric
// is present on every workload; one whose layer the workload leaves idle
// reads 0.
func layerMetrics(r *Result, p *phaseResult, untracedOpsPerS float64) []metric {
	a, b := p.a, p.b
	ops := float64(p.rec.ops)
	kops := ops / 1000
	payload := float64(p.rec.readBytes + p.rec.writeBytes)
	ts := p.traceStats

	var m []metric
	add := func(name, unit string, v float64) { m = append(m, metric{name, unit, v}) }

	// client
	var winSnap obs.HistSnapshot
	for i := range b.window.Buckets {
		winSnap.Buckets[i] = b.window.Buckets[i] - a.window.Buckets[i]
	}
	add("client.window_mean", "chunks", winSnap.Mean())
	add("client.self_us_per_op", "us", ratio(ts.clientNS, float64(ts.ops))/1e3)

	// oncrpc, measured on the wrapped connection
	add("oncrpc.rpcs_per_op", "1/op", ratio(float64(ts.sendCalls), ops))
	add("oncrpc.send_us_per_rpc", "us", ratio(float64(ts.sendNS), float64(ts.sendCalls))/1e3)
	add("oncrpc.retransmits_per_kop", "1/kop", ratio(float64(b.retrans-a.retrans), kops))

	// gateways
	add("udpgate.drops", "count", float64((b.udp.DropNoPeer+b.udp.DropInject+b.udp.DropWrite)-(a.udp.DropNoPeer+a.udp.DropInject+a.udp.DropWrite)))
	var recs, wbytes, wdrops float64
	for i := range b.wire {
		recs += float64(b.wire[i].RxRecords + b.wire[i].TxRecords - a.wire[i].RxRecords - a.wire[i].TxRecords)
		wbytes += float64(b.wire[i].RxBytes + b.wire[i].TxBytes - a.wire[i].RxBytes - a.wire[i].TxBytes)
		wdrops += float64(b.wire[i].Drops - a.wire[i].Drops)
	}
	add("wire.records_per_op", "1/op", ratio(recs, ops))
	add("wire.bytes_per_payload_byte", "B/B", ratio(wbytes, payload))
	add("wire.drops", "count", wdrops)

	// netsim
	add("netsim.datagrams_per_op", "1/op", ratio(float64(b.net.Sent-a.net.Sent), ops))
	add("netsim.bytes_per_payload_byte", "B/B", ratio(float64(b.net.Bytes-a.net.Bytes), payload))
	add("netsim.dropped", "count", float64((b.net.Lost+b.net.Dropped+b.net.Faulted)-(a.net.Lost+a.net.Dropped+a.net.Faulted)))
	add("netsim.pool_fresh_allocs_per_kop", "1/kop", ratio(float64(b.pool.News-a.pool.News), kops))

	// proxy: exact stage sums over every fleet member
	var st proxy.StageStats
	var busiest, total float64
	for i := range b.proxies {
		x, y := b.proxies[i], a.proxies[i]
		d := proxy.StageStats{
			Intercepted: x.Intercepted - y.Intercepted, Requests: x.Requests - y.Requests,
			Absorbed: x.Absorbed - y.Absorbed, Dropped: x.Dropped - y.Dropped,
			InterceptNS: x.InterceptNS - y.InterceptNS, DecodeNS: x.DecodeNS - y.DecodeNS,
			RewriteNS: x.RewriteNS - y.RewriteNS, SoftStateNS: x.SoftStateNS - y.SoftStateNS,
		}
		st.Intercepted += d.Intercepted
		st.Requests += d.Requests
		st.Absorbed += d.Absorbed
		st.Dropped += d.Dropped
		st.InterceptNS += d.InterceptNS
		st.DecodeNS += d.DecodeNS
		st.RewriteNS += d.RewriteNS
		st.SoftStateNS += d.SoftStateNS
		total += float64(d.Requests)
		busiest = max(busiest, float64(d.Requests))
	}
	pkts := float64(st.Intercepted)
	add("proxy.intercept_ns_per_pkt", "ns", ratio(float64(st.InterceptNS), pkts))
	add("proxy.decode_ns_per_pkt", "ns", ratio(float64(st.DecodeNS), pkts))
	add("proxy.rewrite_ns_per_pkt", "ns", ratio(float64(st.RewriteNS), pkts))
	add("proxy.softstate_ns_per_pkt", "ns", ratio(float64(st.SoftStateNS), pkts))
	add("proxy.absorbed_frac", "ratio", ratio(float64(st.Absorbed), float64(st.Requests)))
	ah, am := float64(b.attrHit-a.attrHit), float64(b.attrMiss-a.attrMiss)
	nh, nm := float64(b.nameHit-a.nameHit), float64(b.nameMiss-a.nameMiss)
	add("proxy.attr_hit_ratio", "ratio", ratio(ah, ah+am))
	add("proxy.name_hit_ratio", "ratio", ratio(nh, nh+nm))
	add("proxy.dropped", "count", float64(st.Dropped))

	// front: busiest member's requests over the fleet mean
	add("front.max_member_share", "ratio", ratio(busiest, total/float64(len(b.proxies))))

	// replica
	var spread, spreadMax float64
	for i := range b.spread {
		d := float64(b.spread[i])
		if i < len(a.spread) {
			d -= float64(a.spread[i])
		}
		spread += d
		spreadMax = max(spreadMax, d)
	}
	pinned := float64(b.pinned - a.pinned)
	add("replica.pinned_read_frac", "ratio", ratio(pinned, pinned+spread))
	meanSpread := 0.0
	if len(b.spread) > 0 {
		meanSpread = spread / float64(len(b.spread))
	}
	add("replica.read_spread_max_share", "ratio", ratio(spreadMax, meanSpread))

	// dirsrv and its write-ahead log
	d := ts.hops[obs.HopDirsrv]
	add("dirsrv.server_us_per_call", "us", ratio(float64(d.serverNS), float64(d.calls))/1e3)
	add("dirsrv.wait_us_per_call", "us", ratio(float64(d.waitNS), float64(d.calls))/1e3)
	var syncs, appends, walBytes float64
	for i := range b.wal {
		syncs += float64(b.wal[i].Syncs - a.wal[i].Syncs)
		appends += float64(b.wal[i].Appends - a.wal[i].Appends)
		walBytes += float64(b.wal[i].Bytes - a.wal[i].Bytes)
	}
	add("wal.syncs_per_op", "1/op", ratio(syncs, ops))
	add("wal.appends_per_sync", "ratio", ratio(appends, syncs))
	add("wal.bytes_per_op", "B/op", ratio(walBytes, ops))

	// smallfile
	// Server time of the data layers is a share of op time (the self-time
	// table's row), not a time per call: per call, a layer a workload
	// leaves idle would read a constant 0 on every run.
	add("smallfile.server_share", "ratio", ratio(ts.layers["smallfile.server"], ts.opNS))
	var fAllocs, fReuses float64
	for i := range b.small {
		fAllocs += float64(b.small[i].FragAllocs - a.small[i].FragAllocs)
		fReuses += float64(b.small[i].FragReuses - a.small[i].FragReuses)
	}
	add("smallfile.frag_reuse_ratio", "ratio", ratio(fReuses, fAllocs))
	add("smallfile.space_per_live_byte", "B/B", ratio(float64(b.smallPB), float64(r.LiveSmall)))

	// storage
	add("storage.server_share", "ratio", ratio(ts.layers["storage.server"], ts.opNS))
	var sw, sr, pf float64
	for i := range b.store {
		sw += float64(b.store[i].BytesWritten - a.store[i].BytesWritten)
		sr += float64(b.store[i].BytesRead - a.store[i].BytesRead)
		pf += float64(b.store[i].PrefetchStarts - a.store[i].PrefetchStarts)
	}
	add("storage.write_amp", "B/B", ratio(sw, float64(p.rec.writeBytes)))
	add("storage.read_amp", "B/B", ratio(sr, float64(p.rec.readBytes)))
	add("storage.prefetch_starts_per_mb", "1/MB", ratio(pf, float64(p.rec.readBytes)/1e6))

	// coordinator
	add("coord.intentions_per_kop", "1/kop", ratio(float64(b.coord.Intentions-a.coord.Intentions), kops))
	add("coord.map_fetches_per_kop", "1/kop", ratio(float64(b.coord.MapFetches-a.coord.MapFetches), kops))

	// trace bookkeeping
	add("trace.unattributed_frac", "ratio", ts.unattributedFrac())
	add("trace.overhead_frac", "ratio", 1-ratio(ops/p.seconds, untracedOpsPerS))
	add("trace.proxy_spans_sampled", "count", float64(ts.sampled))
	return m
}
