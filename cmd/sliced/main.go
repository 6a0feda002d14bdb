// Command sliced runs a complete Slice ensemble — storage nodes, a
// block-service coordinator, directory servers, small-file servers, and
// a fleet of interposed µproxies — and exports the resulting virtual NFS
// server over real UDP sockets (and, with -tcp, record-marked TCP).
// Point cmd/slicectl at a printed address.
//
//	sliced -storage 8 -dirs 4 -small 2 -policy switch -p 0.25 -listen 127.0.0.1:20490
//
// µproxies are freely replicable (§2.1): -proxies N runs a fleet of N
// shared-nothing members over one set of routing tables, each behind its
// own endpoint at consecutive ports. The architecture only requires that
// each client's request stream pass through a single µproxy; clients of
// different endpoints share the volume with no coordination between the
// members. The in-process ensemble clients additionally exercise the
// flow-hashed front: their flows spread across all N members.
//
//	sliced -proxies 4 -pprof 127.0.0.1:6061
//
// serves members at :20490 .. :20493.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"time"

	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/proxy"
	"slice/internal/route"
	"slice/internal/udpgate"
	"slice/internal/wire"
)

// daemon is a running ensemble with one UDP gateway per fleet member.
type daemon struct {
	e     *ensemble.Ensemble
	udp   []*udpgate.Gateway
	stats time.Duration // stats print interval (0 = off)
}

// start parses sliced's command line, builds the ensemble and its
// gateways, and prints the endpoints to out.
func start(args []string, out io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet("sliced", flag.ExitOnError)
	var (
		storage   = fs.Int("storage", 4, "number of storage nodes")
		dirs      = fs.Int("dirs", 2, "number of directory servers")
		small     = fs.Int("small", 2, "number of small-file servers")
		policy    = fs.String("policy", "switch", "name-space policy: switch | hash")
		p         = fs.Float64("p", 0.25, "mkdir redirection probability (switch policy)")
		mirror    = fs.Int("mirror", 0, "mirror degree for new files (0/1 = unmirrored)")
		maps      = fs.Bool("blockmaps", false, "route bulk I/O through coordinator block maps")
		capkey    = fs.String("capkey", "", "storage capability key (enables the secure-object model)")
		proxies   = fs.Int("proxies", 1, "µproxy fleet size (1..8)")
		listen    = fs.String("listen", "127.0.0.1:20490", "UDP endpoint of fleet member 0; member i listens at port+i")
		tcp       = fs.String("tcp", "", "TCP endpoint of fleet member 0 for record-marked ONC-RPC; member i listens at port+i (empty = UDP only)")
		portmap   = fs.String("portmap", "", "portmapper TCP listen address (requires -tcp; use :111 for real mount clients)")
		stats     = fs.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
		mutexFrac = fs.Int("mutexprofile", 0, "runtime.SetMutexProfileFraction rate (0 = off)")
		blockRate = fs.Int("blockprofile", 0, "runtime.SetBlockProfileRate rate in ns (0 = off)")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag or -h exits here, as flag.Parse does

	// Contention profiling of the sharded data path: sample mutex
	// hold/wait times and serve them at /debug/pprof/{mutex,block}.
	// Rate 0 leaves both profiles off.
	runtime.SetMutexProfileFraction(*mutexFrac)
	runtime.SetBlockProfileRate(*blockRate)
	if *pprofAddr != "" {
		go func() { log.Printf("sliced: pprof server: %v", http.ListenAndServe(*pprofAddr, nil)) }()
		fmt.Fprintf(out, "sliced: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	kind := route.MkdirSwitching
	if *policy == "hash" {
		kind = route.NameHashing
	}
	e, err := ensemble.New(ensemble.Config{
		StorageNodes:      *storage,
		DirServers:        *dirs,
		SmallFileServers:  *small,
		Proxies:           *proxies,
		Coordinator:       true,
		NameKind:          kind,
		MkdirP:            *p,
		MirrorDegree:      uint8(*mirror),
		UseBlockMaps:      *maps,
		WritebackInterval: 2 * time.Second,
		CapabilityKey:     []byte(*capkey),
		TCPListen:         *tcp,
		PortmapListen:     *portmap,
	})
	if err != nil {
		return nil, fmt.Errorf("ensemble: %w", err)
	}
	d := &daemon{e: e, stats: *stats}
	fmt.Fprintf(out, "sliced: serving volume %v: %d storage nodes, %d directory servers (%s, p=%.2f), %d small-file servers\n",
		e.Root, len(e.Storage), len(e.Dirs), kind, *p, len(e.Small))
	// One UDP gateway per fleet member: a kernel client is one flow
	// source, so its endpoint choice is its front assignment.
	for i := range e.Proxies {
		gw, err := d.addGateway(*listen, i)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("gateway %d: %w", i, err)
		}
		fmt.Fprintf(out, "  µproxy #%d (fabric %v): slicectl -connect %v <command>\n", i, e.VirtualOf(i), gw.Addr())
	}
	for i, g := range e.Gateways {
		fmt.Fprintf(out, "  µproxy #%d, record-marked TCP: slicectl -tcp -connect %v <command>\n", i, g.Addr())
	}
	if e.Portmap != nil {
		fmt.Fprintf(out, "  portmapper: %v (program %d v%d) -> member 0\n", e.Portmap.Addr(),
			nfsproto.PortmapProgram, nfsproto.PortmapVersion)
	}
	return d, nil
}

// addGateway starts fleet member i's UDP gateway, at member 0's listen
// port + i, and surfaces its counters alongside every other component
// in `slicectl stats` (registry "udpgate", "udpgate[1]", ...).
func (d *daemon) addGateway(listen string, i int) (*udpgate.Gateway, error) {
	addr, err := ensemble.MemberListen(listen, i)
	if err != nil {
		return nil, err
	}
	gw, err := udpgate.NewGateway(addr, d.e.Net, d.e.VirtualOf(i))
	if err != nil {
		return nil, err
	}
	d.udp = append(d.udp, gw)
	reg := obs.NewRegistry(ensemble.MemberName("udpgate", i))
	gw.SetObs(reg)
	d.e.Obs.AddRegistry(reg)
	return gw, nil
}

// Close stops the gateways and the ensemble.
func (d *daemon) Close() {
	for _, gw := range d.udp {
		gw.Close()
	}
	d.e.Close()
}

func main() {
	d, err := start(os.Args[1:], os.Stdout)
	if err != nil {
		log.Fatalf("sliced: %v", err)
	}
	defer d.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.Tick(d.stats) // nil, never firing, when the interval is 0
	for {
		select {
		case <-sig:
			fmt.Println("\nsliced: shutting down")
			d.printStats(os.Stdout)
			return
		case <-tick:
			d.printStats(os.Stdout)
		}
	}
}

func (d *daemon) printStats(w io.Writer) {
	e := d.e
	for i, p := range e.Proxies {
		if p != nil {
			dumpProxy(w, fmt.Sprintf("µproxy#%d", i), p)
		}
	}
	for i, dir := range e.Dirs {
		c := dir.Counters()
		fmt.Fprintf(w, "[stats] dir[%d]: %d ops, %d peer calls, %d cross-site\n",
			i, c.Ops, c.PeerCalls, c.CrossSite)
	}
	for i, n := range e.Storage {
		s := n.Store().Stats()
		fmt.Fprintf(w, "[stats] storage[%d]: %d reads, %d writes, %.1f MB stored\n",
			i, s.Reads, s.Writes, float64(n.Store().PhysicalBytes())/1e6)
	}
	for i, s := range e.Small {
		st := s.Store().Stats()
		fmt.Fprintf(w, "[stats] smallfile[%d]: %d reads, %d writes, %d files\n",
			i, st.Reads, st.Writes, s.Store().NumFiles())
	}
	for i, gw := range d.udp {
		printGateway(w, fmt.Sprintf("udpgate[%d]", i), gw.Stats())
	}
	for i, g := range e.Gateways {
		printGateway(w, fmt.Sprintf("wire[%d]", i), g.Stats())
	}
	ps := netsim.PoolStats()
	fmt.Fprintf(w, "[bufpool] %d gets / %d puts / %d fresh allocs / %d foreign frees\n",
		ps.Gets, ps.Puts, ps.News, ps.Ignored)
	// Latency exposition: every component's op-class histograms plus the
	// µproxy's stage/hop/e2e breakdowns, in the text format `slicectl
	// stats` renders from the same collector over the wire.
	e.Obs.WriteText(w)
}

func printGateway(w io.Writer, name string, s wire.Stats) {
	fmt.Fprintf(w, "[stats] %s: %d peers (%d total, %d evicted), rx %d msgs / %d B (max %d), tx %d msgs / %d B (max %d), drops: %d no-peer, %d inject, %d write\n",
		name, s.Peers, s.TotalConns, s.PeersEvicted, s.RxRecords, s.RxBytes, s.MaxRxRecord,
		s.TxRecords, s.TxBytes, s.MaxTxRecord, s.DropNoPeer, s.DropInject, s.DropWrite)
}

// dumpProxy prints one fleet member's packet counts with its Table 3
// stage costs, and its soft-state occupancy and hit rates. The hottest
// shard's pending count makes routing skew visible at a glance.
func dumpProxy(w io.Writer, name string, p *proxy.Proxy) {
	st := p.Stats()
	pkts := st.Requests + st.Responses
	perPkt := func(ns uint64) float64 { return float64(ns) / float64(max(pkts, 1)) }
	fmt.Fprintf(w, "[%s] %d pkts (%d req / %d resp / %d absorbed / %d initiated / %d dropped); ns/pkt: intercept %.0f decode %.0f rewrite %.0f softstate %.0f\n",
		name, pkts, st.Requests, st.Responses, st.Absorbed, st.Initiated, st.Dropped,
		perPkt(st.InterceptNS), perPkt(st.DecodeNS), perPkt(st.RewriteNS), perPkt(st.SoftStateNS))
	var sum proxy.ShardStat
	maxPend := 0
	for _, sh := range p.ShardStats() {
		sum.Pending += sh.Pending
		sum.AttrEntries += sh.AttrEntries
		sum.NameEntries += sh.NameEntries
		sum.AttrHits += sh.AttrHits
		sum.AttrMisses += sh.AttrMisses
		sum.NameHits += sh.NameHits
		sum.NameMisses += sh.NameMisses
		maxPend = max(maxPend, sh.Pending)
	}
	fmt.Fprintf(w, "[%s] shards: %d pending (max/shard %d), %d attrs (hit %s), %d names (hit %s)\n",
		name, sum.Pending, maxPend, sum.AttrEntries, pct(sum.AttrHits, sum.AttrMisses), sum.NameEntries, pct(sum.NameHits, sum.NameMisses))
}

func pct(hits, misses uint64) string {
	if hits+misses == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(hits+misses))
}
