package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/udpgate"
	"slice/internal/wire"
)

// Options configures one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the measured time. A traced run splits it: the first
	// half untraced, the second traced.
	Seconds time.Duration
	Trace   bool
	// TraceDir receives the traced run's spans.
	TraceDir string
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 21

// Run phases. Lanes read the phase at the start of every op and file
// the op's sample under it; only the measured phases are reported.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseTraced
	phaseStop
	numPhases
)

// transport is how lanes reach the µproxy.
type transport int

const (
	viaNetsim transport = iota // a port on the fabric, as ensemble clients do
	viaUDP                     // the real UDP gateway (udpgate)
	viaTCP                     // the record-marked TCP gateway (wire)
)

func (t transport) String() string {
	return [...]string{"netsim", "udp", "tcp"}[t]
}

// workload is one traffic mix: the ensemble it runs on, how lanes
// connect, and the per-lane op plan and checks.
type workload struct {
	name      string
	config    ensemble.Config
	transport transport
	// serial gives lanes the one-call-at-a-time client path
	// (ensemble.NewSerialClient's); otherwise the bulk window is sized
	// as ensemble.NewClient sizes it.
	serial bool
	// lanes is the workload's closed-loop lane count.
	lanes int
	// warmupOps is how many ops each lane issues, unmeasured, before
	// timing starts, so caches fill and lazy set-up finishes. The heap
	// is read at its end, after this fixed amount of work.
	warmupOps int64
	newWorker func(seed uint64, lane int) worker
}

// worker is one lane's workload logic.
type worker interface {
	// prepare builds the lane's starting state (part of set-up).
	prepare(l *lane) error
	// next plans the lane's next action into buf.
	next(buf []step) []step
	// exec issues one planned call, timing it with l.begin/l.end, and
	// verifies its result. A false return abandons the action's
	// remaining steps.
	exec(l *lane, s step) bool
	// check verifies the lane's end state after the run.
	check(l *lane) error
}

// runState is shared by the controller and the lanes.
type runState struct {
	base    time.Time // monotonic time origin of every span
	phase   atomic.Int32
	tracing atomic.Bool
	spanCap int
	pat     pattern
	// warmupOps is the workload's; warmed counts down as lanes finish
	// their warm-up, and measure is closed when they may go on.
	warmupOps int64
	warmed    sync.WaitGroup
	measure   chan struct{}
	// phaseStart (ns since base) and winNS place each op of a measured
	// phase in one of its nWindows equal windows.
	phaseStart atomic.Int64
	winNS      atomic.Int64
}

// nWindows is how many windows a measured phase is cut into. Rates and
// medians are taken per window and the median window is reported, so a
// burst of interference in part of a run moves no reported number.
const nWindows = 10

func (r *runState) now() int64 { return int64(time.Since(r.base)) }

// phaseRec is what one lane measured in one phase. Only the lane's own
// goroutine writes it; the controller reads it after the lanes stop.
type phaseRec struct {
	wins       []winRec
	samples    [2][]int64 // all windows' samples, filled by merge
	ops        int64
	failed     int64
	mismatched int64
	readBytes  int64
	writeBytes int64
}

// winRec is one window of a phase: the ops that started in it.
type winRec struct {
	ops     int64
	samples [2][]int64 // op latency in ns: [0] name/attribute, [1] data
}

// opSpan is one benchmark-side span around a client library call.
type opSpan struct {
	Op         opKind
	Start, End int64
}

// lane is one closed-loop client: one connection, one goroutine, its
// own subtree or files.
type lane struct {
	id   int
	c    *client.Client
	reg  *obs.Registry
	conn *traceConn // nil unless the run is traced
	run  *runState
	w    worker

	ph      [numPhases]phaseRec
	cur     int32 // phase of the op in flight
	warmOps int64 // ops issued in the warm-up

	spans    []opSpan
	openSpan atomic.Int32 // index+1 of the op span in flight, for traceConn
	dropped  int          // spans not kept once the cap was reached

	buf        []byte // read buffer
	mismatches int    // every mismatch, whatever the phase
	lastErr    error
}

// begin starts timing one client call.
func (l *lane) begin() time.Time {
	l.cur = l.run.phase.Load()
	t := time.Now()
	if l.cur == phaseTraced && l.conn != nil {
		if len(l.spans) < l.run.spanCap {
			l.spans = append(l.spans, opSpan{Start: int64(t.Sub(l.run.base))})
			l.openSpan.Store(int32(len(l.spans)))
		} else {
			l.dropped++
		}
	}
	return t
}

// end finishes timing the call begun at t0. err is the call's outcome:
// any error the call was not expected to return counts as a failed op.
func (l *lane) end(op opKind, t0 time.Time, err error) {
	t1 := time.Now()
	if i := l.openSpan.Swap(0); i > 0 {
		sp := &l.spans[i-1]
		sp.Op = op
		sp.End = int64(t1.Sub(l.run.base))
	}
	if err != nil {
		l.lastErr = fmt.Errorf("%s: %w", op, err)
	}
	if l.cur == phaseWarmup {
		l.warmOps++
	}
	if l.cur != phaseMeasure && l.cur != phaseTraced {
		return
	}
	p := &l.ph[l.cur]
	cls := 0
	if op.data() {
		cls = 1
	}
	w := 0
	if ws := l.run.winNS.Load(); ws > 0 {
		w = int((int64(t0.Sub(l.run.base)) - l.run.phaseStart.Load()) / ws)
		w = max(0, min(w, nWindows-1))
	}
	for len(p.wins) <= w {
		p.wins = append(p.wins, winRec{})
	}
	win := &p.wins[w]
	win.samples[cls] = append(win.samples[cls], int64(t1.Sub(t0)))
	win.ops++
	p.ops++
	if err != nil {
		p.failed++
	}
}

// mismatch records a call whose result was wrong: bytes that differ
// from what was written, a missing or unexpected entry, a wrong size.
func (l *lane) mismatch(op opKind, format string, args ...any) {
	l.mismatches++
	l.lastErr = fmt.Errorf("%s: mismatch: %s", op, fmt.Sprintf(format, args...))
	if l.cur == phaseMeasure || l.cur == phaseTraced {
		l.ph[l.cur].mismatched++
	}
}

func (l *lane) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	var plan []step
	warming := true
	for l.run.phase.Load() != phaseStop {
		if warming && l.warmOps >= l.run.warmupOps {
			// Wait for the other lanes and the heap reading.
			warming = false
			l.run.warmed.Done()
			<-l.run.measure
		}
		plan = l.w.next(plan)
		for _, s := range plan {
			if !l.w.exec(l, s) {
				break
			}
		}
	}
}

// env is one set-up ensemble with its lanes connected.
type env struct {
	w     *workload
	e     *ensemble.Ensemble
	udp   *udpgate.Gateway
	lanes []*lane
	run   *runState
}

// laneHost0 is the fabric host of lane 0's port, clear of the
// ensemble's own client hosts and the gateways' synthetic ranges.
const laneHost0 = 1000

// clientQueueDepth sizes bulk windows exactly as ensemble.NewClient
// does: storage array width × 4 chunks per node.
const clientQueueDepth = 4

func setup(w *workload, o Options, lanes int, run *runState) (*env, error) {
	e, err := ensemble.New(w.config)
	if err != nil {
		return nil, fmt.Errorf("ensemble: %w", err)
	}
	v := &env{w: w, e: e, run: run}
	if w.transport == viaUDP {
		v.udp, err = udpgate.NewGateway("127.0.0.1:0", e.Net, e.Virtual)
		if err != nil {
			v.close()
			return nil, fmt.Errorf("udp gateway: %w", err)
		}
	}
	for i := 0; i < lanes; i++ {
		l, err := v.newLane(i, o)
		if err != nil {
			v.close()
			return nil, fmt.Errorf("lane %d: %w", i, err)
		}
		v.lanes = append(v.lanes, l)
	}
	for _, l := range v.lanes {
		if err := l.w.prepare(l); err != nil {
			v.close()
			return nil, fmt.Errorf("lane %d prepare: %w", l.id, err)
		}
	}
	return v, nil
}

func (v *env) newLane(i int, o Options) (*lane, error) {
	var conn oncrpc.Conn
	var err error
	switch v.w.transport {
	case viaNetsim:
		conn, err = v.e.Net.BindAny(laneHost0 + uint32(i))
	case viaUDP:
		conn, err = udpgate.Dial(v.udp.Addr().String())
	case viaTCP:
		conn, err = wire.Dial(v.e.Gateways[0].Addr().String())
	}
	if err != nil {
		return nil, err
	}
	l := &lane{id: i, run: v.run, w: v.w.newWorker(o.Seed, i), buf: make([]byte, ioChunk)}
	if o.Trace {
		l.conn = newTraceConn(conn, l, v.w.transport == viaNetsim)
		conn = l.conn
	}
	l.reg = obs.NewRegistry(fmt.Sprintf("lane[%d]", i))
	cfg := client.Config{
		Server:     v.e.Virtual,
		Threshold:  v.e.IOPolicy.Threshold,
		StripeUnit: v.e.IOPolicy.StripeUnit,
		RPC:        v.w.config.ClientRPC,
		Window:     v.e.IOPolicy.WindowFor(clientQueueDepth),
		Obs:        l.reg,
	}
	if v.w.serial {
		cfg.Window = 1
	}
	if len(v.e.Proxies) > 1 {
		cfg.Fleet = v.e.Front
	}
	l.c = client.NewWithConn(conn, cfg)
	if err := l.c.Mount(); err != nil {
		l.c.Close()
		return nil, fmt.Errorf("mount: %w", err)
	}
	return l, nil
}

// closeClients closes every lane's client, ending its receive loop.
func (v *env) closeClients() {
	for _, l := range v.lanes {
		l.c.Close()
	}
	v.lanes = nil
}

func (v *env) close() {
	v.closeClients()
	if v.udp != nil {
		v.udp.Close()
	}
	v.e.Close()
}

// quiesce waits until no µproxy holds a pending request record.
func (v *env) quiesce(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		pending := 0
		for _, p := range v.e.Proxies {
			for _, s := range p.ShardStats() {
				pending += s.Pending
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("µproxy pending = %d after %v at quiescence", pending, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// phaseResult is one measured phase, merged over lanes.
type phaseResult struct {
	rec        phaseRec
	a, b       snapshot
	marks      []mark // window boundaries: a, nWindows-1 inner marks, b
	seconds    float64
	traceStats *traceSummary
}

// Result is everything one run measured.
type Result struct {
	Workload  string
	Transport string
	Lanes     int
	Seed      uint64
	SetupS    []float64
	Untraced  phaseResult
	Traced    *phaseResult
	HeapInuse uint64
	Checks    []string // failed output checks
	Errors    []string // failed calls, by lane
	Mismatch  int
	LiveSmall int64 // bytes the workload keeps below the small-file threshold
}

// Run executes one benchmark run.
func Run(o Options) (*Result, error) {
	w, ok := workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, workloadNames())
	}
	lanes := min(w.lanes, runtime.NumCPU())
	run := &runState{base: time.Now(), spanCap: 1 << 18, pat: newPattern(o.Seed),
		warmupOps: w.warmupOps, measure: make(chan struct{})}
	res := &Result{Workload: w.name, Transport: w.transport.String(), Lanes: lanes, Seed: o.Seed}

	var v *env
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		nv, err := setup(w, o, lanes, run)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		if i < setups-1 {
			nv.close()
			continue
		}
		v = nv
	}
	defer v.close()
	for _, l := range v.lanes {
		if sw, ok := l.w.(*sfsWorker); ok {
			for _, n := range sw.gen.sizes {
				res.LiveSmall += int64(min(uint64(n), v.e.IOPolicy.Threshold))
			}
		}
	}

	var wg sync.WaitGroup
	run.phase.Store(phaseWarmup)
	run.warmed.Add(len(v.lanes))
	for _, l := range v.lanes {
		wg.Add(1)
		go l.loop(&wg)
	}
	run.warmed.Wait()
	// The heap is read after the fixed warm-up, not at the end of the
	// timed phases, so it measures the program's memory for a fixed
	// amount of work (untar's tree grows with every op) and holds none of
	// the benchmark's latency samples.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapInuse = ms.HeapInuse
	close(run.measure)

	measure := o.Seconds
	if o.Trace {
		measure /= 2
	}
	res.Untraced = measurePhase(v, phaseMeasure, measure)
	var proxySpans []obs.NamedSpan
	if o.Trace {
		smp := startSampler(v.e.Obs)
		run.tracing.Store(true)
		t := measurePhase(v, phaseTraced, measure)
		run.tracing.Store(false)
		res.Traced = &t
		proxySpans = smp.stop()
	}
	run.phase.Store(phaseStop)
	wg.Wait()
	if res.Traced != nil {
		res.Traced.traceStats = analyzeTrace(v, proxySpans)
	}

	for _, l := range v.lanes {
		res.Untraced.rec.merge(&l.ph[phaseMeasure])
		if res.Traced != nil {
			res.Traced.rec.merge(&l.ph[phaseTraced])
		}
		res.Mismatch += l.mismatches
		if f := l.ph[phaseMeasure].failed + l.ph[phaseTraced].failed; f > 0 || l.lastErr != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("lane %d: %d failed calls in measured phases, last error: %v", l.id, f, l.lastErr))
		}
		if l.mismatches > 0 {
			res.Checks = append(res.Checks, fmt.Sprintf("lane %d: %d mismatched results, last: %v", l.id, l.mismatches, l.lastErr))
		}
	}
	sortSamples(&res.Untraced.rec)

	// Output checks at quiescence.
	if err := v.quiesce(5 * time.Second); err != nil {
		res.Checks = append(res.Checks, err.Error())
	}
	for _, l := range v.lanes {
		if err := l.w.check(l); err != nil {
			res.Checks = append(res.Checks, fmt.Sprintf("lane %d: %v", l.id, err))
		}
	}
	if o.Trace && o.TraceDir != "" {
		if err := writeSpans(o.TraceDir, w.name, o.Seed, v); err != nil {
			return nil, err
		}
	}
	// A UDP client's receive loop holds a pooled buffer while it blocks
	// for the next datagram, so every buffer is back only once the
	// clients are closed.
	v.closeClients()
	if ps := netsim.PoolStats(); ps.Gets != ps.Puts {
		res.Checks = append(res.Checks, fmt.Sprintf("netsim buffer pool: %d gets != %d puts at quiescence", ps.Gets, ps.Puts))
	}
	return res, nil
}

// measurePhase switches the lanes to phase for d and returns what was
// measured at its edges and window boundaries.
func measurePhase(v *env, phase int32, d time.Duration) phaseResult {
	run := v.run
	a := v.snapshot()
	run.winNS.Store(int64(d) / nWindows)
	run.phaseStart.Store(int64(a.at.Sub(run.base)))
	run.phase.Store(phase)
	marks := []mark{{a.at, a.cpuNS, a.alloc}}
	for i := 1; i < nWindows; i++ {
		time.Sleep(time.Until(a.at.Add(d * time.Duration(i) / nWindows)))
		marks = append(marks, takeMark())
	}
	time.Sleep(time.Until(a.at.Add(d)))
	b := v.snapshot()
	marks = append(marks, mark{b.at, b.cpuNS, b.alloc})
	return phaseResult{a: a, b: b, marks: marks, seconds: b.at.Sub(a.at).Seconds()}
}

func (p *phaseRec) merge(o *phaseRec) {
	for len(p.wins) < len(o.wins) {
		p.wins = append(p.wins, winRec{})
	}
	for i := range o.wins {
		p.wins[i].ops += o.wins[i].ops
		for c := range p.samples {
			p.wins[i].samples[c] = append(p.wins[i].samples[c], o.wins[i].samples[c]...)
			p.samples[c] = append(p.samples[c], o.wins[i].samples[c]...)
		}
	}
	p.ops += o.ops
	p.failed += o.failed
	p.mismatched += o.mismatched
	p.readBytes += o.readBytes
	p.writeBytes += o.writeBytes
}

func sortSamples(p *phaseRec) {
	sortAll := func(ss [2][]int64) {
		for _, s := range ss {
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		}
	}
	sortAll(p.samples)
	for _, w := range p.wins {
		sortAll(w.samples)
	}
}

// Correct reports whether every output check passed.
func (r *Result) Correct() bool { return r.Mismatch == 0 && len(r.Checks) == 0 }
