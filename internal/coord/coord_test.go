package coord

import (
	"testing"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/storage"
	"slice/internal/wal"
	"slice/internal/xdr"
)

// rig is a coordinator with two storage nodes and one small-file-server
// stand-in (a plain storage node: both speak the raw-object program).
type rig struct {
	t     *testing.T
	net   *netsim.Network
	nodes []*storage.Node
	co    *Coordinator
	store *wal.MemStore
	cli   *oncrpc.Client
}

func newRig(t *testing.T, probeAfter time.Duration) *rig {
	t.Helper()
	r := &rig{t: t, net: netsim.New(netsim.Config{})}
	var addrs []netsim.Addr
	for i := 0; i < 2; i++ {
		a := netsim.Addr{Host: uint32(10 + i), Port: 2049}
		port, err := r.net.Bind(a)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, storage.NewNode(port, storage.NewObjectStore()))
		addrs = append(addrs, a)
	}
	cport, err := r.net.Bind(netsim.Addr{Host: 90, Port: 3049})
	if err != nil {
		t.Fatal(err)
	}
	r.store = wal.NewMemStore()
	log, err := wal.Open(r.store)
	if err != nil {
		t.Fatal(err)
	}
	r.co = New(cport, Config{
		Log:        log,
		Storage:    route.NewTable(4, addrs),
		Net:        r.net,
		Host:       90,
		ProbeAfter: probeAfter,
	})
	clip, _ := r.net.BindAny(200)
	r.cli = oncrpc.NewClient(clip, r.co.Addr(), oncrpc.ClientConfig{})
	t.Cleanup(func() {
		r.cli.Close()
		r.co.Close()
		for _, n := range r.nodes {
			n.Close()
		}
	})
	return r
}

func testFH(id uint64) fhandle.Handle {
	return fhandle.Handle{Volume: 1, FileID: id, Type: 1, Gen: 1}
}

func TestIntendCompleteLifecycle(t *testing.T) {
	r := newRig(t, time.Hour)
	id, err := r.co.Intend(OpRemove, testFH(1), 0)
	if err != nil || id == 0 {
		t.Fatalf("intend: id=%d err=%v", id, err)
	}
	if r.co.PendingIntentions() != 1 {
		t.Fatalf("pending = %d", r.co.PendingIntentions())
	}
	r.co.Complete(id)
	if r.co.PendingIntentions() != 0 {
		t.Fatalf("pending after complete = %d", r.co.PendingIntentions())
	}
	st := r.co.Stats()
	if st.Intentions != 1 || st.Completions != 1 || st.Finished != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Double-complete is a no-op.
	r.co.Complete(id)
	if got := r.co.Stats().Completions; got != 1 {
		t.Fatalf("double complete counted: %d", got)
	}
}

// TestProbeFinishesAbandonedRemove: if the µproxy dies after declaring a
// remove intention, the coordinator clears the data itself.
func TestProbeFinishesAbandonedRemove(t *testing.T) {
	r := newRig(t, time.Hour) // probe driven manually
	fh := testFH(7)
	// Victim data on both storage nodes.
	for _, n := range r.nodes {
		if err := n.Store().WriteAt(storage.ObjectOf(fh), 0, []byte("doomed"), true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.co.Intend(OpRemove, fh, 0); err != nil {
		t.Fatal(err)
	}
	// No completion arrives. Drive the probe past the deadline.
	n := r.co.CheckIntentions(time.Now().Add(2 * time.Hour))
	if n != 1 {
		t.Fatalf("CheckIntentions finished %d, want 1", n)
	}
	for i, node := range r.nodes {
		if _, ok := node.Store().Size(storage.ObjectOf(fh)); ok {
			t.Fatalf("node %d still holds the object after probe-driven remove", i)
		}
	}
	if r.co.PendingIntentions() != 0 {
		t.Fatal("intention not cleared after finish")
	}
	if r.co.Stats().Finished != 1 {
		t.Fatalf("stats %+v", r.co.Stats())
	}
}

func TestProbeFinishesAbandonedTruncate(t *testing.T) {
	r := newRig(t, time.Hour)
	fh := testFH(8)
	for _, n := range r.nodes {
		_ = n.Store().WriteAt(storage.ObjectOf(fh), 0, make([]byte, 10000), true)
	}
	if _, err := r.co.Intend(OpTruncate, fh, 100); err != nil {
		t.Fatal(err)
	}
	r.co.CheckIntentions(time.Now().Add(2 * time.Hour))
	for i, node := range r.nodes {
		if size, ok := node.Store().Size(storage.ObjectOf(fh)); ok && size > 100 {
			t.Fatalf("node %d size %d after probe-driven truncate", i, size)
		}
	}
}

// TestProbeFinishesAbandonedCommit: an abandoned commit intention drives
// the storage nodes durable.
func TestProbeFinishesAbandonedCommit(t *testing.T) {
	r := newRig(t, time.Hour)
	fh := testFH(9)
	_ = r.nodes[0].Store().WriteAt(storage.ObjectOf(fh), 0, []byte("unstable"), false)
	if _, err := r.co.Intend(OpCommit, fh, 8); err != nil {
		t.Fatal(err)
	}
	r.co.CheckIntentions(time.Now().Add(2 * time.Hour))
	// After the forced commit, a crash must not lose the data.
	r.nodes[0].Store().Crash()
	buf := make([]byte, 8)
	n, _, err := r.nodes[0].Store().ReadAt(storage.ObjectOf(fh), 0, buf)
	if err != nil || n != 8 {
		t.Fatalf("data lost despite probe-driven commit: n=%d err=%v", n, err)
	}
}

func TestFreshIntentionNotFinishedEarly(t *testing.T) {
	r := newRig(t, time.Hour)
	if _, err := r.co.Intend(OpRemove, testFH(1), 0); err != nil {
		t.Fatal(err)
	}
	if n := r.co.CheckIntentions(time.Now()); n != 0 {
		t.Fatalf("fresh intention finished early (%d)", n)
	}
}

// TestRecoverCompletesInFlight: a restarted coordinator scans its log and
// finishes operations that were in flight at the crash (§3.3.2).
func TestRecoverCompletesInFlight(t *testing.T) {
	r := newRig(t, time.Hour)
	fh := testFH(11)
	for _, n := range r.nodes {
		_ = n.Store().WriteAt(storage.ObjectOf(fh), 0, []byte("zombie"), true)
	}
	done, _ := r.co.Intend(OpRemove, testFH(12), 0)
	r.co.Complete(done)
	if _, err := r.co.Intend(OpRemove, fh, 0); err != nil { // never completed
		t.Fatal(err)
	}

	// Recover into the same coordinator from the durable log.
	log2, err := wal.Open(r.store.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.co.Recover(log2); err != nil {
		t.Fatal(err)
	}
	if r.co.PendingIntentions() != 0 {
		t.Fatalf("pending after recovery = %d", r.co.PendingIntentions())
	}
	for i, node := range r.nodes {
		if _, ok := node.Store().Size(storage.ObjectOf(fh)); ok {
			t.Fatalf("node %d still holds data of recovered remove", i)
		}
	}
}

func TestGetMapStableAndLogged(t *testing.T) {
	r := newRig(t, time.Hour)
	fh := testFH(20)
	m1, err := r.co.GetMap(fh, 0, 8)
	if err != nil || len(m1) != 8 {
		t.Fatalf("GetMap: %v %v", m1, err)
	}
	// Same answer on refetch.
	m2, _ := r.co.GetMap(fh, 0, 8)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("block map changed between fetches")
		}
	}
	// Sub-range fetch matches.
	m3, _ := r.co.GetMap(fh, 4, 2)
	if m3[0] != m1[4] || m3[1] != m1[5] {
		t.Fatal("fragment fetch disagrees with full map")
	}
	// Maps survive coordinator recovery.
	log2, _ := wal.Open(r.store.CrashCopy())
	if err := r.co.Recover(log2); err != nil {
		t.Fatal(err)
	}
	m4, _ := r.co.GetMap(fh, 0, 8)
	for i := range m1 {
		if m1[i] != m4[i] {
			t.Fatal("block map lost in recovery")
		}
	}
}

func TestGetMapSpreadsStripes(t *testing.T) {
	r := newRig(t, time.Hour)
	m, err := r.co.GetMap(testFH(21), 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, s := range m {
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("map allocation used %d sites", len(seen))
	}
}

// ------------------------------------------------------------ RPC surface

func TestCoordinatorRPC(t *testing.T) {
	r := newRig(t, time.Hour)
	fh := testFH(30)

	// Intend over RPC.
	rep, err := r.cli.Call(Program, Version, ProcIntend, func(e *xdr.Encoder) {
		e.PutUint32(OpCommit)
		fh.Encode(e)
		e.PutUint64(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	d := xdr.NewDecoder(rep.Body)
	st, _ := d.Uint32()
	id, _ := d.Uint64()
	if nfsproto.Status(st) != nfsproto.OK || id == 0 {
		t.Fatalf("intend rpc: %v id=%d", nfsproto.Status(st), id)
	}

	// Complete over RPC.
	rep, err = r.cli.Call(Program, Version, ProcComplete, func(e *xdr.Encoder) {
		e.PutUint64(id)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	if r.co.PendingIntentions() != 0 {
		t.Fatal("intention survives RPC complete")
	}

	// GetMap over RPC.
	rep, err = r.cli.Call(Program, Version, ProcGetMap, func(e *xdr.Encoder) {
		fh.Encode(e)
		e.PutUint64(0)
		e.PutUint32(4)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	d = xdr.NewDecoder(rep.Body)
	st, _ = d.Uint32()
	n, _ := d.Uint32()
	if nfsproto.Status(st) != nfsproto.OK || n != 4 {
		t.Fatalf("getmap rpc: %v n=%d", nfsproto.Status(st), n)
	}
}

// ---------------------------------------------------- failure-path fixes

// slowSyncStore stalls every durability sync, simulating a slow or hung
// log device.
type slowSyncStore struct {
	*wal.MemStore
	delay time.Duration
}

func (s *slowSyncStore) Sync() error {
	time.Sleep(s.delay)
	return s.MemStore.Sync()
}

// TestConcurrentIntentionsProgressWithSlowLog is the regression test for
// the lock-over-sync bug: Intend used to hold c.mu across the log's
// durability sync, so one slow sync serialized every coordinator RPC and
// even Stats/PendingIntentions. Now concurrent intentions group-commit:
// N concurrent Intends must finish in a small multiple of ONE sync delay,
// not N of them, and the read paths must answer while syncs are stuck.
func TestConcurrentIntentionsProgressWithSlowLog(t *testing.T) {
	const delay = 100 * time.Millisecond
	net := netsim.New(netsim.Config{})
	sport, err := net.Bind(netsim.Addr{Host: 10, Port: 2049})
	if err != nil {
		t.Fatal(err)
	}
	node := storage.NewNode(sport, storage.NewObjectStore())
	defer node.Close()
	cport, err := net.Bind(netsim.Addr{Host: 90, Port: 3049})
	if err != nil {
		t.Fatal(err)
	}
	store := &slowSyncStore{MemStore: wal.NewMemStore(), delay: delay}
	log, err := wal.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	co := New(cport, Config{
		Log:        log,
		Storage:    route.NewTable(4, []netsim.Addr{sport.Addr()}),
		Net:        net,
		Host:       90,
		ProbeAfter: time.Hour,
	})
	defer co.Close()

	const callers = 8
	start := time.Now()
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i uint64) {
			_, err := co.Intend(OpRemove, testFH(100+i), 0)
			errs <- err
		}(uint64(i))
	}

	// While the intentions are (at most two sync windows) in flight, the
	// read-only surface must stay responsive.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		_ = co.Stats()
		_ = co.PendingIntentions()
	}()
	select {
	case <-readDone:
	case <-time.After(delay / 2):
		t.Fatal("Stats/PendingIntentions blocked behind a slow log sync")
	}

	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// Serialized behaviour would need callers*delay (800ms). Group commit
	// needs the leader's sync plus at most one follower batch.
	if elapsed > 4*delay {
		t.Fatalf("%d concurrent intentions took %v; want ~<=%v (group commit)", callers, elapsed, 3*delay)
	}
	if co.PendingIntentions() != callers {
		t.Fatalf("pending = %d, want %d", co.PendingIntentions(), callers)
	}
}

// TestRestartServesAfterRecovery: Restart rebuilds state and finishes
// in-flight operations BEFORE serving, so a caller that reaches the new
// incarnation can never observe pre-recovery state, and new intention ids
// never collide with recovered ones.
func TestRestartServesAfterRecovery(t *testing.T) {
	r := newRig(t, time.Hour)
	fh := testFH(40)
	for _, n := range r.nodes {
		_ = n.Store().WriteAt(storage.ObjectOf(fh), 0, []byte("zombie"), true)
	}
	oldID, err := r.co.Intend(OpRemove, fh, 0) // never completed
	if err != nil {
		t.Fatal(err)
	}
	r.co.Close()

	log2, err := wal.Open(r.store.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	port2, err := r.net.Bind(netsim.Addr{Host: 91, Port: 3049})
	if err != nil {
		t.Fatal(err)
	}
	co2, err := Restart(port2, Config{
		Storage:    route.NewTable(4, []netsim.Addr{r.nodes[0].Addr(), r.nodes[1].Addr()}),
		Net:        r.net,
		Host:       91,
		ProbeAfter: time.Hour,
	}, log2)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()

	if co2.PendingIntentions() != 0 {
		t.Fatalf("pending after Restart = %d", co2.PendingIntentions())
	}
	for i, node := range r.nodes {
		if _, ok := node.Store().Size(storage.ObjectOf(fh)); ok {
			t.Fatalf("node %d still holds data of interrupted remove", i)
		}
	}
	newID, err := co2.Intend(OpCommit, testFH(41), 0)
	if err != nil {
		t.Fatal(err)
	}
	if newID <= oldID {
		t.Fatalf("restarted coordinator reused intention id space: new %d <= old %d", newID, oldID)
	}
}
