package wire_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"slice/internal/chaos"
	"slice/internal/client"
	"slice/internal/dirsrv"
	"slice/internal/ensemble"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/wire"
	"slice/internal/xdr"
)

// TestWireConformance is the loopback conformance run of the acceptance
// criteria: a client that only speaks record-marked ONC-RPC over real
// TCP sockets discovers the service through the portmapper, MNTs the
// export, and runs NFSv3 READ/WRITE and an untar through the interposed
// µproxy — ending fsck-clean with byte-identical data, with individual
// records bigger than the old 96 KiB datagram cap.
func TestWireConformance(t *testing.T) {
	const stripe = 128 * 1024
	e, err := ensemble.New(ensemble.Config{
		StorageNodes:     4,
		DirServers:       2,
		SmallFileServers: 1,
		Coordinator:      true,
		StripeUnit:       stripe,
		TCPListen:        "127.0.0.1:0",
		PortmapListen:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gwAddr := e.Gateways[0].Addr().String()

	// Discovery: both programs answer GETPORT with gateway 0's port and
	// DUMP lists them.
	pmAddr := e.Portmap.Addr().String()
	for _, q := range []struct {
		name       string
		prog, vers uint32
	}{
		{"nfs", nfsproto.Program, nfsproto.Version},
		{"mount", nfsproto.MountProgram, nfsproto.MountVersion},
	} {
		port, err := wire.GetPort(pmAddr, q.prog, q.vers, nfsproto.IPProtoTCP)
		if err != nil {
			t.Fatalf("GETPORT %s: %v", q.name, err)
		}
		if port != e.Gateways[0].Port() {
			t.Fatalf("GETPORT %s = %d, want gateway port %d", q.name, port, e.Gateways[0].Port())
		}
	}
	maps, err := wire.Dump(pmAddr)
	if err != nil || len(maps) != 2 {
		t.Fatalf("DUMP: %d mappings, %v (want 2)", len(maps), err)
	}

	// MOUNT protocol proper: EXPORT lists the volume, MNT with the
	// advertised dirpath yields the root handle, a bogus path is
	// refused. All over one record-marked TCP connection.
	mconn, err := wire.Dial(gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	mnt := oncrpc.NewClient(mconn, e.Virtual, oncrpc.ClientConfig{})
	defer mnt.Close()

	rep, err := mnt.Call(nfsproto.MountProgram, nfsproto.MountVersion,
		nfsproto.MountProcExport, nil)
	if err != nil {
		t.Fatalf("EXPORT: %v", err)
	}
	defer rep.Release()
	var exp nfsproto.ExportRes
	if err := exp.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		t.Fatalf("EXPORT decode: %v", err)
	}
	if len(exp.Entries) != 1 || exp.Entries[0].Dir != dirsrv.ExportPath {
		t.Fatalf("EXPORT = %+v, want [%s]", exp.Entries, dirsrv.ExportPath)
	}

	rep, err = mnt.Call(nfsproto.MountProgram, nfsproto.MountVersion,
		nfsproto.MountProcMnt, (&nfsproto.MountPathArgs{Path: dirsrv.ExportPath}).Encode)
	if err != nil {
		t.Fatalf("MNT: %v", err)
	}
	defer rep.Release()
	var mres nfsproto.MountMntRes
	if err := mres.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		t.Fatalf("MNT decode: %v", err)
	}
	if mres.Status != nfsproto.OK {
		t.Fatalf("MNT status = %v", mres.Status)
	}
	if mres.FH != e.Root {
		t.Fatalf("MNT handle %v != export root %v", mres.FH, e.Root)
	}
	rep, err = mnt.Call(nfsproto.MountProgram, nfsproto.MountVersion,
		nfsproto.MountProcMnt, (&nfsproto.MountPathArgs{Path: "/no/such/export"}).Encode)
	if err != nil {
		t.Fatalf("MNT bogus path: %v", err)
	}
	defer rep.Release()
	var bogus nfsproto.MountMntRes
	if err := bogus.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		t.Fatalf("MNT bogus decode: %v", err)
	}
	if bogus.Status == nfsproto.OK {
		t.Fatal("MNT accepted a path outside the export list")
	}
	rep, err = mnt.Call(nfsproto.MountProgram, nfsproto.MountVersion,
		nfsproto.MountProcUmnt, (&nfsproto.MountPathArgs{Path: dirsrv.ExportPath}).Encode)
	if err != nil {
		t.Fatalf("UMNT: %v", err)
	}
	rep.Release()

	// NFSv3 session over the same transport: untar a tree, then write a
	// file whose 128 KiB stripe chunks force records past the old cap.
	conn, err := wire.Dial(gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewWithConn(conn, client.Config{Server: e.Virtual, StripeUnit: stripe})
	defer c.Close()
	if err := c.Mount(); err != nil {
		t.Fatalf("mount over TCP: %v", err)
	}

	ents, err := chaos.Untar(c, c.Root(), chaos.UntarConfig{Dirs: 4, Files: 12})
	if err != nil {
		t.Fatalf("untar over TCP: %v", err)
	}
	if len(ents) != 16 {
		t.Fatalf("untar acked %d entries, want 16", len(ents))
	}

	fh, _, err := c.Create(c.Root(), "wire-bulk", 0o644, true)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := make([]byte, 512*1024)
	for i := range payload {
		payload[i] = byte(i>>8 + i)
	}
	if err := c.WriteFile(fh, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := c.ReadAll(fh)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, err %v", len(got), err)
	}
	chaos.VerifyBytes(t, e, c, fh, payload)
	chaos.FsckClean(t, e)

	// The headline property: single records through the gateway were
	// bigger than the 96 KiB that used to bound every datagram.
	st := e.Gateways[0].Stats()
	const oldCap = 96 * 1024
	if st.MaxRxRecord <= oldCap {
		t.Fatalf("MaxRxRecord = %d, want > %d", st.MaxRxRecord, oldCap)
	}
	if st.MaxTxRecord <= oldCap {
		t.Fatalf("MaxTxRecord = %d, want > %d", st.MaxTxRecord, oldCap)
	}
	if st.RxRecords == 0 || st.TxRecords == 0 || st.TotalConns == 0 {
		t.Fatalf("gateway stats incomplete: %+v", st)
	}
}

// TestWireFleetGateways exercises the per-member gateways of a scaled
// fleet: each member listens on its own derived port and serves its own
// virtual address.
func TestWireFleetGateways(t *testing.T) {
	e, err := ensemble.New(ensemble.Config{
		StorageNodes: 2,
		DirServers:   1,
		Proxies:      3,
		TCPListen:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(e.Gateways) != 3 {
		t.Fatalf("%d gateways, want 3", len(e.Gateways))
	}
	seen := map[uint32]bool{}
	for i, gw := range e.Gateways {
		if p := gw.Port(); p == 0 || seen[p] {
			t.Fatalf("gateway %d port %d duplicated or zero", i, p)
		} else {
			seen[p] = true
		}
	}
	// A session against every member's gateway sees the same volume.
	var fh0 string
	for i, gw := range e.Gateways {
		conn, err := wire.Dial(gw.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := client.NewWithConn(conn, client.Config{Server: e.VirtualOf(i)})
		if err := c.Mount(); err != nil {
			t.Fatalf("mount via member %d: %v", i, err)
		}
		name := fmt.Sprintf("via-%d", i)
		if _, _, err := c.Create(c.Root(), name, 0o644, true); err != nil {
			t.Fatalf("create via member %d: %v", i, err)
		}
		if fh0 == "" {
			fh0 = name
		}
		c.Close()
	}
	// All files are visible through member 0 again.
	conn, err := wire.Dial(e.Gateways[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewWithConn(conn, client.Config{Server: e.Virtual})
	defer c.Close()
	if err := c.Mount(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := c.ReadDir(c.Root())
		if err == nil && len(ents) == len(e.Gateways) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readdir: %d entries, %v (want %d)", len(ents), err, len(e.Gateways))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
