package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/oncrpc"
	"slice/internal/udpgate"
	"slice/internal/wire"
)

// TestSlicedFleetSmoke starts a two-member fleet with UDP and TCP
// endpoints and, through every endpoint, mounts the volume, writes a
// file and reads it back. Member i's UDP gateway must serve member i's
// virtual address.
func TestSlicedFleetSmoke(t *testing.T) {
	var banner bytes.Buffer
	d, err := start([]string{"-proxies", "2", "-listen", "127.0.0.1:0", "-tcp", "127.0.0.1:0", "-stats", "0"}, &banner)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.udp) != 2 || len(d.e.Gateways) != 2 {
		t.Fatalf("%d UDP and %d TCP endpoints, want 2 of each", len(d.udp), len(d.e.Gateways))
	}
	for i, gw := range d.udp {
		if !strings.Contains(banner.String(), gw.Addr().String()) {
			t.Errorf("banner does not list member %d's UDP endpoint %v:\n%s", i, gw.Addr(), banner.String())
		}
	}

	type endpoint struct {
		name   string
		member int
		dial   func() (oncrpc.Conn, error)
		stats  func() wire.Stats
	}
	var eps []endpoint
	for i, gw := range d.udp {
		addr := gw.Addr().String()
		eps = append(eps, endpoint{fmt.Sprintf("udp%d", i), i, func() (oncrpc.Conn, error) { return udpgate.Dial(addr) }, gw.Stats})
	}
	for i, gw := range d.e.Gateways {
		addr := gw.Addr().String()
		eps = append(eps, endpoint{fmt.Sprintf("tcp%d", i), i, func() (oncrpc.Conn, error) { return wire.Dial(addr) }, gw.Stats})
	}
	for _, ep := range eps {
		conn, err := ep.dial()
		if err != nil {
			t.Fatalf("%s: dial: %v", ep.name, err)
		}
		cl := client.NewWithConn(conn, client.Config{Server: d.e.VirtualOf(ep.member)})
		if err := cl.Mount(); err != nil {
			t.Fatalf("%s: mount: %v", ep.name, err)
		}
		fh, _, err := cl.Create(cl.Root(), ep.name, 0o644, true)
		if err != nil {
			t.Fatalf("%s: create: %v", ep.name, err)
		}
		want := bytes.Repeat([]byte(ep.name), 20000)
		if err := cl.WriteFile(fh, want); err != nil {
			t.Fatalf("%s: write: %v", ep.name, err)
		}
		got, err := cl.ReadAll(fh)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: read back %d of %d bytes, err %v", ep.name, len(got), len(want), err)
		}
		cl.Close()
		// A reply is counted just after it is written, so the last one
		// may still be uncounted when the read returns.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			st := ep.stats()
			if st.RxBytes >= uint64(len(want)) && st.TxBytes >= uint64(len(want)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: gateway relayed %d B in, %d B out; want >= %d each way", ep.name, st.RxBytes, st.TxBytes, len(want))
			}
		}
	}

	// The stats dump names every member and the buffer pool.
	var out bytes.Buffer
	d.printStats(&out)
	for _, want := range []string{"[µproxy#0]", "[µproxy#1]", "udpgate[1]", "wire[1]", "[bufpool]"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats dump lacks %q", want)
		}
	}
}
