package replica

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"

	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// The replica-peer RPC program: storage nodes serve it to their group
// siblings so a member restarting with an empty store can pull every
// object back from a survivor BEFORE it binds its service port —
// rebuilding a replica is a peer-to-peer bulk transfer, invisible to
// clients and the µproxy alike.
const (
	PeerProgram = 200102
	PeerVersion = 1

	PeerProcList     = 1 // token u64, after u64, max u32 -> status, n, n×(id u64, size u64)
	PeerProcRead     = 2 // token u64, id u64, off u64, count u32 -> status, opaque data
	PeerProcWrite    = 3 // token u64, id u64, off u64, opaque data -> status (durable write)
	PeerProcRemove   = 4 // token u64, id u64 -> status
	PeerProcTruncate = 5 // token u64, id u64, size u64 -> status (creates if absent)
)

// Peer-program status codes (the program is internal; NFS statuses
// would only obscure it).
const (
	PeerOK     = 0
	PeerDenied = 1
	PeerNoObj  = 2
)

// PeerListMax bounds one PeerProcList page.
const PeerListMax = 512

// PeerChunk is the PeerProcRead transfer unit.
const PeerChunk = 32 * 1024

// PeerToken derives the peer-program bearer token from the array's
// capability key. Nodes outside the trust boundary never see the key,
// so they cannot list or read raw objects; a nil key (trusted-network
// mode) makes the token zero and nodes accept any.
func PeerToken(key []byte) uint64 {
	if len(key) == 0 {
		return 0
	}
	sum := md5.Sum(append(append([]byte(nil), key...), "replica-peer"...))
	return binary.BigEndian.Uint64(sum[:8])
}

// ResyncStats reports what one Resync transferred.
type ResyncStats struct {
	Objects int
	Bytes   int64
}

// ResyncTarget is the store a resync fills: stable writes only, sized
// exactly. (An interface, not *storage.ObjectStore: storage serves the
// peer program and so imports this package.)
type ResyncTarget interface {
	// Truncate creates the object if needed and sets its exact size.
	Truncate(id uint64, size uint64) error
	// WriteAt writes a durable chunk at off.
	WriteAt(id uint64, off uint64, p []byte) error
}

// Resync pulls every object a peer holds into dst: page through
// PeerProcList, size each object with Truncate (so zero-length objects
// and sparse tails come back too), then fetch its bytes in PeerChunk
// reads pipelined through the async call window — the same
// CallStart/Await machinery the client's bulk engine rides, reused here
// between storage peers. window bounds the in-flight reads.
func Resync(c *oncrpc.Client, token uint64, window int, dst ResyncTarget) (ResyncStats, error) {
	var st ResyncStats
	if window < 1 {
		window = 1
	}
	type chunk struct {
		pd  *oncrpc.Pending
		id  uint64
		off uint64
	}
	inflight := make([]chunk, 0, window)
	// A failed resync still awaits the reads it started, freeing their
	// replies: each Pending is awaited once, and its reply released.
	defer func() {
		for _, ck := range inflight {
			rep, _ := ck.pd.Await()
			rep.Release()
		}
	}()
	// store writes one awaited chunk into dst.
	store := func(ck chunk) error {
		rep, err := ck.pd.Await()
		if err != nil {
			return fmt.Errorf("replica: resync read obj %d @%d: %w", ck.id, ck.off, err)
		}
		defer rep.Release()
		d := xdr.NewDecoder(rep.Body)
		status, err := d.Uint32()
		if err != nil {
			return err
		}
		if status == PeerNoObj {
			// Removed under us; the remove also fanned out here.
			return nil
		}
		if status != PeerOK {
			return fmt.Errorf("replica: resync read obj %d: peer status %d", ck.id, status)
		}
		data, err := d.Opaque()
		if err != nil || len(data) == 0 {
			return err
		}
		if err := dst.WriteAt(ck.id, ck.off, data); err != nil {
			return err
		}
		st.Bytes += int64(len(data))
		return nil
	}
	drain := func(min int) error {
		for len(inflight) > min {
			ck := inflight[0]
			inflight = inflight[1:]
			if err := store(ck); err != nil {
				return err
			}
		}
		return nil
	}

	// page lists the objects after the cursor, sizes each one and starts
	// reading its bytes. It returns how many objects the page held.
	after := uint64(0)
	page := func() (uint32, error) {
		rep, err := c.Call(PeerProgram, PeerVersion, PeerProcList, func(e *xdr.Encoder) {
			e.PutUint64(token)
			e.PutUint64(after)
			e.PutUint32(PeerListMax)
		})
		if err != nil {
			return 0, fmt.Errorf("replica: resync list: %w", err)
		}
		defer rep.Release()
		d := xdr.NewDecoder(rep.Body)
		status, err := d.Uint32()
		if err != nil {
			return 0, err
		}
		if status != PeerOK {
			return 0, fmt.Errorf("replica: resync list: peer status %d", status)
		}
		n, err := d.Uint32()
		if err != nil {
			return 0, err
		}
		for i := uint32(0); i < n; i++ {
			id, err := d.Uint64()
			if err != nil {
				return 0, err
			}
			size, err := d.Uint64()
			if err != nil {
				return 0, err
			}
			after = id
			if err := dst.Truncate(id, size); err != nil {
				return 0, err
			}
			st.Objects++
			for off := uint64(0); off < size; off += PeerChunk {
				count := uint32(PeerChunk)
				if size-off < uint64(count) {
					count = uint32(size - off)
				}
				if err := drain(window - 1); err != nil {
					return 0, err
				}
				id, off := id, off
				pd := c.CallStart(PeerProgram, PeerVersion, PeerProcRead, func(e *xdr.Encoder) {
					e.PutUint64(token)
					e.PutUint64(id)
					e.PutUint64(off)
					e.PutUint32(count)
				})
				inflight = append(inflight, chunk{pd: pd, id: id, off: off})
			}
		}
		return n, nil
	}
	for {
		n, err := page()
		if err != nil {
			return st, err
		}
		if n < PeerListMax {
			break
		}
	}
	return st, drain(0)
}
