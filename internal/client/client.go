// Package client implements the Slice NFS client stack used by the
// examples, workloads, and tests.
//
// The client is deliberately ordinary: it speaks the plain NFS-style
// protocol to a single (virtual) server address, retransmits on timeout,
// and knows nothing about the ensemble behind the µproxy — that is the
// compatibility the interposed architecture preserves (§1). The one
// concession is mechanical: I/O is split so no single transfer crosses a
// stripe-unit or threshold boundary, matching how the prototype's 32KB NFS
// block size aligned with the µproxy's stripe unit.
//
// Bulk I/O is pipelined: Read and Write keep a bounded window of chunk
// RPCs in flight across the storage array (sequential readahead on the
// read side, write-behind with sub-stripe-unit coalescing on the write
// side), so aggregate bandwidth scales with array width instead of being
// bound by one round trip at a time. See bulk.go. Window ≤ 1 selects the
// fully serial path.
package client

import (
	"fmt"
	"sync"
	"sync/atomic"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/front"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/xdr"
)

// mount protocol constants (shared with dirsrv).
const (
	mountProgram = 100005
	mountVersion = 3
	mountProcMnt = 1
)

// Config configures a client.
type Config struct {
	// Net is the fabric; Host is this client's host address.
	Net  *netsim.Network
	Host uint32
	// Server is the (virtual) NFS server address.
	Server netsim.Addr
	// BlockSize is the maximum bytes per READ/WRITE (default: the stripe
	// unit).
	BlockSize uint32
	// Threshold and StripeUnit are the I/O split boundaries; defaults
	// match route defaults.
	Threshold  uint64
	StripeUnit uint64
	// RPC tunes timeouts and retries.
	RPC oncrpc.ClientConfig
	// Window bounds the number of chunk RPCs kept in flight by bulk
	// Read/Write. 0 means DefaultWindow; 1 or negative selects the fully
	// serial path (one chunk round trip at a time). Size it to stripe
	// width × per-node queue depth (route.IOPolicy.WindowFor).
	Window int
	// Readahead bounds sequential read prefetch, in chunks beyond the
	// current request. 0 means the window depth; negative disables
	// readahead.
	Readahead int
	// Obs, when set, receives window-occupancy and per-chunk-latency
	// histograms for the bulk path.
	Obs *obs.Registry
	// Fleet, when set, routes each call to the µproxy owning its flow
	// (consistent hash of this client's address and the file handle),
	// re-resolving before every transmission: if that proxy dies and
	// the fleet table swaps, the next retransmission of an in-flight
	// call lands on the flow's new owner. Server then only names the
	// fallback for an empty fleet. The client stays protocol-ordinary —
	// the fleet is just an address book consulted at send time.
	Fleet *front.Ring
}

// DefaultWindow is the bulk-I/O window depth when Config.Window is 0.
const DefaultWindow = 8

// Client is a Slice NFS client bound to one server address.
//
// A Client may be shared by concurrent goroutines for calls on distinct
// files; bulk operations on the same file must be externally ordered
// (the write-behind and readahead state assume one stream per file).
type Client struct {
	cfg  Config
	rpc  *oncrpc.Client
	root fhandle.Handle
	self netsim.Addr // this client's bound address, half of every flow key

	// Bulk-I/O engine state (bulk.go). win is the window semaphore; a
	// slot is held for the duration of each in-flight chunk RPC.
	win     chan struct{}
	occ     atomic.Int64 // current window occupancy, sampled into winHist
	winHist *obs.Histogram
	readNS  *obs.Histogram
	writeNS *obs.Histogram

	bulkMu  sync.Mutex
	bulkCnd *sync.Cond
	files   map[fhandle.Key]*fileIO // files with write-behind state
	tail    *writeTail              // buffered sequential write tail
	ra      raState                 // sequential readahead cache
}

// New creates a client on the netsim fabric. Call Mount before file
// operations.
func New(cfg Config) (*Client, error) {
	port, err := cfg.Net.BindAny(cfg.Host)
	if err != nil {
		return nil, err
	}
	return NewWithConn(port, cfg), nil
}

// NewWithConn creates a client over an existing datagram endpoint — e.g.
// a udpgate connection to a remote ensemble.
func NewWithConn(conn oncrpc.Conn, cfg Config) *Client {
	if cfg.StripeUnit == 0 {
		cfg.StripeUnit = route.DefaultStripeUnit
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = route.DefaultThreshold
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = uint32(cfg.StripeUnit)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Readahead == 0 {
		cfg.Readahead = cfg.Window
	}
	if cfg.Fleet != nil && cfg.RPC.ResolveKey == nil {
		cfg.RPC.ResolveKey = cfg.Fleet.Resolve
	}
	c := &Client{
		cfg:  cfg,
		self: conn.Addr(),
		rpc:  oncrpc.NewClient(conn, cfg.Server, cfg.RPC),
	}
	c.bulkCnd = sync.NewCond(&c.bulkMu)
	c.files = make(map[fhandle.Key]*fileIO)
	if cfg.Window > 1 {
		c.win = make(chan struct{}, cfg.Window)
	}
	if cfg.Obs != nil {
		c.winHist = cfg.Obs.Hist(obs.HistBulkWindow)
		c.readNS = cfg.Obs.Hist(obs.HistBulkReadChunk)
		c.writeNS = cfg.Obs.Hist(obs.HistBulkWriteChunk)
	}
	return c
}

// Close drains outstanding write-behind traffic (best effort) and
// releases the client's port.
func (c *Client) Close() {
	if c.windowed() {
		c.drainAll()
	}
	c.rpc.Close()
}

// Retransmissions exposes the RPC retransmission count for tests.
func (c *Client) Retransmissions() uint64 { return c.rpc.Retransmissions() }

// flowKey identifies the (client, file) flow of a call against fh, the
// unit of µproxy affinity: all of one flow's calls resolve to one proxy,
// so its soft state sees the whole stream. Handle-less traffic (MOUNT,
// NULL) keys on the zero handle — its own flow, owned like any other.
func (c *Client) flowKey(fh fhandle.Handle) uint64 {
	if c.cfg.Fleet == nil {
		return 0
	}
	return front.FlowKey(c.self, fhandle.HandleKey(fh))
}

// call issues one NFS procedure against fh and decodes the reply. fh is
// the handle the operation targets (the directory for namespace ops);
// it keys the flow that picks the owning µproxy. Decoded results must
// not alias the reply (READ data does; see callReply).
func (c *Client) call(fh fhandle.Handle, proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg) error {
	rep, err := c.callReply(fh, proc, args, res)
	rep.Release()
	return err
}

// callReply is call for results that alias the reply body: it returns
// the reply, which the caller releases once done with res.
func (c *Client) callReply(fh fhandle.Handle, proc nfsproto.Proc, args nfsproto.Msg, res nfsproto.Msg) (oncrpc.Reply, error) {
	var enc func(*xdr.Encoder)
	if args != nil {
		enc = args.Encode
	}
	rep, err := c.rpc.CallKeyed(c.flowKey(fh), nfsproto.Program, nfsproto.Version, uint32(proc), enc)
	if err != nil || res == nil {
		return rep, err
	}
	if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		rep.Release()
		return oncrpc.Reply{}, err
	}
	return rep, nil
}

// Mount retrieves the volume root handle.
func (c *Client) Mount() error {
	rep, err := c.rpc.CallKeyed(c.flowKey(fhandle.Handle{}), mountProgram, mountVersion, mountProcMnt, nil)
	if err != nil {
		return err
	}
	defer rep.Release()
	d := xdr.NewDecoder(rep.Body)
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	if s := nfsproto.Status(st); s != nfsproto.OK {
		return fmt.Errorf("client: mount failed: %w", s.Error())
	}
	c.root, err = fhandle.Decode(d)
	return err
}

// Root returns the mounted volume root.
func (c *Client) Root() fhandle.Handle { return c.root }

// Null issues the NULL procedure (a ping).
func (c *Client) Null() error {
	return c.call(fhandle.Handle{}, nfsproto.ProcNull, nil, nil)
}

// GetAttr fetches the attributes of fh.
func (c *Client) GetAttr(fh fhandle.Handle) (attr.Attr, error) {
	if c.windowed() {
		// Buffered write-behind extends the file; attributes must
		// reflect every write already accepted.
		if err := c.drainFile(fh); err != nil {
			return attr.Attr{}, err
		}
	}
	var res nfsproto.GetAttrRes
	if err := c.call(fh, nfsproto.ProcGetAttr, &nfsproto.GetAttrArgs{FH: fh}, &res); err != nil {
		return attr.Attr{}, err
	}
	return res.Attr, res.Status.Error()
}

// SetAttr applies a partial attribute update.
func (c *Client) SetAttr(fh fhandle.Handle, sa attr.SetAttr) (attr.Attr, error) {
	if c.windowed() {
		if err := c.drainFile(fh); err != nil {
			return attr.Attr{}, err
		}
		c.invalidateRA(fh.Ident())
	}
	var res nfsproto.SetAttrRes
	if err := c.call(fh, nfsproto.ProcSetAttr, &nfsproto.SetAttrArgs{FH: fh, Sattr: sa}, &res); err != nil {
		return attr.Attr{}, err
	}
	return res.Attr.Attr, res.Status.Error()
}

// Truncate sets the file size.
func (c *Client) Truncate(fh fhandle.Handle, size uint64) error {
	_, err := c.SetAttr(fh, attr.SetAttr{SetSize: true, Size: size})
	return err
}

// Access checks permissions (the prototype grants all requested bits).
func (c *Client) Access(fh fhandle.Handle, mask uint32) (uint32, error) {
	var res nfsproto.AccessRes
	if err := c.call(fh, nfsproto.ProcAccess, &nfsproto.AccessArgs{FH: fh, Access: mask}, &res); err != nil {
		return 0, err
	}
	return res.Access, res.Status.Error()
}

// Lookup resolves name within dir.
func (c *Client) Lookup(dir fhandle.Handle, name string) (fhandle.Handle, attr.Attr, error) {
	var res nfsproto.LookupRes
	if err := c.call(dir, nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: dir, Name: name}, &res); err != nil {
		return fhandle.Handle{}, attr.Attr{}, err
	}
	return res.FH, res.Attr.Attr, res.Status.Error()
}

// Create makes a regular file.
func (c *Client) Create(dir fhandle.Handle, name string, mode uint32, exclusive bool) (fhandle.Handle, attr.Attr, error) {
	args := nfsproto.CreateArgs{
		Dir: dir, Name: name, Exclusive: exclusive,
		Sattr: attr.SetAttr{SetMode: true, Mode: mode},
	}
	var res nfsproto.CreateRes
	if err := c.call(dir, nfsproto.ProcCreate, &args, &res); err != nil {
		return fhandle.Handle{}, attr.Attr{}, err
	}
	return res.FH, res.Attr.Attr, res.Status.Error()
}

// Mkdir makes a directory.
func (c *Client) Mkdir(dir fhandle.Handle, name string, mode uint32) (fhandle.Handle, attr.Attr, error) {
	args := nfsproto.CreateArgs{
		Dir: dir, Name: name,
		Sattr: attr.SetAttr{SetMode: true, Mode: mode},
	}
	var res nfsproto.CreateRes
	if err := c.call(dir, nfsproto.ProcMkdir, &args, &res); err != nil {
		return fhandle.Handle{}, attr.Attr{}, err
	}
	return res.FH, res.Attr.Attr, res.Status.Error()
}

// Remove unlinks a file. Namespace changes are identified by (dir, name)
// rather than file handle, so the windowed path conservatively drains all
// write-behind traffic and drops the readahead cache first.
func (c *Client) Remove(dir fhandle.Handle, name string) error {
	if c.windowed() {
		if err := c.drainAll(); err != nil {
			return err
		}
	}
	var res nfsproto.RemoveRes
	if err := c.call(dir, nfsproto.ProcRemove, &nfsproto.RemoveArgs{Dir: dir, Name: name}, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(dir fhandle.Handle, name string) error {
	var res nfsproto.RemoveRes
	if err := c.call(dir, nfsproto.ProcRmdir, &nfsproto.RemoveArgs{Dir: dir, Name: name}, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// Rename moves an entry. Like Remove it drains the window first.
func (c *Client) Rename(fromDir fhandle.Handle, fromName string, toDir fhandle.Handle, toName string) error {
	if c.windowed() {
		if err := c.drainAll(); err != nil {
			return err
		}
	}
	args := nfsproto.RenameArgs{FromDir: fromDir, FromName: fromName, ToDir: toDir, ToName: toName}
	var res nfsproto.RenameRes
	if err := c.call(fromDir, nfsproto.ProcRename, &args, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// Link creates a hard link to fh named name in dir.
func (c *Client) Link(fh, dir fhandle.Handle, name string) error {
	var res nfsproto.LinkRes
	if err := c.call(fh, nfsproto.ProcLink, &nfsproto.LinkArgs{FH: fh, Dir: dir, Name: name}, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// ReadDir returns all entries of dir, following cookies.
func (c *Client) ReadDir(dir fhandle.Handle) ([]nfsproto.DirEntry, error) {
	var out []nfsproto.DirEntry
	var cookie uint64
	for {
		var res nfsproto.ReadDirRes
		err := c.call(dir, nfsproto.ProcReadDir, &nfsproto.ReadDirArgs{
			Dir: dir, Cookie: cookie, Count: 32 * 1024,
		}, &res)
		if err != nil {
			return out, err
		}
		if res.Status != nfsproto.OK {
			return out, res.Status.Error()
		}
		out = append(out, res.Entries...)
		if res.EOF || len(res.Entries) == 0 {
			return out, nil
		}
		cookie = res.Entries[len(res.Entries)-1].Cookie
	}
}

// FsStat returns volume statistics.
func (c *Client) FsStat(fh fhandle.Handle) (nfsproto.FsStatRes, error) {
	var res nfsproto.FsStatRes
	if err := c.call(fh, nfsproto.ProcFsStat, &nfsproto.FsStatArgs{FH: fh}, &res); err != nil {
		return res, err
	}
	return res, res.Status.Error()
}

// chunkEnd returns the end of the I/O chunk starting at off: transfers
// never cross a stripe-unit or threshold boundary, and never exceed the
// block size.
func (c *Client) chunkEnd(off uint64) uint64 {
	end := off + uint64(c.cfg.BlockSize)
	if b := (off/c.cfg.StripeUnit + 1) * c.cfg.StripeUnit; b < end {
		end = b
	}
	if off < c.cfg.Threshold && c.cfg.Threshold < end {
		end = c.cfg.Threshold
	}
	return end
}

// Read fills p from fh starting at off. It returns the bytes read and
// whether end of file was reached.
func (c *Client) Read(fh fhandle.Handle, off uint64, p []byte) (int, bool, error) {
	if c.windowed() {
		return c.windowedRead(fh, off, p)
	}
	return c.serialRead(fh, off, p)
}

// serialRead is the one-chunk-at-a-time read loop; the windowed path
// must stay byte-exact with it.
func (c *Client) serialRead(fh fhandle.Handle, off uint64, p []byte) (int, bool, error) {
	read := 0
	for read < len(p) {
		cur := off + uint64(read)
		end := c.chunkEnd(cur)
		want := uint32(end - cur)
		if rem := uint32(len(p) - read); rem < want {
			want = rem
		}
		var res nfsproto.ReadRes
		rep, err := c.callReply(fh, nfsproto.ProcRead, &nfsproto.ReadArgs{FH: fh, Offset: cur, Count: want}, &res)
		if err != nil {
			return read, false, err
		}
		n := copy(p[read:], res.Data)
		rep.Release()
		if res.Status != nfsproto.OK {
			return read, false, res.Status.Error()
		}
		read += n
		if res.EOF || n == 0 {
			return read, true, nil
		}
	}
	return read, false, nil
}

// Write stores p at off. stable selects FILE_SYNC semantics per chunk.
//
// On the windowed path, unstable writes are asynchronous (write-behind):
// a successful return means the bytes are buffered or in flight, and a
// chunk failure is reported by a later Write, Commit, or drain on the
// same file — the NFSv3 deferred-error model.
func (c *Client) Write(fh fhandle.Handle, off uint64, p []byte, stable bool) (int, error) {
	if c.windowed() {
		return c.windowedWrite(fh, off, p, stable)
	}
	return c.serialWrite(fh, off, p, stable)
}

// serialWrite is the one-chunk-at-a-time write loop.
func (c *Client) serialWrite(fh fhandle.Handle, off uint64, p []byte, stable bool) (int, error) {
	written := 0
	stability := uint32(nfsproto.Unstable)
	if stable {
		stability = nfsproto.FileSync
	}
	for written < len(p) {
		cur := off + uint64(written)
		end := c.chunkEnd(cur)
		want := int(end - cur)
		if rem := len(p) - written; rem < want {
			want = rem
		}
		args := nfsproto.WriteArgs{
			FH: fh, Offset: cur, Count: uint32(want),
			Stable: stability, Data: p[written : written+want],
		}
		var res nfsproto.WriteRes
		if err := c.call(fh, nfsproto.ProcWrite, &args, &res); err != nil {
			return written, err
		}
		if res.Status != nfsproto.OK {
			return written, res.Status.Error()
		}
		written += int(res.Count)
		if res.Count == 0 {
			return written, fmt.Errorf("client: zero-length write progress at offset %d", cur)
		}
	}
	return written, nil
}

// Flush pushes out fh's buffered write-behind bytes and waits for every
// in-flight chunk, surfacing any deferred write error. Unlike Commit it
// costs no round trip and asks for no durability — it only restores the
// serial path's "Write returned, so the server saw it" guarantee. No-op
// on the serial path.
func (c *Client) Flush(fh fhandle.Handle) error {
	if !c.windowed() {
		return nil
	}
	return c.drainFile(fh)
}

// Commit flushes unstable writes on fh and returns the write verifier.
// On the windowed path it is the barrier that drains the write-behind
// window (and surfaces any deferred async write error) before the COMMIT
// round trip.
func (c *Client) Commit(fh fhandle.Handle) (uint64, error) {
	if c.windowed() {
		if err := c.drainFile(fh); err != nil {
			return 0, err
		}
	}
	var res nfsproto.CommitRes
	if err := c.call(fh, nfsproto.ProcCommit, &nfsproto.CommitArgs{FH: fh}, &res); err != nil {
		return 0, err
	}
	return res.Verf, res.Status.Error()
}

// ReadAll reads the whole file, sizing the buffer from GETATTR.
func (c *Client) ReadAll(fh fhandle.Handle) ([]byte, error) {
	at, err := c.GetAttr(fh)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, at.Size)
	n, _, err := c.Read(fh, 0, buf)
	return buf[:n], err
}

// WriteFile writes data at offset 0 and commits it. An empty file needs
// no WRITE and therefore nothing to commit; the COMMIT round trip is
// skipped.
func (c *Client) WriteFile(fh fhandle.Handle, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if _, err := c.Write(fh, 0, data, false); err != nil {
		return err
	}
	_, err := c.Commit(fh)
	return err
}

// MkdirAll walks/creates the path components under base and returns the
// final directory handle.
func (c *Client) MkdirAll(base fhandle.Handle, parts ...string) (fhandle.Handle, error) {
	cur := base
	for _, part := range parts {
		fh, _, err := c.Mkdir(cur, part, 0o755)
		if err != nil {
			if nfsproto.StatusOf(err) == nfsproto.ErrExist {
				fh, _, err = c.Lookup(cur, part)
			}
			if err != nil {
				return fhandle.Handle{}, err
			}
		}
		cur = fh
	}
	return cur, nil
}

// Symlink creates a symbolic link named name in dir pointing at target.
func (c *Client) Symlink(dir fhandle.Handle, name, target string) (fhandle.Handle, attr.Attr, error) {
	args := nfsproto.SymlinkArgs{Dir: dir, Name: name, Target: target}
	var res nfsproto.CreateRes
	if err := c.call(dir, nfsproto.ProcSymlink, &args, &res); err != nil {
		return fhandle.Handle{}, attr.Attr{}, err
	}
	return res.FH, res.Attr.Attr, res.Status.Error()
}

// ReadLink returns a symbolic link's target path.
func (c *Client) ReadLink(fh fhandle.Handle) (string, error) {
	var res nfsproto.ReadLinkRes
	if err := c.call(fh, nfsproto.ProcReadLink, &nfsproto.ReadLinkArgs{FH: fh}, &res); err != nil {
		return "", err
	}
	return res.Target, res.Status.Error()
}
