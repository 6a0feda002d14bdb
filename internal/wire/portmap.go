package wire

import (
	"slices"
	"sync"
	"time"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// Portmap is an embedded portmapper (program 100000 v2) over
// record-marked TCP: GETPORT and DUMP, backed by an explicit
// registration table. A real client's first question — "where does NFS
// listen?" — is answered here, pointing at the wire gateway. It is
// served like the rest of the real wire: a Gateway relays every
// connection onto a private fabric, where an oncrpc.Server answers.
type Portmap struct {
	*Gateway
	srv *oncrpc.Server

	mu   sync.Mutex
	maps []nfsproto.Mapping // in registration order
}

// portmapAddr is the portmapper's address on its private fabric.
var portmapAddr = netsim.Addr{Host: 1, Port: 111}

// NewPortmap starts a portmapper on the given TCP listen address.
func NewPortmap(listen string) (*Portmap, error) {
	fabric := netsim.New(netsim.Config{})
	port, err := fabric.Bind(portmapAddr)
	if err != nil {
		return nil, err
	}
	p := &Portmap{}
	p.srv = oncrpc.NewServer(port, oncrpc.HandlerFunc(p.serve))
	if p.Gateway, err = NewGateway(listen, fabric, portmapAddr); err != nil {
		p.srv.Close()
		return nil, err
	}
	return p, nil
}

// SetObs attaches an obs registry; served calls are recorded by op class
// (portmap.getport, portmap.dump).
func (p *Portmap) SetObs(r *obs.Registry) {
	if r == nil {
		p.srv.SetObserver(nil)
		return
	}
	p.srv.SetObserver(r.ObserveRPC)
}

// Register maps (prog, vers, prot) to a port, replacing any previous
// registration.
func (p *Portmap) Register(prog, vers, prot, port uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.lookup(prog, vers, prot); m != nil {
		m.Port = port
		return
	}
	p.maps = append(p.maps, nfsproto.Mapping{Prog: prog, Vers: vers, Prot: prot, Port: port})
}

// lookup returns the registration of (prog, vers, prot), or nil. The
// caller holds p.mu.
func (p *Portmap) lookup(prog, vers, prot uint32) *nfsproto.Mapping {
	for i, m := range p.maps {
		if m.Prog == prog && m.Vers == vers && m.Prot == prot {
			return &p.maps[i]
		}
	}
	return nil
}

// Close stops the portmapper.
func (p *Portmap) Close() {
	p.Gateway.Close()
	p.srv.Close()
}

func (p *Portmap) serve(call oncrpc.Call, _ netsim.Addr) (func(*xdr.Encoder), uint32) {
	if call.Program != nfsproto.PortmapProgram {
		return nil, oncrpc.AcceptProgUnavail
	}
	if call.Version != nfsproto.PortmapVersion {
		return nil, oncrpc.AcceptProgMismatch
	}
	switch call.Proc {
	case nfsproto.PortmapProcNull:
		return func(*xdr.Encoder) {}, oncrpc.AcceptSuccess
	case nfsproto.PortmapProcGetPort:
		var args nfsproto.Mapping
		if err := args.Decode(xdr.NewDecoder(call.Body)); err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		var res nfsproto.GetPortRes
		p.mu.Lock()
		if m := p.lookup(args.Prog, args.Vers, args.Prot); m != nil {
			res.Port = m.Port
		}
		p.mu.Unlock()
		return res.Encode, oncrpc.AcceptSuccess
	case nfsproto.PortmapProcDump:
		p.mu.Lock()
		res := nfsproto.DumpRes{Mappings: slices.Clone(p.maps)}
		p.mu.Unlock()
		return res.Encode, oncrpc.AcceptSuccess
	default:
		return nil, oncrpc.AcceptProcUnavail
	}
}

// ------------------------------------------------------- client helpers

// portmapCall performs one portmapper call over a fresh connection — the
// one-shot discovery pattern of a mounting client — and decodes the
// result into res straight from the pooled reply.
func portmapCall(server string, proc uint32, args func(*xdr.Encoder), res nfsproto.Msg) error {
	conn, err := Dial(server)
	if err != nil {
		return err
	}
	// One transmission and a long wait, as a one-shot discovery call
	// should: retransmitting on the same TCP stream gains nothing.
	c := oncrpc.NewClient(conn, netsim.Addr{}, oncrpc.ClientConfig{Timeout: 10 * time.Second, Retries: 1})
	defer c.Close()
	rep, err := c.Call(nfsproto.PortmapProgram, nfsproto.PortmapVersion, proc, args)
	if err != nil {
		return err
	}
	defer rep.Release()
	return res.Decode(xdr.NewDecoder(rep.Body))
}

// GetPort asks the portmapper at server where (prog, vers, prot)
// listens; 0 means unregistered.
func GetPort(server string, prog, vers, prot uint32) (uint32, error) {
	var res nfsproto.GetPortRes
	args := &nfsproto.Mapping{Prog: prog, Vers: vers, Prot: prot}
	if err := portmapCall(server, nfsproto.PortmapProcGetPort, args.Encode, &res); err != nil {
		return 0, err
	}
	return res.Port, nil
}

// Dump returns every registration of the portmapper at server.
func Dump(server string) ([]nfsproto.Mapping, error) {
	var res nfsproto.DumpRes
	if err := portmapCall(server, nfsproto.PortmapProcDump, nil, &res); err != nil {
		return nil, err
	}
	return res.Mappings, nil
}
