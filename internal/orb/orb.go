package orb

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/giop"
	"repro/internal/iiop"
	"repro/internal/ior"
)

// ClientInterceptor observes and augments outgoing requests and their
// replies — the PortableInterceptor-style hook FT-CORBA implementations use
// to attach FT_REQUEST / FT_GROUP_VERSION service contexts without touching
// application code.
type ClientInterceptor interface {
	// SendRequest may mutate the request (typically appending service
	// contexts). Returning an error aborts the invocation.
	SendRequest(req *giop.Request) error
	// ReceiveReply observes the reply before it reaches the application.
	ReceiveReply(req *giop.Request, rep *giop.Reply)
}

// ServerInterceptor observes and augments inbound dispatch.
type ServerInterceptor interface {
	// ReceiveRequest may inspect the request. Returning a non-nil reply
	// short-circuits dispatch (used for duplicate suppression: answer from
	// the reply log instead of re-executing).
	ReceiveRequest(req *giop.Request) *giop.Reply
	// SendReply may mutate the outgoing reply.
	SendReply(req *giop.Request, rep *giop.Reply)
}

// Config parameterizes an ORB instance.
type Config struct {
	// Node is the fabric node this ORB runs on.
	Node string
	// Fabric is the network, such as the simulated one (nil means real
	// TCP on 127.0.0.1).
	Fabric iiop.Network
	// Port is the IIOP listen port.
	Port uint16
	// FTDomain tags references exported by this ORB.
	FTDomain string
	// RequestTimeout bounds each remote invocation attempt (default 2s).
	RequestTimeout time.Duration
}

// Client-side failover: after a walk fails on every profile, an invocation
// walks the profiles failoverRetries more times, waiting about
// failoverBackoff before each. Retried walks re-dial: failed profiles'
// cached connections are invalidated via Transport.FailConn.
const (
	failoverRetries = 1
	failoverBackoff = 5 * time.Millisecond
)

// ORB is one Object Request Broker instance: an object adapter plus a
// client-side invocation engine.
type ORB struct {
	cfg       Config
	transport *iiop.Transport
	server    *iiop.Server
	listener  net.Listener

	mu       sync.RWMutex
	servants map[string]Servant
	clientIc []ClientInterceptor
	serverIc []ServerInterceptor
	closed   bool
}

// New creates and starts an ORB.
func New(cfg Config) (*ORB, error) {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	o := &ORB{cfg: cfg, servants: make(map[string]Servant)}

	var err error
	var dial iiop.Dialer
	if cfg.Fabric != nil {
		o.listener, err = cfg.Fabric.Listen(cfg.Node, cfg.Port)
		if err != nil {
			return nil, fmt.Errorf("orb: listen: %w", err)
		}
		dial = func(host string, port uint16) (net.Conn, error) {
			return cfg.Fabric.Dial(cfg.Node, host, port)
		}
	} else {
		o.listener, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", cfg.Port))
		if err != nil {
			return nil, fmt.Errorf("orb: listen: %w", err)
		}
		dial = func(host string, port uint16) (net.Conn, error) {
			return net.Dial("tcp", fmt.Sprintf("%s:%d", host, port))
		}
	}
	o.transport = iiop.NewTransport(dial)
	o.server = iiop.NewServer(o.listener, (*orbHandler)(o))
	o.server.Serve()
	return o, nil
}

// Node returns the ORB's node name.
func (o *ORB) Node() string { return o.cfg.Node }

// Port returns the IIOP listen port.
func (o *ORB) Port() uint16 { return o.cfg.Port }

// Transport exposes the client transport (used by the interception layer).
func (o *ORB) Transport() *iiop.Transport { return o.transport }

// AddClientInterceptor appends a client-side interceptor.
func (o *ORB) AddClientInterceptor(ic ClientInterceptor) {
	o.mu.Lock()
	o.clientIc = append(o.clientIc, ic)
	o.mu.Unlock()
}

// AddServerInterceptor appends a server-side interceptor.
func (o *ORB) AddServerInterceptor(ic ServerInterceptor) {
	o.mu.Lock()
	o.serverIc = append(o.serverIc, ic)
	o.mu.Unlock()
}

// ActivateObject registers a servant under an object key and returns its
// reference.
func (o *ORB) ActivateObject(key string, s Servant) *ior.Ref {
	o.mu.Lock()
	o.servants[key] = s
	o.mu.Unlock()
	return ior.New(s.RepoID(), o.cfg.Node, o.cfg.Port, []byte(key))
}

// DeactivateObject removes a servant.
func (o *ORB) DeactivateObject(key string) {
	o.mu.Lock()
	delete(o.servants, key)
	o.mu.Unlock()
}

// ServantFor returns the servant bound to key.
func (o *ORB) ServantFor(key string) (Servant, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	s, ok := o.servants[key]
	return s, ok
}

// DispatchLocal runs a request against the local adapter without the
// network — the replication engine delivers totally ordered invocations
// through this path.
func (o *ORB) DispatchLocal(req *giop.Request, inv *Invocation) *giop.Reply {
	return (*orbHandler)(o).dispatch(req, inv)
}

// Shutdown stops the ORB.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	o.mu.Unlock()
	o.transport.Close()
	o.server.Close()
}

// orbHandler adapts the ORB to iiop.Handler.
type orbHandler ORB

func (h *orbHandler) HandleRequest(req *giop.Request) *giop.Reply {
	return h.dispatch(req, nil)
}

func (h *orbHandler) dispatch(req *giop.Request, inv *Invocation) *giop.Reply {
	o := (*ORB)(h)
	o.mu.RLock()
	serverIc := o.serverIc
	s, ok := o.servants[string(req.ObjectKey)]
	o.mu.RUnlock()

	for _, ic := range serverIc {
		if rep := ic.ReceiveRequest(req); rep != nil {
			return rep
		}
	}

	var rep *giop.Reply
	if !ok {
		rep = &giop.Reply{
			RequestID: req.RequestID,
			Status:    giop.ReplySystemException,
			Body: giop.SystemException{
				RepoID:    giop.ExcObjectNotExist,
				Minor:     1,
				Completed: giop.CompletedNo,
			}.Encode(),
		}
	} else if req.Operation == "_is_alive" {
		// Built-in liveness operation: any client may ping an object
		// with it (IsAlive). Fault detection in the running system does
		// not use it; totem hello gossip does.
		rep = BuildReply(req.RequestID, nil, nil)
	} else {
		if inv == nil {
			args, err := DecodeRequestBody(req.Body)
			if err != nil {
				rep = BuildReply(req.RequestID, nil, giop.SystemException{
					RepoID: giop.ExcInternal, Minor: 2, Completed: giop.CompletedNo,
				})
			} else {
				inv = &Invocation{Operation: req.Operation, Args: args}
			}
		}
		if rep == nil {
			results, err := s.Dispatch(inv)
			rep = BuildReply(req.RequestID, results, err)
		}
	}

	for _, ic := range serverIc {
		ic.SendReply(req, rep)
	}
	return rep
}

func (h *orbHandler) HandleLocate(req *giop.LocateRequest) *giop.LocateReply {
	o := (*ORB)(h)
	o.mu.RLock()
	_, ok := o.servants[string(req.ObjectKey)]
	o.mu.RUnlock()
	status := giop.LocateUnknown
	if ok {
		status = giop.LocateHere
	}
	return &giop.LocateReply{RequestID: req.RequestID, Status: status}
}
