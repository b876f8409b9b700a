// Package iiop implements the Internet Inter-ORB Protocol transport: GIOP
// messages carried over stream connections, with client-side connection
// caching and request/reply correlation, and a server-side dispatcher.
//
// The transport is deliberately independent of the fault tolerance layers
// above it: it moves GIOP messages between one client endpoint and one
// server endpoint, exactly like a plain ORB's IIOP engine. The interception
// approach (package interception) taps precisely this layer, which is how
// the Eternal system retrofitted fault tolerance under unmodified ORBs.
package iiop

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/giop"
)

// Errors returned by the transport.
var (
	ErrClosed   = errors.New("iiop: connection closed")
	ErrTimeout  = errors.New("iiop: request timed out")
	ErrShutdown = errors.New("iiop: transport shut down")
)

// Dialer opens a stream to host:port. The netsim fabric and net.Dial both
// satisfy it via small adapters.
type Dialer func(host string, port uint16) (net.Conn, error)

// Network is a stream network of named hosts, the one an ORB or an
// interception point listens and dials on. The netsim fabric is one.
type Network interface {
	Listen(host string, port uint16) (net.Listener, error)
	Dial(from, host string, port uint16) (net.Conn, error)
}

// Handler processes inbound requests on a server endpoint. Implementations
// must be safe for concurrent calls.
//
// Ownership: the request and every byte slice reachable from it (Body,
// ObjectKey, service context data) are backed by a pooled frame that is
// recycled after HandleRequest returns and the reply has been written. A
// handler that wants any of those bytes past that point must copy them; the
// reply it returns must not alias the request (building it with the cdr
// encoder or orb.BuildReply always copies).
type Handler interface {
	// HandleRequest services one request. For oneway requests (response
	// flags 0) the returned reply is discarded and may be nil.
	HandleRequest(req *giop.Request) *giop.Reply
	// HandleLocate answers object-location queries.
	HandleLocate(req *giop.LocateRequest) *giop.LocateReply
}

// --- Client side -----------------------------------------------------------

// Transport is a client-side connection manager: it caches one connection
// per destination and correlates replies to requests.
type Transport struct {
	dial Dialer

	mu     sync.Mutex
	conns  map[string]*clientConn
	nextID uint32
	closed bool
}

// NewTransport creates a client transport using dial.
func NewTransport(dial Dialer) *Transport {
	return &Transport{dial: dial, conns: make(map[string]*clientConn)}
}

// NextRequestID allocates a fresh GIOP request id.
func (t *Transport) NextRequestID() uint32 {
	return atomic.AddUint32(&t.nextID, 1)
}

type clientConn struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *giop.Writer

	done chan struct{} // closed once the connection is declared dead

	mu      sync.Mutex
	pending map[uint32]chan *giop.Reply
	err     error
}

func (t *Transport) getConn(host string, port uint16) (*clientConn, error) {
	key := fmt.Sprintf("%s:%d", host, port)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrShutdown
	}
	if cc, ok := t.conns[key]; ok {
		t.mu.Unlock()
		return cc, nil
	}
	t.mu.Unlock()

	nc, err := t.dial(host, port)
	if err != nil {
		return nil, fmt.Errorf("iiop: dial %s: %w", key, err)
	}
	cc := &clientConn{
		conn:    nc,
		w:       giop.NewWriter(nc),
		done:    make(chan struct{}),
		pending: make(map[uint32]chan *giop.Reply),
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		nc.Close()
		return nil, ErrShutdown
	}
	if existing, ok := t.conns[key]; ok {
		// Lost the race; use the established connection.
		t.mu.Unlock()
		nc.Close()
		return existing, nil
	}
	t.conns[key] = cc
	t.mu.Unlock()

	go func() {
		readErr := cc.readLoop()
		cc.fail(readErr)
		t.mu.Lock()
		if t.conns[key] == cc {
			delete(t.conns, key)
		}
		t.mu.Unlock()
	}()
	return cc, nil
}

func (c *clientConn) readLoop() error {
	r := giop.NewReader(c.conn)
	for {
		m, err := r.ReadMessage()
		if err != nil {
			return err
		}
		switch v := m.(type) {
		case *giop.Reply:
			c.complete(v.RequestID, v)
		case *giop.LocateReply:
			// Locate replies are funneled through the same pending map via
			// the request id space.
			c.complete(v.RequestID, &giop.Reply{RequestID: v.RequestID, Status: v.Status, Body: v.Body})
		case *giop.CloseConnection:
			return ErrClosed
		default:
			// Requests arriving on a client connection indicate a peer bug;
			// report a protocol error and drop the connection.
			c.wmu.Lock()
			_ = c.w.WriteMessage(&giop.MessageError{})
			c.wmu.Unlock()
			return fmt.Errorf("iiop: unexpected %T on client connection", m)
		}
	}
}

func (c *clientConn) complete(id uint32, rep *giop.Reply) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		ch <- rep
	}
}

func (c *clientConn) fail(err error) {
	if err == nil {
		err = ErrClosed
	}
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	pend := c.pending
	c.pending = make(map[uint32]chan *giop.Reply)
	c.mu.Unlock()
	if first {
		close(c.done)
	}
	for _, ch := range pend {
		close(ch)
	}
	c.conn.Close()
}

// deadErr returns the recorded failure cause (ErrClosed if none was set).
func (c *clientConn) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

func (c *clientConn) register(id uint32) (chan *giop.Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	ch := make(chan *giop.Reply, 1)
	c.pending[id] = ch
	return ch, nil
}

func (c *clientConn) unregister(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Invoke sends a request to host:port and waits for the reply (or timeout;
// zero means wait forever). Oneway requests return immediately with a nil
// reply.
func (t *Transport) Invoke(host string, port uint16, req *giop.Request, timeout time.Duration) (*giop.Reply, error) {
	cc, err := t.getConn(host, port)
	if err != nil {
		return nil, err
	}
	oneway := req.ResponseFlags == giop.ResponseNone
	var ch chan *giop.Reply
	if !oneway {
		if ch, err = cc.register(req.RequestID); err != nil {
			return nil, err
		}
	}

	cc.wmu.Lock()
	err = cc.w.WriteMessage(req)
	cc.wmu.Unlock()
	if err != nil {
		if !oneway {
			cc.unregister(req.RequestID)
		}
		cc.fail(err)
		return nil, fmt.Errorf("iiop: send: %w", err)
	}
	if oneway {
		return nil, nil
	}

	if timeout <= 0 {
		// Even an unbounded wait must have a connection-failure wakeup path:
		// over real TCP a peer can die without FIN/RST, leaving the read loop
		// blocked forever. FailConn (or Close) closes done and frees us.
		select {
		case rep, ok := <-ch:
			if !ok {
				return nil, cc.deadErr()
			}
			return rep, nil
		case <-cc.done:
			return cc.drainOrDead(ch, req.RequestID)
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case rep, ok := <-ch:
		if !ok {
			return nil, cc.deadErr()
		}
		return rep, nil
	case <-cc.done:
		return cc.drainOrDead(ch, req.RequestID)
	case <-timer.C:
		cc.unregister(req.RequestID)
		// Best-effort cancel so the server can drop the work.
		cc.wmu.Lock()
		_ = cc.w.WriteMessage(&giop.CancelRequest{RequestID: req.RequestID})
		cc.wmu.Unlock()
		return nil, ErrTimeout
	}
}

// drainOrDead resolves a wait that lost the race between a reply landing and
// the connection being declared dead: a reply already buffered (or a closed
// channel) wins, otherwise the failure cause is returned.
func (c *clientConn) drainOrDead(ch chan *giop.Reply, id uint32) (*giop.Reply, error) {
	select {
	case rep, ok := <-ch:
		if ok {
			return rep, nil
		}
	default:
	}
	c.unregister(id)
	return nil, c.deadErr()
}

// FailConn invalidates the cached connection to host:port: every invocation
// blocked on it — including unbounded waits — wakes with the given cause,
// and the next Invoke re-dials. This is the external recovery hook for
// silently dead peers: real TCP delivers no reader-side error when the
// remote host vanishes without FIN/RST, so the read loop alone can never
// notice. Fault detectors above the transport call this when they declare
// the endpoint dead. No-op if no connection is cached.
func (t *Transport) FailConn(host string, port uint16, cause error) {
	key := fmt.Sprintf("%s:%d", host, port)
	t.mu.Lock()
	cc, ok := t.conns[key]
	if ok {
		delete(t.conns, key)
	}
	t.mu.Unlock()
	if !ok {
		return
	}
	if cause == nil {
		cause = ErrClosed
	}
	cc.fail(cause)
}

// Close shuts down all cached connections.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := make([]*clientConn, 0, len(t.conns))
	for _, cc := range t.conns {
		conns = append(conns, cc)
	}
	t.conns = make(map[string]*clientConn)
	t.mu.Unlock()
	for _, cc := range conns {
		cc.wmu.Lock()
		_ = cc.w.WriteMessage(&giop.CloseConnection{})
		cc.wmu.Unlock()
		cc.fail(ErrShutdown)
	}
}

// --- Server side -----------------------------------------------------------

// Server accepts IIOP connections and dispatches requests to a Handler.
type Server struct {
	l       net.Listener
	handler Handler
	wg      sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer wraps an accepting listener. Call Serve to start.
func NewServer(l net.Listener, h Handler) *Server {
	return &Server{l: l, handler: h, conns: make(map[net.Conn]struct{})}
}

// Serve runs the accept loop in a background goroutine and returns.
func (s *Server) Serve() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(conn)
		}
	}()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var wmu sync.Mutex
	w := giop.NewWriter(conn)
	r := giop.NewReader(conn)
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	for {
		// Requests read into pooled frames; each frame is recycled once its
		// request is fully served (see the Handler ownership contract).
		m, frame, err := r.ReadMessagePooled()
		if err != nil {
			return
		}
		switch v := m.(type) {
		case *giop.Request:
			reqWG.Add(1)
			go func(req *giop.Request, frame []byte) {
				defer reqWG.Done()
				defer giop.ReleaseFrame(frame)
				rep := s.handler.HandleRequest(req)
				if req.ResponseFlags == giop.ResponseNone || rep == nil {
					return
				}
				rep.RequestID = req.RequestID
				wmu.Lock()
				_ = w.WriteMessage(rep)
				wmu.Unlock()
			}(v, frame)
		case *giop.LocateRequest:
			rep := s.handler.HandleLocate(v)
			if rep == nil {
				rep = &giop.LocateReply{RequestID: v.RequestID, Status: giop.LocateUnknown}
			}
			rep.RequestID = v.RequestID
			wmu.Lock()
			_ = w.WriteMessage(rep)
			wmu.Unlock()
			giop.ReleaseFrame(frame)
		case *giop.CancelRequest:
			// Cancellation is advisory in GIOP; the handler may already be
			// running. Nothing to do in this implementation.
			giop.ReleaseFrame(frame)
		case *giop.CloseConnection:
			giop.ReleaseFrame(frame)
			return
		case *giop.MessageError:
			giop.ReleaseFrame(frame)
			return
		default:
			giop.ReleaseFrame(frame)
			wmu.Lock()
			_ = w.WriteMessage(&giop.MessageError{})
			wmu.Unlock()
			return
		}
	}
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.l.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }
