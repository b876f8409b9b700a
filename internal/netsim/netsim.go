// Package netsim provides a simulated network fabric for running the whole
// fault-tolerant CORBA stack inside one process.
//
// The paper's systems ran on a LAN of workstations; reproducing their
// fault-injection experiments (crashes, message loss, partitions, remerge)
// on real hardware is neither portable nor deterministic. The fabric
// substitutes for the LAN: it offers
//
//   - stream endpoints (net.Conn / net.Listener) used by the IIOP layer,
//     with configurable one-way latency, and
//   - unreliable datagram endpoints used by the Totem-style group
//     communication layer, with configurable latency, jitter, and loss,
//
// plus deterministic fault injection: node crash/restart and network
// partition/remerge. Partitions and crashes break established streams and
// silently drop datagrams, matching how a LAN fails.
//
// All randomness is drawn from a seeded source, so experiments replay
// identically for a given seed.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// Errors reported by the fabric.
var (
	ErrNodeDown    = errors.New("netsim: node is down")
	ErrUnreachable = errors.New("netsim: destination unreachable (partition)")
	ErrNoListener  = errors.New("netsim: connection refused")
	ErrPortInUse   = errors.New("netsim: port already bound")
	ErrClosed      = errors.New("netsim: endpoint closed")
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrConnBroken  = errors.New("netsim: connection broken by fault injection")
	errDeadline    = &timeoutError{}
)

type timeoutError struct{}

func (*timeoutError) Error() string   { return "netsim: i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// Config sets the fabric-wide link characteristics.
type Config struct {
	// Latency is the one-way delivery delay for every message. A delayed
	// datagram waits on a runtime timer, and where timers resolve to about
	// a millisecond each delayed hop pays about that however small Latency
	// is: serial ACTIVE calls on a 4-node ring (2 vCPUs) measured a p50 of
	// 0.08 ms at Latency 0, 1.1 ms at 10 µs, 2.6 ms at 50 µs and 4.8 ms at
	// 200 µs, and the heartbeat interval barely moves it. Leave Latency 0
	// where a test or benchmark measures µs-range call latency.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1) that a datagram is silently dropped.
	// Streams are never lossy (they model TCP).
	Loss float64
	// Seed makes jitter and loss deterministic. Zero means seed 1.
	Seed int64
}

// Fabric is the simulated network. Create one per experiment, add nodes,
// then hand Listen/Dial/OpenPort endpoints to the protocol stacks.
type Fabric struct {
	mu        sync.Mutex
	cfg       Config
	rng       *rand.Rand
	nodes     map[string]*nodeState
	component map[string]int // node -> partition component id; all 0 = healed
	nodeDelay map[string]time.Duration
	filter    DropFilter
}

// DropFilter decides whether one datagram should be dropped (return true to
// drop). It runs with the fabric lock held and must not call back into the
// fabric; payload is the sender's buffer, valid only during the call, and
// must not be retained or mutated. Chaos schedules use it
// for targeted drops (e.g. token or batch frames); port identifies the
// destination endpoint, which under the sharded transport distinguishes the
// ring a frame belongs to (shard i lives on its own port on every node).
type DropFilter func(from, to string, port uint16, payload []byte) bool

type nodeState struct {
	name      string
	up        bool
	listeners map[uint16]*listener
	dgrams    map[uint16]*DGram
	conns     map[*conn]struct{} // stream endpoints homed on this node
}

// NewFabric creates a fabric with the given link characteristics.
func NewFabric(cfg Config) *Fabric {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Fabric{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		nodes:     make(map[string]*nodeState),
		component: make(map[string]int),
		nodeDelay: make(map[string]time.Duration),
	}
}

// SetLoss changes the datagram loss probability at runtime (loss bursts).
func (f *Fabric) SetLoss(p float64) {
	f.mu.Lock()
	f.cfg.Loss = p
	f.mu.Unlock()
}

// SetLatency changes the base latency and jitter at runtime (delay spikes).
func (f *Fabric) SetLatency(latency, jitter time.Duration) {
	f.mu.Lock()
	f.cfg.Latency = latency
	f.cfg.Jitter = jitter
	f.mu.Unlock()
}

// SetNodeDelay adds extra one-way delay to every message sent from or to the
// node (a slow or paused node). Zero removes the penalty.
func (f *Fabric) SetNodeDelay(node string, d time.Duration) {
	f.mu.Lock()
	if d <= 0 {
		delete(f.nodeDelay, node)
	} else {
		f.nodeDelay[node] = d
	}
	f.mu.Unlock()
}

// SetDropFilter installs (or, with nil, removes) a targeted datagram drop
// filter applied after the probabilistic loss check.
func (f *Fabric) SetDropFilter(fn DropFilter) {
	f.mu.Lock()
	f.filter = fn
	f.mu.Unlock()
}

// AddNode registers a node. Adding an existing node is a no-op.
func (f *Fabric) AddNode(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[name]; ok {
		return
	}
	f.nodes[name] = &nodeState{
		name:      name,
		up:        true,
		listeners: make(map[uint16]*listener),
		dgrams:    make(map[uint16]*DGram),
		conns:     make(map[*conn]struct{}),
	}
	f.component[name] = 0
}

// Nodes returns the registered node names, sorted.
func (f *Fabric) Nodes() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.nodes))
	for n := range f.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// delay computes the one-way delivery delay for one message.
func (f *Fabric) delayLocked(from, to string) time.Duration {
	d := f.cfg.Latency
	if f.cfg.Jitter > 0 {
		d += time.Duration(f.rng.Int63n(int64(f.cfg.Jitter)))
	}
	d += f.nodeDelay[from] + f.nodeDelay[to]
	return d
}

// dropLocked reports whether a datagram should be lost.
func (f *Fabric) dropLocked() bool {
	return f.cfg.Loss > 0 && f.rng.Float64() < f.cfg.Loss
}

// reachableLocked reports whether a can currently talk to b.
func (f *Fabric) reachableLocked(a, b string) bool {
	na, ok1 := f.nodes[a]
	nb, ok2 := f.nodes[b]
	if !ok1 || !ok2 || !na.up || !nb.up {
		return false
	}
	return f.component[a] == f.component[b]
}

// Reachable reports whether node a can currently reach node b.
func (f *Fabric) Reachable(a, b string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reachableLocked(a, b)
}

// Partition splits the network into the given components. Every listed node
// is placed in the component of its group; unlisted nodes join component 0.
// Established streams that now cross a component boundary break immediately.
func (f *Fabric) Partition(groups ...[]string) {
	f.mu.Lock()
	for n := range f.component {
		f.component[n] = 0
	}
	for i, g := range groups {
		for _, n := range g {
			f.component[n] = i + 1
		}
	}
	f.breakSeveredLocked()
	f.mu.Unlock()
}

// Heal removes all partitions (every node back in one component).
func (f *Fabric) Heal() {
	f.mu.Lock()
	for n := range f.component {
		f.component[n] = 0
	}
	f.mu.Unlock()
}

// CrashNode takes a node down: its listeners refuse, its streams break,
// datagrams to and from it vanish.
func (f *Fabric) CrashNode(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	if !ok || !n.up {
		return
	}
	n.up = false
	// The host's sockets die with it: wake blocked accepts/receives.
	for port, l := range n.listeners {
		l.closeLocked(ErrNodeDown)
		delete(n.listeners, port)
	}
	for port, d := range n.dgrams {
		d.closeLocked(ErrNodeDown)
		delete(n.dgrams, port)
	}
	f.breakSeveredLocked()
}

// RestartNode brings a crashed node back. The software stack must rebind
// its listeners and ports, as after a real reboot.
func (f *Fabric) RestartNode(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	if !ok || n.up {
		return
	}
	n.up = true
}

// NodeUp reports whether the node is currently up.
func (f *Fabric) NodeUp(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	return ok && n.up
}

// breakSeveredLocked breaks every established stream whose endpoints can no
// longer reach each other.
func (f *Fabric) breakSeveredLocked() {
	for _, n := range f.nodes {
		for c := range n.conns {
			if !n.up || !f.reachableLocked(c.local.Node, c.remote.Node) {
				c.breakConn(ErrConnBroken)
				delete(n.conns, c)
			}
		}
	}
}

// Addr is the net.Addr implementation for fabric endpoints.
type Addr struct {
	Node string
	Port uint16
}

// Network returns "sim".
func (Addr) Network() string { return "sim" }

// String renders node:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Node, a.Port) }

// --- Streams -------------------------------------------------------------

// chunk is one delivered write with its due time (send time + latency).
type chunk struct {
	data []byte
	due  time.Time
}

// pipeHalf is one direction of a stream: a latency-aware byte queue.
type pipeHalf struct {
	mu       sync.Mutex
	cond     *sync.Cond
	chunks   []chunk
	leftover []byte // partially consumed head chunk
	closed   bool
	err      error
	deadline time.Time
	dlTimer  *time.Timer
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *pipeHalf) push(data []byte, due time.Time) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return io.ErrClosedPipe
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	h.chunks = append(h.chunks, chunk{data: cp, due: due})
	h.cond.Broadcast()
	return nil
}

func (h *pipeHalf) close(err error) {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		h.err = err
	}
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *pipeHalf) setDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.deadline = t
	if h.dlTimer != nil {
		h.dlTimer.Stop()
		h.dlTimer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		h.dlTimer = time.AfterFunc(d, func() {
			h.mu.Lock()
			h.cond.Broadcast()
			h.mu.Unlock()
		})
	}
	h.cond.Broadcast()
}

func (h *pipeHalf) deadlineExceededLocked() bool {
	return !h.deadline.IsZero() && !time.Now().Before(h.deadline)
}

// read implements latency-aware reads: data is visible only once its due
// time has passed.
func (h *pipeHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if len(h.leftover) > 0 {
			n := copy(p, h.leftover)
			h.leftover = h.leftover[n:]
			return n, nil
		}
		if h.deadlineExceededLocked() {
			return 0, errDeadline
		}
		if len(h.chunks) > 0 {
			head := h.chunks[0]
			now := time.Now()
			if !head.due.After(now) {
				h.chunks = h.chunks[1:]
				n := copy(p, head.data)
				if n < len(head.data) {
					h.leftover = head.data[n:]
				}
				return n, nil
			}
			// Head not due yet: sleep until due (or wakeup) outside cond.
			wait := head.due.Sub(now)
			timer := time.AfterFunc(wait, func() {
				h.mu.Lock()
				h.cond.Broadcast()
				h.mu.Unlock()
			})
			h.cond.Wait()
			timer.Stop()
			continue
		}
		if h.closed {
			if h.err != nil {
				return 0, h.err
			}
			return 0, io.EOF
		}
		h.cond.Wait()
	}
}

// conn is one endpoint of an established simulated stream.
type conn struct {
	fabric *Fabric
	local  Addr
	remote Addr
	rd     *pipeHalf // data arriving here
	wr     *pipeHalf // peer's read half (we push into it)
	peer   *conn

	closeOnce sync.Once
}

var _ net.Conn = (*conn)(nil)

func (c *conn) Read(p []byte) (int, error) { return c.rd.read(p) }

func (c *conn) Write(p []byte) (int, error) {
	c.fabric.mu.Lock()
	if !c.fabric.reachableLocked(c.local.Node, c.remote.Node) {
		c.fabric.mu.Unlock()
		return 0, ErrConnBroken
	}
	due := time.Now().Add(c.fabric.delayLocked(c.local.Node, c.remote.Node))
	c.fabric.mu.Unlock()
	if err := c.wr.push(p, due); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.fabric.mu.Lock()
		if n, ok := c.fabric.nodes[c.local.Node]; ok {
			delete(n.conns, c)
		}
		c.fabric.mu.Unlock()
		c.wr.close(nil) // peer sees EOF after draining
		c.rd.close(nil)
	})
	return nil
}

// breakConn severs the stream abruptly (fault injection): both halves
// error out rather than draining.
func (c *conn) breakConn(err error) {
	c.rd.close(err)
	c.wr.close(err)
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.rd.setDeadline(t)
	return nil
}
func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.setDeadline(t)
	return nil
}
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

// listener accepts simulated streams.
type listener struct {
	fabric  *Fabric
	addr    Addr
	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*conn
	closed  bool
}

var _ net.Listener = (*listener)(nil)

// Listen binds a stream listener at host:port.
func (f *Fabric) Listen(host string, port uint16) (net.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[host]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, host)
	}
	if !n.up {
		return nil, ErrNodeDown
	}
	if _, busy := n.listeners[port]; busy {
		return nil, ErrPortInUse
	}
	l := &listener{fabric: f, addr: Addr{Node: host, Port: port}}
	l.cond = sync.NewCond(&l.mu)
	n.listeners[port] = l
	return l, nil
}

func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			return nil, ErrClosed
		}
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog = l.backlog[1:]
			return c, nil
		}
		l.cond.Wait()
	}
}

func (l *listener) Close() error {
	l.fabric.mu.Lock()
	if n, ok := l.fabric.nodes[l.addr.Node]; ok {
		if n.listeners[l.addr.Port] == l {
			delete(n.listeners, l.addr.Port)
		}
	}
	l.fabric.mu.Unlock()
	l.closeLocked(ErrClosed)
	return nil
}

func (l *listener) closeLocked(err error) {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *listener) Addr() net.Addr { return l.addr }

// Dial opens a stream from node `from` to host:port. The connection is
// established instantaneously (handshake latency is folded into the first
// bytes' latency), mirroring how the real systems reuse pre-opened TCP
// connections.
func (f *Fabric) Dial(from, host string, port uint16) (net.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[from]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	if !f.reachableLocked(from, host) {
		if n, ok := f.nodes[host]; !ok || !n.up {
			return nil, ErrNodeDown
		}
		return nil, ErrUnreachable
	}
	n := f.nodes[host]
	l, ok := n.listeners[port]
	if !ok {
		return nil, ErrNoListener
	}

	aToB := newPipeHalf() // bytes flowing client -> server
	bToA := newPipeHalf() // bytes flowing server -> client
	cli := &conn{
		fabric: f,
		local:  Addr{Node: from, Port: 0},
		remote: Addr{Node: host, Port: port},
		rd:     bToA,
		wr:     aToB,
	}
	srv := &conn{
		fabric: f,
		local:  Addr{Node: host, Port: port},
		remote: Addr{Node: from, Port: 0},
		rd:     aToB,
		wr:     bToA,
	}
	cli.peer, srv.peer = srv, cli
	f.nodes[from].conns[cli] = struct{}{}
	n.conns[srv] = struct{}{}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrNoListener
	}
	l.backlog = append(l.backlog, srv)
	l.cond.Broadcast()
	l.mu.Unlock()
	return cli, nil
}

// --- Datagrams -----------------------------------------------------------

// Datagram is one received unreliable message (the transport seam's type;
// the fabric is the seam's deterministic backend).
type Datagram = transport.Datagram

// DGram is an unreliable datagram port, the substrate for the group
// communication protocol (which supplies its own reliability and ordering,
// as Totem does over UDP). It implements transport.Port.
type DGram struct {
	fabric *Fabric
	addr   Addr
	ready  chan struct{} // 1-slot: see transport.Port.Ready
	mu     sync.Mutex
	lanes  [2]dgramRing // indexed by transport.Class
	err    error        // non-nil once closed
	// prev holds, per lane, the pooled buffer backing the payload the last
	// TryRecv on that lane handed out; it is recycled on the lane's next
	// TryRecv — the valid-until-next-TryRecv contract of transport.Port.
	prev [2]*[]byte
	// waker fires Ready when the earliest not-yet-due head a TryRecv saw
	// falls due; wakeAt is when it is armed for (zero: not armed). One
	// timer per port, Reset on reuse.
	waker  *time.Timer
	wakeAt time.Time
}

var (
	_ transport.Port        = (*DGram)(nil)
	_ transport.ClassSender = (*DGram)(nil)
)

// Open binds a datagram port at host:port, implementing
// transport.Transport. It is OpenPort behind the seam's interface: the
// fabric plays the role of every simulated node's transport at once.
func (f *Fabric) Open(host string, port uint16) (transport.Port, error) {
	return f.OpenPort(host, port)
}

// timedDatagram is a queued datagram and when it falls due; a zero due
// time (no latency configured) is due at once, without reading the clock.
// buf is the pooled buffer dg.Payload lives in (nil when not pooled).
type timedDatagram struct {
	dg  Datagram
	due time.Time
	buf *[]byte
}

// Datagram buffers are pooled by power-of-two size class, from 64 bytes up
// to maxPooled: a payload copied at Send takes the smallest class that
// holds it, so a lane full of tokens pins a few hundred bytes each, not a
// frame-sized buffer. maxPooled holds the totem layer's largest coalesced
// frame (60 KiB of messages) plus its header; larger datagrams (a single
// oversized message, a formation carrying a big recovery set) get a
// buffer of their own, which the collector takes back.
const (
	minPooledShift = 6
	maxPooledShift = 16
	maxPooled      = 1 << maxPooledShift
)

var bufPools [maxPooledShift - minPooledShift + 1]sync.Pool

// poolClass returns the index into bufPools of the smallest class holding
// n bytes, or -1 when n is over maxPooled.
func poolClass(n int) int {
	switch {
	case n > maxPooled:
		return -1
	case n <= 1<<minPooledShift:
		return 0
	}
	return bits.Len(uint(n-1)) - minPooledShift
}

// copyPayload copies payload into a pooled buffer, returning the copy and
// the buffer to recycle once the receiver is done with it (nil when the
// copy is not pooled).
func copyPayload(payload []byte) ([]byte, *[]byte) {
	c := poolClass(len(payload))
	if c < 0 {
		return append([]byte(nil), payload...), nil
	}
	bp, _ := bufPools[c].Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 1<<(c+minPooledShift))
		bp = &b
	}
	return (*bp)[:copy(*bp, payload)], bp
}

// recycle returns a pooled datagram buffer.
func recycle(bp *[]byte) {
	bufPools[poolClass(cap(*bp))].Put(bp)
}

// dgramRing is a growable circular queue of pending datagrams. The
// previous plain-slice queue (append to push, reslice [1:] to pop) shed
// its backing array every few hundred datagrams — popping from the front
// strands capacity, so steady-state traffic reallocated and re-copied the
// queue forever. The ring reuses its slots: pushes and pops on the hot
// path allocate nothing once the queue has reached its high-water size.
type dgramRing struct {
	buf  []timedDatagram
	head int
	n    int
}

func (q *dgramRing) len() int { return q.n }

func (q *dgramRing) push(td timedDatagram) {
	if q.n == len(q.buf) {
		grown := make([]timedDatagram, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = td
	q.n++
}

// peek returns the head slot (valid only while the queue is non-empty).
func (q *dgramRing) peek() *timedDatagram { return &q.buf[q.head] }

func (q *dgramRing) pop() timedDatagram {
	slot := &q.buf[q.head]
	td := *slot
	*slot = timedDatagram{} // drop the payload reference: slots are reused
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return td
}

// OpenPort binds a datagram port at host:port.
func (f *Fabric) OpenPort(host string, port uint16) (*DGram, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[host]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, host)
	}
	if !n.up {
		return nil, ErrNodeDown
	}
	if _, busy := n.dgrams[port]; busy {
		return nil, ErrPortInUse
	}
	d := &DGram{fabric: f, addr: Addr{Node: host, Port: port}, ready: make(chan struct{}, 1)}
	n.dgrams[port] = d
	return d, nil
}

// Addr returns the bound address.
func (d *DGram) Addr() Addr { return d.addr }

// Local reports the port's node name and logical port (transport.Port).
func (d *DGram) Local() (string, uint16) { return d.addr.Node, d.addr.Port }

// Send transmits a datagram to host:port. Loss, latency, partitions, and
// crashed destinations are applied; Send never blocks and never reports
// delivery failure (like UDP), only local errors.
//
// Ownership: like a kernel, the fabric copies payload at Send (into a
// pooled buffer the receiver's next TryRecv on the lane recycles), so the
// caller may reuse its buffer as soon as Send returns. A datagram lost to
// loss, a partition, a filter or a missing port is never copied.
func (d *DGram) Send(host string, port uint16, payload []byte) error {
	return d.SendClass(host, port, payload, transport.ClassData)
}

// SendClass is Send with an explicit scheduling class: ClassControl
// datagrams land in the destination's priority lane and are received ahead
// of any queued data, while loss, latency, partitions, and fault filters
// apply to both lanes identically (a dropped heartbeat is still dropped —
// the lane only keeps it from queueing behind a multicast backlog).
func (d *DGram) SendClass(host string, port uint16, payload []byte, class transport.Class) error {
	f := d.fabric
	f.mu.Lock()
	if d.isClosed() {
		f.mu.Unlock()
		return ErrClosed
	}
	src := f.nodes[d.addr.Node]
	if src == nil || !src.up {
		f.mu.Unlock()
		return ErrNodeDown
	}
	if !f.reachableLocked(d.addr.Node, host) || f.dropLocked() {
		f.mu.Unlock()
		return nil // silently lost, like UDP
	}
	if f.filter != nil && f.filter(d.addr.Node, host, port, payload) {
		f.mu.Unlock()
		return nil // targeted drop (chaos injection)
	}
	dst := f.nodes[host]
	tgt, ok := dst.dgrams[port]
	if !ok {
		f.mu.Unlock()
		return nil // no such port: dropped
	}
	var due time.Time
	if delay := f.delayLocked(d.addr.Node, host); delay > 0 {
		due = time.Now().Add(delay)
	}
	f.mu.Unlock()

	lane := &tgt.lanes[transport.ClassData]
	if class == transport.ClassControl {
		lane = &tgt.lanes[transport.ClassControl]
	}
	cp, bp := copyPayload(payload)
	tgt.mu.Lock()
	wake := false
	if tgt.err == nil {
		wake = lane.len() == 0
		lane.push(timedDatagram{dg: Datagram{From: d.addr.Node, Payload: cp}, due: due, buf: bp})
		bp = nil
	}
	tgt.mu.Unlock()
	if bp != nil {
		recycle(bp) // the port closed meanwhile
	}
	if wake {
		tgt.signal()
	}
	return nil
}

func (d *DGram) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err != nil
}

// Ready implements transport.Port: it fires when a datagram lands on an
// empty lane, when a queued head falls due, and on close.
func (d *DGram) Ready() <-chan struct{} { return d.ready }

// TryRecv implements transport.Port: it pops the class's lane head if its
// latency has elapsed. A head not yet due arms the port's waker, which
// fires Ready when it matures. The lane's previous payload buffer goes back
// to its pool here, so a payload is valid until the next TryRecv on the
// same lane.
func (d *DGram) TryRecv(class transport.Class) (Datagram, bool) {
	if class != transport.ClassControl {
		class = transport.ClassData
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if bp := d.prev[class]; bp != nil {
		recycle(bp)
		d.prev[class] = nil
	}
	lane := &d.lanes[class]
	if lane.len() == 0 {
		return Datagram{}, false
	}
	if due := lane.peek().due; !due.IsZero() && due.After(time.Now()) {
		d.armLocked(due)
		return Datagram{}, false
	}
	td := lane.pop()
	d.prev[class] = td.buf
	return td.dg, true
}

// armLocked makes sure Ready fires by due. A stale or early firing only
// costs the consumer an empty poll, which re-arms.
func (d *DGram) armLocked(due time.Time) {
	if !d.wakeAt.IsZero() && !due.Before(d.wakeAt) {
		return
	}
	d.wakeAt = due
	wait := time.Until(due)
	if d.waker == nil {
		d.waker = time.AfterFunc(wait, func() {
			d.mu.Lock()
			d.wakeAt = time.Time{}
			d.mu.Unlock()
			d.signal()
		})
	} else {
		d.waker.Reset(wait)
	}
}

func (d *DGram) signal() {
	select {
	case d.ready <- struct{}{}:
	default:
	}
}

// Err implements transport.Port: ErrClosed after Close, ErrNodeDown after
// the node crashed.
func (d *DGram) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Close releases the port and fires Ready.
func (d *DGram) Close() error {
	d.fabric.mu.Lock()
	if n, ok := d.fabric.nodes[d.addr.Node]; ok {
		if n.dgrams[d.addr.Port] == d {
			delete(n.dgrams, d.addr.Port)
		}
	}
	d.fabric.mu.Unlock()
	d.closeLocked(ErrClosed)
	return nil
}

func (d *DGram) closeLocked(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	if d.waker != nil {
		d.waker.Stop()
	}
	d.mu.Unlock()
	d.signal()
}
