// Package udp is the real-socket backend of the transport seam: logical
// datagram ports carried over UDP sockets, used by the multi-process
// deployment mode so transport shards occupy real OS processes (and, on
// real hardware, real cores) instead of goroutines inside one simulation.
//
// Addressing is a static peer map fixed at construction: every logical
// node name maps to a host plus a real base port, and logical port p of a
// node lives at base+p on that host. The map must be identical in every
// process of a deployment — like the netsim fabric's node table, it is
// the closed universe the totem protocol already assumes.
//
// Wire format: each UDP datagram is a 1-byte sender-name length, the
// sender's node name, a 1-byte scheduling class, then the payload. The
// name header exists because reverse address mapping cannot identify
// senders — a node sends from whichever ephemeral or per-shard source port
// the kernel picked, not from its listening base. The class byte carries
// the control-plane priority lane: the kernel socket buffer is strictly
// FIFO, so a dedicated reader goroutine drains it eagerly into two
// in-process lanes, and the consumer takes from the control lane first —
// a heartbeat or token never waits behind a multicast backlog.
package udp

import (
	"fmt"
	"net"
	"net/netip"
	"sync"

	"repro/internal/transport"
)

// Peer locates one node of the deployment.
type Peer struct {
	// Host is an IP address or resolvable name ("127.0.0.1" for the
	// loopback multi-process bench).
	Host string
	// Base is the real UDP port backing the node's logical port 0; logical
	// port p binds Base+p.
	Base int
}

// Transport opens logical datagram ports for one local node over real UDP
// sockets. It implements transport.Transport for that node only — unlike
// the netsim fabric, one process speaks for one node.
type Transport struct {
	node  string
	peers map[string]netip.Addr // resolved peer IPs
	bases map[string]int        // peer real base ports

	mu    sync.Mutex
	addrs map[destKey]netip.AddrPort // resolved (node, logical port) targets

	sendBufs sync.Pool // *[]byte scratch for header+payload framing
}

type destKey struct {
	node string
	port uint16
}

// New builds a transport speaking for node. peers must cover every node
// the deployment will ever address, including node itself (the local
// listen address comes from the same map).
func New(node string, peers map[string]Peer) (*Transport, error) {
	if node == "" {
		return nil, fmt.Errorf("udp: node name required")
	}
	if len(node) > 255 {
		return nil, fmt.Errorf("udp: node name %q exceeds the 255-byte wire header", node)
	}
	if _, ok := peers[node]; !ok {
		return nil, fmt.Errorf("udp: peer map missing local node %q", node)
	}
	t := &Transport{
		node:  node,
		peers: make(map[string]netip.Addr, len(peers)),
		bases: make(map[string]int, len(peers)),
		addrs: make(map[destKey]netip.AddrPort),
	}
	t.sendBufs.New = func() any { b := make([]byte, 0, 2048); return &b }
	for name, p := range peers {
		ip, err := resolveHost(p.Host)
		if err != nil {
			return nil, fmt.Errorf("udp: peer %s: %w", name, err)
		}
		if p.Base < 1 || p.Base > 65535 {
			return nil, fmt.Errorf("udp: peer %s: base port %d out of range", name, p.Base)
		}
		t.peers[name] = ip
		t.bases[name] = p.Base
	}
	return t, nil
}

func resolveHost(host string) (netip.Addr, error) {
	if ip, err := netip.ParseAddr(host); err == nil {
		return ip, nil
	}
	ips, err := net.LookupIP(host)
	if err != nil {
		return netip.Addr{}, err
	}
	for _, ip := range ips {
		if a, ok := netip.AddrFromSlice(ip); ok {
			return a.Unmap(), nil
		}
	}
	return netip.Addr{}, fmt.Errorf("no usable address for %q", host)
}

// Node reports the local node name the transport speaks for.
func (t *Transport) Node() string { return t.node }

func (t *Transport) resolve(node string, lport uint16) (netip.AddrPort, error) {
	key := destKey{node, lport}
	t.mu.Lock()
	ap, ok := t.addrs[key]
	t.mu.Unlock()
	if ok {
		return ap, nil
	}
	ip, ok := t.peers[node]
	if !ok {
		return netip.AddrPort{}, fmt.Errorf("udp: unknown node %q", node)
	}
	real := t.bases[node] + int(lport)
	if real > 65535 {
		return netip.AddrPort{}, fmt.Errorf("udp: node %q logical port %d overflows real port space (base %d)", node, lport, t.bases[node])
	}
	ap = netip.AddrPortFrom(ip, uint16(real))
	t.mu.Lock()
	t.addrs[key] = ap
	t.mu.Unlock()
	return ap, nil
}

// maxDatagram bounds one framed datagram: the UDP payload ceiling. The
// totem layer's coalesced-frame bound (60KiB) stays comfortably under it.
const maxDatagram = 65507

// Open binds the node's logical port on a real UDP socket. Only the local
// node's ports can be opened.
func (t *Transport) Open(node string, lport uint16) (transport.Port, error) {
	if node != t.node {
		return nil, fmt.Errorf("udp: transport speaks for %q, cannot open port on %q", t.node, node)
	}
	real := t.bases[node] + int(lport)
	if real > 65535 {
		return nil, fmt.Errorf("udp: logical port %d overflows real port space (base %d)", lport, t.bases[node])
	}
	ip := t.peers[node]
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.AddrPortFrom(ip, uint16(real))))
	if err != nil {
		return nil, fmt.Errorf("udp: open %s:%d (logical %d): %w", ip, real, lport, err)
	}
	// The default kernel socket buffer (~208KiB) overflows under totem's
	// bursty token-driven sends — a stalled reader sheds datagrams and the
	// protocol pays retransmissions. Ask for more; the kernel clamps to
	// rmem_max/wmem_max, so a refusal is not an error.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(1 << 20)
	p := &port{
		t:       t,
		conn:    conn,
		logical: lport,
		ready:   make(chan struct{}, 1),
		names:   make(map[string]string),
	}
	p.recvBufs.New = func() any { b := make([]byte, maxDatagram); return &b }
	p.smallBufs.New = func() any { b := make([]byte, smallBuf); return &b }
	go p.readLoop()
	return p, nil
}

var (
	_ transport.Port        = (*port)(nil)
	_ transport.ClassSender = (*port)(nil)
)

// laneBudget bounds each in-process receive lane by retained buffer
// bytes, not datagram count: the lanes replace the kernel socket buffer
// as the burst absorber, so their capacity must match what the 4MiB
// kernel buffer used to hold (~4k small datagrams at ~1KiB skb truesize
// each, ~64 max-size ones). A fixed datagram count would silently shrink
// that for small-payload bursts — the sequencer baseline, which owns no
// retransmission, surfaced exactly that as delivery loss. Past the
// budget the newest datagram is shed, the same tail-drop the kernel
// applies under overload (the protocol owns reliability either way).
const laneBudget = 8 << 20

// smallBuf is the copy cutoff: payloads at or under it are copied into a
// compact pooled buffer so a lane full of tiny datagrams pins ~2KiB each
// instead of a full maxDatagram read buffer.
const smallBuf = 2048

// udpDgram is one received datagram staged between the reader goroutine
// and TryRecv, keeping its pooled backing buffer alive until recycled.
type udpDgram struct {
	from    string
	payload []byte
	buf     *[]byte
}

// dgramQueue is a growable ring of staged datagrams (same shape as the
// netsim receive ring: front-pops must not strand capacity), accounting
// the bytes of backing capacity it retains.
type dgramQueue struct {
	buf   []udpDgram
	head  int
	n     int
	bytes int
}

func (q *dgramQueue) len() int { return q.n }

func (q *dgramQueue) push(d udpDgram) {
	if q.n == len(q.buf) {
		grown := make([]udpDgram, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = d
	q.n++
	q.bytes += cap(*d.buf)
}

func (q *dgramQueue) pop() udpDgram {
	slot := &q.buf[q.head]
	d := *slot
	*slot = udpDgram{} // release the buffer reference: slots are reused
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.bytes -= cap(*d.buf)
	return d
}

type port struct {
	t       *Transport
	conn    *net.UDPConn
	logical uint16
	ready   chan struct{} // 1-slot: see transport.Port.Ready

	mu    sync.Mutex
	lanes [2]dgramQueue // indexed by transport.Class
	err   error         // non-nil once closed
	// prev holds, per lane, the pooled buffer backing the payload the last
	// TryRecv on that lane handed out; it is recycled on the lane's next
	// TryRecv — the valid-until-next-TryRecv contract of transport.Port.
	prev [2]*[]byte

	recvBufs  sync.Pool // *[]byte of maxDatagram for the reader goroutine
	smallBufs sync.Pool // *[]byte of smallBuf for compacted small payloads
	// names interns sender node names so the steady state allocates no
	// string per datagram. Owned by the reader goroutine: no lock.
	names map[string]string
}

// recycle returns a staged buffer to the pool it came from, told apart by
// capacity (small copies vs full-size read buffers).
func (p *port) recycle(bp *[]byte) {
	if cap(*bp) <= smallBuf {
		p.smallBufs.Put(bp)
	} else {
		p.recvBufs.Put(bp)
	}
}

func (p *port) Send(node string, lport uint16, payload []byte) error {
	return p.SendClass(node, lport, payload, transport.ClassData)
}

// SendClass is Send with an explicit scheduling class carried in the wire
// header; the receiver's reader goroutine sorts it into the matching lane.
func (p *port) SendClass(node string, lport uint16, payload []byte, class transport.Class) error {
	ap, err := p.t.resolve(node, lport)
	if err != nil {
		return err
	}
	name := p.t.node
	n := 2 + len(name) + len(payload)
	if n > maxDatagram {
		return fmt.Errorf("udp: datagram %d bytes exceeds limit %d", n, maxDatagram)
	}
	bp := p.t.sendBufs.Get().(*[]byte)
	b := *bp
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	b = b[:n]
	b[0] = byte(len(name))
	copy(b[1:], name)
	b[1+len(name)] = byte(class)
	copy(b[2+len(name):], payload)
	_, err = p.conn.WriteToUDPAddrPort(b, ap)
	*bp = b[:0]
	p.t.sendBufs.Put(bp)
	return err
}

// readLoop drains the kernel socket as fast as datagrams arrive, staging
// them into the two priority lanes. Draining eagerly keeps the FIFO kernel
// buffer short, which is what lets the control lane overtake a data
// backlog at all.
func (p *port) readLoop() {
	for {
		bp := p.recvBufs.Get().(*[]byte)
		b := *bp
		n, _, err := p.conn.ReadFromUDPAddrPort(b)
		if err != nil {
			p.recvBufs.Put(bp)
			p.close(err)
			return
		}
		if n < 2 {
			p.recvBufs.Put(bp)
			continue
		}
		nl := int(b[0])
		if n < 2+nl {
			p.recvBufs.Put(bp)
			continue
		}
		from, ok := p.names[string(b[1:1+nl])]
		if !ok {
			from = string(b[1 : 1+nl])
			p.names[from] = from
		}
		class := transport.ClassData
		if transport.Class(b[1+nl]) == transport.ClassControl {
			class = transport.ClassControl
		}
		payload := b[2+nl : n]
		if len(payload) <= smallBuf {
			sp := p.smallBufs.Get().(*[]byte)
			copy((*sp)[:len(payload)], payload)
			payload = (*sp)[:len(payload)]
			p.recvBufs.Put(bp)
			bp = sp
		}
		p.mu.Lock()
		q := &p.lanes[class]
		if p.err != nil || q.bytes >= laneBudget {
			p.mu.Unlock()
			p.recycle(bp)
			continue
		}
		wake := q.len() == 0
		q.push(udpDgram{from: from, payload: payload, buf: bp})
		p.mu.Unlock()
		if wake {
			p.signal()
		}
	}
}

// Ready implements transport.Port: it fires when a datagram lands on an
// empty lane and on close.
func (p *port) Ready() <-chan struct{} { return p.ready }

// TryRecv implements transport.Port. The lane's previous payload buffer
// goes back to its pool here, so a payload is valid until the next
// TryRecv on the same lane.
func (p *port) TryRecv(class transport.Class) (transport.Datagram, bool) {
	if class != transport.ClassControl {
		class = transport.ClassData
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if bp := p.prev[class]; bp != nil {
		p.recycle(bp)
		p.prev[class] = nil
	}
	q := &p.lanes[class]
	if q.len() == 0 {
		return transport.Datagram{}, false
	}
	d := q.pop()
	p.prev[class] = d.buf
	return transport.Datagram{From: d.from, Payload: d.payload}, true
}

// Err implements transport.Port.
func (p *port) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *port) Local() (string, uint16) { return p.t.node, p.logical }

func (p *port) Close() error {
	err := p.conn.Close()
	p.close(net.ErrClosed)
	return err
}

// close records why the port closed (the first reason wins) and fires
// Ready.
func (p *port) close(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.signal()
}

func (p *port) signal() {
	select {
	case p.ready <- struct{}{}:
	default:
	}
}
