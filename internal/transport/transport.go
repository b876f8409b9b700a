// Package transport defines the datagram seam under the totem layer: the
// minimal unreliable-datagram contract the group communication protocol
// needs from a network. Two backends implement it:
//
//   - internal/netsim — the deterministic in-process fabric (seeded loss,
//     latency, partitions, crash injection). The chaos harness and every
//     reproducible experiment run here; the wire is byte-identical to the
//     pre-seam code.
//   - internal/transport/udp — real UDP sockets with a static peer map,
//     used by the multi-process deployment mode so R transport shards can
//     occupy R OS processes (and, on real hardware, R cores).
//
// The contract is deliberately tiny: named nodes, 16-bit logical ports,
// fire-and-forget datagrams. Logical ports are a transport-independent
// namespace — ShardPort below is the one port-layout rule every backend
// and every fault filter shares — and each backend maps them onto its own
// addressing (netsim: the port itself; udp: a per-node real-port base plus
// the logical port).
package transport

// Datagram is one received unreliable message.
type Datagram struct {
	// From is the logical node name of the sender.
	From string
	// Payload is the datagram body. The bytes are only guaranteed valid
	// until the next TryRecv on the same lane of the same Port: backends
	// may reuse receive buffers (the udp backend does). A consumer that
	// retains payload bytes past that must copy them first.
	Payload []byte
}

// Port is one bound unreliable datagram endpoint on a node.
//
// Receiving is non-blocking and per lane: Ready signals that a datagram
// may be due, and TryRecv takes one due datagram from one lane. The
// consumer drives its own loop — the totem protocol loop selects on Ready
// next to its timers, so a datagram crosses one goroutine hand-off from the
// network to the protocol. Recv (below) is the blocking form for consumers
// that want one.
//
// Send is safe for concurrent use. Ready, TryRecv and Err are
// single-consumer: one goroutine drains the port, which is what makes the
// valid-until-next-TryRecv payload contract usable.
type Port interface {
	// Send transmits a datagram to the named node's logical port. Like
	// UDP, it never blocks awaiting delivery and never reports remote
	// failure — only local errors (closed port, unknown destination).
	// Send never keeps payload: it copies what it needs before returning,
	// as a kernel does, so the caller may reuse the buffer at once (netsim
	// copies into a pooled buffer the receiver's lane recycles; udp frames
	// into its own scratch buffer).
	Send(node string, port uint16, payload []byte) error
	// Ready receives after a datagram arrives on an empty lane, when a
	// queued datagram falls due, and after Close. It holds at most one
	// pending signal, so a consumer drains both lanes (TryRecv until false)
	// per wake-up; a wake-up may find nothing due.
	Ready() <-chan struct{}
	// TryRecv returns the next due datagram on the class's lane, or false
	// when none is due. It never blocks. A port without a control lane
	// queues everything on ClassData.
	TryRecv(class Class) (Datagram, bool)
	// Err is nil while the port is open and reports why it closed after
	// (Close, a crashed node, a failed socket). Datagrams queued before
	// the close stay receivable.
	Err() error
	// Local reports the port's own node name and logical port.
	Local() (node string, port uint16)
	// Close releases the endpoint and fires Ready.
	Close() error
}

// Recv blocks until a datagram is due on p, serving the control lane
// first, or until p has closed with both lanes drained. The payload is
// valid until the next Recv. It is the blocking form of the Port contract
// for consumers with no loop of their own (the fixed-sequencer baseline,
// the conformance suite).
func Recv(p Port) (Datagram, error) {
	for {
		if dg, ok := p.TryRecv(ClassControl); ok {
			return dg, nil
		}
		if dg, ok := p.TryRecv(ClassData); ok {
			return dg, nil
		}
		if err := p.Err(); err != nil {
			return Datagram{}, err
		}
		<-p.Ready()
	}
}

// Transport opens datagram ports on behalf of named local nodes. A
// backend may serve one node (udp: this process's identity) or many
// (netsim: every simulated host in the fabric).
type Transport interface {
	// Open binds the node's logical port. Opening a port that is already
	// bound on the same node fails; after Close the port can be rebound.
	Open(node string, port uint16) (Port, error)
}

// Class tags a datagram's scheduling priority at the transport layer.
// Control-plane traffic (totem hellos, membership packets, the token) must
// not queue behind an application-multicast backlog: a heartbeat that
// arrives late because ten thousand dataBatch frames were ahead of it in a
// receive queue reads exactly like a dead peer, which is how provisioning
// storms used to evict healthy members. Backends with a priority lane
// deliver ClassControl datagrams ahead of any queued ClassData ones; loss,
// latency, and fault filters apply to both lanes identically.
type Class uint8

const (
	// ClassData is the default lane: application multicast payloads.
	ClassData Class = iota
	// ClassControl is the priority lane: liveness and membership traffic.
	ClassControl
)

// ClassSender is optionally implemented by Ports that provide a
// control-plane priority lane. Ports without it treat every datagram as
// ClassData (plain FIFO), which is always correct — the lane is a
// scheduling hint, not a delivery guarantee.
type ClassSender interface {
	// SendClass is Send with an explicit scheduling class.
	SendClass(node string, port uint16, payload []byte, class Class) error
}

// SendClass sends via the port's priority lane when the backend has one and
// falls back to plain Send otherwise.
func SendClass(p Port, node string, port uint16, payload []byte, class Class) error {
	if cs, ok := p.(ClassSender); ok {
		return cs.SendClass(node, port, payload, class)
	}
	return p.Send(node, port, payload)
}

// ShardPort is the canonical port layout shared by every backend: shard i
// of a ring pool based at logical port base listens on base+i on every
// node. Keeping the layout a pure function of (base, shard) — and keeping
// it in logical port space, below any backend's real addressing — means
// nodes need no coordination to find each other's shards and fault
// filters can target one shard without knowing which backend carries it.
func ShardPort(base uint16, shard int) uint16 {
	return base + uint16(shard)
}
