// Package totem implements a Totem-style group communication layer:
// reliable, totally ordered multicast with a membership service, built on
// an unreliable datagram substrate (package netsim).
//
// The design follows the single-ring Totem protocol in structure:
//
//   - a token circulates the ring members in a fixed (sorted) order; only
//     the token holder assigns sequence numbers and multicasts messages,
//     yielding a single system-wide total order;
//   - the token carries a retransmission-request list and an
//     all-received-up-to (aru) watermark used to prune message logs;
//   - liveness is tracked by gossip heartbeats; loss of the token or a
//     change in the perceived live set triggers the membership protocol,
//     which forms a new ring (epoch, coordinator) and installs it on all
//     members;
//   - extended virtual synchrony: during formation, members hand their
//     old-ring state to the coordinator, which computes per-old-ring
//     recovery sets so that all new members coming from the same old ring
//     deliver the same messages in the same order before the new view is
//     delivered. Components of a partition each form their own ring and
//     continue operating; on remerge the rings fuse and recovery runs.
//
// A process-group layer is multiplexed on the ring: join/leave requests
// travel as ordered control messages, so every member observes group
// membership changes at the same point in the total order.
//
// Simplifications relative to full Totem (documented for DESIGN.md): only
// agreed delivery (not safe delivery) is implemented — a message is
// delivered as soon as it is received in contiguous sequence order; and a
// message multicast by a node that crashes before any retransmission can
// be unrecoverable, in which case members that had received it keep their
// delivery (Totem confines this case to transitional views).
package totem

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/fault"
	"repro/internal/fifo"
	"repro/internal/transport"
)

// Errors returned by the public API.
var (
	ErrStopped = errors.New("totem: ring stopped")
)

// Config parameterizes one ring endpoint.
type Config struct {
	// Node is this endpoint's node name on the fabric.
	Node string
	// Universe lists all nodes that may ever participate (the broadcast
	// domain); heartbeats are sent to every universe member.
	Universe []string
	// Port is the fabric datagram port shared by all ring endpoints.
	Port uint16

	// HeartbeatInterval is the gossip period (default 10ms).
	HeartbeatInterval time.Duration
	// MaxFailTimeout caps how far observed jitter may widen a peer's
	// failure window (default 3×failTimeoutBeats heartbeats). Each peer's
	// liveness is a phi-accrual suspicion machine fed by its hellos, with
	// failTimeoutBeats heartbeats as the window's floor.
	MaxFailTimeout time.Duration
	// ConfirmGrace is the minimum dwell in the suspect state before a peer
	// may be declared dead (default failTimeoutBeats heartbeats). A
	// heartbeat arriving during the grace retracts the suspicion instead
	// of evicting — the hysteresis that keeps a provisioning storm from
	// reforming the ring.
	ConfirmGrace time.Duration
	// StrictInvariants turns internal protocol invariant violations (e.g. a
	// non-contiguous delivery) into panics. Tests run strict; production
	// rings report the violation via Faults and recover by reformation.
	StrictInvariants bool
	// Faults, when set, receives InvariantViolation reports from the
	// degrade (non-strict) path.
	Faults *fault.Notifier
	// Observer, when set, is called synchronously on the protocol goroutine
	// for every ordered message delivered locally, before group-subscription
	// filtering (chaos harnesses record per-node delivery sequences with
	// it). It must be fast and must not call back into the Ring.
	Observer func(Deliver)
}

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 10 * time.Millisecond
	}
	if c.MaxFailTimeout <= 0 {
		c.MaxFailTimeout = 3 * failTimeoutBeats * c.HeartbeatInterval
	}
	if c.ConfirmGrace <= 0 {
		c.ConfirmGrace = failTimeoutBeats * c.HeartbeatInterval
	}
}

// Protocol timing, in heartbeats, and per-visit bounds.
const (
	// tokenTimeoutBeats heartbeats without a token visit trigger ring
	// re-formation.
	tokenTimeoutBeats = 12
	// failTimeoutBeats heartbeats floor a peer's adaptive failure window
	// (thresholds phi 1 to suspect, phi 8 to fail).
	failTimeoutBeats = 6
	// acceptTimeoutBeats heartbeats bound the coordinator's wait for
	// accepts.
	acceptTimeoutBeats = 10
	// settleBeats is how many heartbeats a would-be coordinator waits for
	// the live set to stabilize before proposing.
	settleBeats = 3
	// maxBatch bounds messages multicast per token visit.
	maxBatch = 64
	// maxBatchBytes bounds payload bytes multicast per token visit — the
	// token-driven flow control that keeps one node's large transfers
	// from stalling token circulation.
	maxBatchBytes = 256 << 10
	// maxFrameBytes bounds the payload bytes coalesced into one fabric
	// datagram when the token holder drains its send queue. A message
	// larger than the bound still travels, alone in an oversized frame.
	maxFrameBytes = 60 << 10
	// maxSendQueue bounds the number of locally queued multicasts; when
	// the bound is reached Multicast blocks until the token drains the
	// queue (backpressure), so overload degrades to throttling instead of
	// unbounded memory growth.
	maxSendQueue = 8192
	// serveBudget bounds the datagrams the protocol loop handles per
	// wake-up of the port, so a saturated port cannot starve the heartbeat
	// tick (liveness gossip and the failure detector hang off it).
	serveBudget = 128
	// tokenDrain bounds the data frames handled ahead of a token.
	tokenDrain = 256
)

// ring states.
const (
	stForming      = iota + 1 // no installed ring usable; waiting to form
	stAwaitAccepts            // coordinator collecting accepts
	stOperational             // token circulating
)

type outMsg struct {
	group   string
	payload []byte
	// keyLen > 0 makes the message withdrawable: payload[:keyLen] is its
	// withdraw key (see MulticastOnce).
	keyLen int
}

// Ring is one node's endpoint of the group communication layer.
type Ring struct {
	cfg    Config
	port   transport.Port
	events *fifo.Queue[Delivery]

	// Application-facing state, guarded by mu.
	mu       sync.Mutex
	sendCond *sync.Cond // signaled when sendQ shrinks or the ring stops
	sendQ    []outMsg
	// sendSpare is sendQ's second buffer, owned by the protocol loop: a
	// token visit moves what it leaves queued into it, makes it the queue,
	// and keeps the taken batch's storage, emptied once sent, as the next
	// spare. The queue thus never regrows from empty.
	sendSpare []outMsg
	// keyed counts the withdrawable entries in sendQ. It changes under mu;
	// delivery reads it without the lock, so a ring with nothing keyed
	// queued pays one atomic load per delivered message.
	keyed   atomic.Int64
	subs    map[string]bool
	stopped bool
	// Published snapshots, updated by the protocol loop. pubMembers and
	// each pubGroups list are shared with the events that announced them
	// and never modified.
	pubRing    RingID
	pubMembers []string
	pubGroups  map[string][]string

	// Protocol state, owned by the run goroutine.
	ring       RingID
	members    []string
	state      int
	maxEpoch   uint64
	needReform bool // degrade-mode invariant recovery pending

	// Formation (formation.go).
	peerFD      map[string]*fault.Suspicion // adaptive per-peer liveness
	alive       []string                    // aliveSet's storage
	formingFrom time.Time
	formingRing RingID
	formMembers []string
	accepts     map[string]*accept

	// Ordering and delivery (order.go).
	store        map[uint64]storedMsg
	delivered    uint64
	pruned       uint64
	lastToken    time.Time
	lastRound    uint64
	lastDeliver  delivPoint // the delivery-contiguity check's last delivery
	groupMembers map[string]map[string]bool
	tokenHold               // the token this node last handled; reset as a whole
	rx           hotPackets // decode storage for received tokens, data frames and heartbeats
	tx           dataBatch  // the data frame sendBatch and resend build, reused frame to frame

	// Send path (loop.go). enc is the encoder every packet the protocol
	// loop sends is written into (see encode); hb and nudgeOut are the
	// heartbeat and the nudge, rebuilt in place each time one is sent.
	enc      cdr.Encoder
	hb       hello
	nudgeOut nudge

	// wakeCh (1-slot) wakes the protocol loop for local events: Multicast
	// queued work (resume a parked token, or nudge the coordinator) and a
	// singleton ring's self-addressed token.
	wakeCh   chan struct{}
	directCh chan *direct // unordered point-to-point lane (SendDirect)
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// Direct-lane handler, set once via SetDirectHandler before traffic
	// flows (rings are constructed before the engines that consume them,
	// so this cannot be a Config field).
	directMu sync.RWMutex
	directFn func(from, group string, payload []byte)

	// Stats counters (read via Stats), written by the protocol loop.
	statDelivered, statSent, statRetrans  atomic.Uint64
	statForms, statBatches, statWithdrawn atomic.Uint64
}

// Stats is a snapshot of protocol counters.
type Stats struct {
	Delivered  uint64 // ordered messages delivered locally
	Sent       uint64 // messages this node originated
	Retransmit uint64 // retransmissions this node served
	Formations uint64 // ring formations participated in
	Batches    uint64 // coalesced multi-message frames this node emitted
	Withdrawn  uint64 // queued messages withdrawn before sending (MulticastOnce)
	// QueueHighWater is the largest batch the consumer drained from the
	// ordered stream: how far delivery ran ahead of the application.
	QueueHighWater uint64
}

// NewRing creates (but does not start) a ring endpoint on the transport
// (the netsim fabric for deterministic in-process runs, a udp.Transport
// for real-socket multi-process deployments).
func NewRing(tp transport.Transport, cfg Config) (*Ring, error) {
	cfg.fill()
	if cfg.Node == "" {
		return nil, errors.New("totem: Config.Node required")
	}
	port, err := tp.Open(cfg.Node, cfg.Port)
	if err != nil {
		return nil, fmt.Errorf("totem: open port: %w", err)
	}
	r := &Ring{
		cfg:          cfg,
		port:         port,
		events:       fifo.New[Delivery](),
		subs:         make(map[string]bool),
		peerFD:       make(map[string]*fault.Suspicion),
		store:        make(map[uint64]storedMsg),
		groupMembers: make(map[string]map[string]bool),
		wakeCh:       make(chan struct{}, 1),
		directCh:     make(chan *direct, 1024),
		stopCh:       make(chan struct{}),
		state:        stForming,
		formingFrom:  time.Now(),
		pubGroups:    make(map[string][]string),
	}
	r.sendCond = sync.NewCond(&r.mu)
	return r, nil
}

// Start launches the protocol goroutines.
func (r *Ring) Start() {
	r.wg.Add(2)
	go r.run()
	go r.runDirect()
}

// Stop shuts the endpoint down and waits for its goroutines.
func (r *Ring) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.sendCond.Broadcast()
	r.mu.Unlock()
	close(r.stopCh)
	r.port.Close()
	r.events.Close()
	r.wg.Wait()
}

// Node returns this endpoint's node name.
func (r *Ring) Node() string { return r.cfg.Node }

// Drain returns every entry queued on the ordered stream, in order, and
// whether the stream is closed (the ring stopped; nothing follows). prev
// hands back the batch the previous Drain returned: it is cleared and its
// storage reused. A consumer loops: Drain, handle the batch, return if
// closed, and wait on Ready when the batch came back empty. The ring never
// blocks on its consumer, so the stream is unbounded.
func (r *Ring) Drain(prev []Delivery) ([]Delivery, bool) { return r.events.Drain(prev) }

// Ready receives when the ordered stream may have entries or has closed.
func (r *Ring) Ready() <-chan struct{} { return r.events.Ready() }

// Multicast queues a totally ordered multicast to a process group. The
// message is sent when the token next visits this node; delivery is to all
// subscribed members of the group, in the system-wide total order, on every
// node of the component.
//
// Ownership: the ring retains payload without copying (it stays in the
// message log, and is encoded from there into every frame and resend that
// carries it, until every member has it); the caller must not mutate it
// after Multicast returns. Reusing the same immutable buffer across calls
// (e.g. for retransmissions) is fine.
//
// When maxSendQueue messages are already queued, Multicast blocks until the
// token drains the queue (or the ring stops): overload applies backpressure
// to producers instead of growing memory without bound.
func (r *Ring) Multicast(group string, payload []byte) error {
	return r.MulticastOnce(group, payload, 0)
}

// MulticastOnce is Multicast for a message that only one of several
// senders needs to get onto the wire: its first keyLen bytes are a withdraw
// key. While the message waits in this node's send queue, the delivery of
// a message from another sender in the same group whose payload starts
// with the same key bytes withdraws it: it is never sent. Once the token
// has taken it, it is sent like any other. keyLen 0 is Multicast.
//
// The matching message is delivered, in the same total order, to every
// member of the configuration, so a receiver that waits for any one of the
// senders' messages misses nothing when the others are withdrawn.
func (r *Ring) MulticastOnce(group string, payload []byte, keyLen int) error {
	keyLen = min(max(keyLen, 0), len(payload))
	r.mu.Lock()
	for !r.stopped && len(r.sendQ) >= maxSendQueue {
		r.sendCond.Wait()
	}
	if r.stopped {
		r.mu.Unlock()
		return ErrStopped
	}
	wasEmpty := len(r.sendQ) == 0
	r.sendQ = append(r.sendQ, outMsg{group: group, payload: payload, keyLen: keyLen})
	if keyLen > 0 {
		r.keyed.Add(1)
	}
	r.mu.Unlock()
	if wasEmpty {
		// Wake the protocol loop: a token parked here should resume now,
		// and a member may need to nudge the coordinator.
		r.wake()
	}
	return nil
}

// SetDirectHandler registers the callback invoked for every direct
// (point-to-point, unordered) message addressed to this endpoint. The
// callback runs on a dedicated delivery goroutine — never on the protocol
// loop — so handling latency is decoupled from token pacing, but it must
// still be quick (hand off to a queue) or it backlogs the direct lane.
// Calling back into the Ring (SendDirect, Multicast) from the handler is
// allowed.
func (r *Ring) SetDirectHandler(fn func(from, group string, payload []byte)) {
	r.directMu.Lock()
	r.directFn = fn
	r.directMu.Unlock()
}

// SendDirect sends an unordered point-to-point message to one ring
// endpoint, bypassing the token and the total order entirely. Delivery is
// best-effort with UDP semantics: no retransmission, no ordering relative
// to anything, silently dropped if the peer is down, partitioned, has no
// handler registered, or its direct lane is full. Callers layer their own
// request/response retries on top, falling back to the ordered multicast
// path for liveness.
//
// SendDirect runs on the caller's goroutine, so it encodes into a pooled
// encoder of its own, released once the transport has copied the packet.
// A message to another node keeps nothing of payload; a message to this
// node reaches the handler as payload itself, so the caller must not
// mutate payload after SendDirect returns.
func (r *Ring) SendDirect(to, group string, payload []byte) error {
	r.mu.Lock()
	stopped := r.stopped
	r.mu.Unlock()
	if stopped {
		return ErrStopped
	}
	if to == r.cfg.Node {
		// Loopback: skip the wire, deliver on the direct goroutine (the
		// caller may hold locks the handler also wants).
		select {
		case r.directCh <- &direct{From: r.cfg.Node, Group: group, Payload: payload}:
		default: // lane full: drop, like UDP
		}
		return nil
	}
	d := direct{From: r.cfg.Node, Group: group, Payload: payload}
	e := cdr.GetEncoderSized(cdr.BigEndian, packetSizeHint(&d))
	defer e.Release()
	if err := writePacket(e, &d); err != nil {
		return err
	}
	r.sendRaw(to, e.Bytes())
	return nil
}

// JoinGroup subscribes this node to a group. The join is announced as an
// ordered control message so all members observe it at the same point.
func (r *Ring) JoinGroup(group string) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return ErrStopped
	}
	r.subs[group] = true
	r.mu.Unlock()
	return r.Multicast(ctlGroup, encodeCtl(ctlJoin, r.cfg.Node, group))
}

// LeaveGroup unsubscribes this node from a group.
func (r *Ring) LeaveGroup(group string) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return ErrStopped
	}
	delete(r.subs, group)
	r.mu.Unlock()
	return r.Multicast(ctlGroup, encodeCtl(ctlLeave, r.cfg.Node, group))
}

// CurrentRing returns the installed ring id and membership (snapshot).
func (r *Ring) CurrentRing() (RingID, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pubRing, slices.Clone(r.pubMembers)
}

// GroupMembers returns the current members of a process group (snapshot).
func (r *Ring) GroupMembers(group string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.pubGroups[group])
}

// Stats returns a snapshot of protocol counters.
func (r *Ring) Stats() Stats {
	return Stats{
		Delivered:      r.statDelivered.Load(),
		Sent:           r.statSent.Load(),
		Retransmit:     r.statRetrans.Load(),
		Formations:     r.statForms.Load(),
		Batches:        r.statBatches.Load(),
		Withdrawn:      r.statWithdrawn.Load(),
		QueueHighWater: uint64(r.events.HighWater()),
	}
}
