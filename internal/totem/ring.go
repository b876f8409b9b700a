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
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/fault"
	"repro/internal/fifo"
	"repro/internal/transport"
)

// ctlGroup is the reserved process-group name used for membership control
// messages (join/leave).
const ctlGroup = "\x00ctl"

// Control message opcodes.
const (
	ctlJoin  = 1
	ctlLeave = 2
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

// backlog is a closed channel: the protocol loop selects on it in place of
// the port's Ready when a wake-up stopped at serveBudget with datagrams
// left, so it comes straight back once stop, the tick and wakes have had
// their turn.
var backlog = func() <-chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

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
	// Published snapshots, updated by the protocol loop.
	pubRing    RingID
	pubMembers []string
	pubGroups  map[string][]string

	// Protocol state, owned by the run goroutine.
	ring        RingID
	members     []string
	state       int
	maxEpoch    uint64
	peerFD      map[string]*fault.Suspicion // adaptive per-peer liveness
	formingFrom time.Time
	formingRing RingID
	formMembers []string
	accepts     map[string]*accept

	store     map[uint64]storedMsg
	delivered uint64
	pruned    uint64
	lastToken time.Time
	lastRound uint64
	// retained is the token this node last handled (the resend and unpark
	// source). It points into tokBuf, which double-buffers it: a handled
	// token is copied into the buffer retained does not point at, reusing
	// its Rtr storage, instead of into a fresh copy every hop.
	retained     *token
	tokBuf       [2]token
	retainedNext string
	groupMembers map[string]map[string]bool
	pace         pacer
	rx           hotPackets // decode storage for received tokens, data frames and heartbeats
	tx           dataBatch  // the data frame sendBatch builds, reused frame to frame
	// enc is the encoder every packet the protocol loop sends is written
	// into (see encode); hb, alive and nudgeOut are the heartbeat, its
	// live set and the nudge, rebuilt in place each time one is sent.
	enc      cdr.Encoder
	hb       hello
	alive    []string
	nudgeOut nudge
	// installRaw is the coordinator's encoded install for the ring it
	// formed, resent with the retained token until the first token round
	// returns — proof that every member installed.
	installRaw []byte
	// selfToken marks the token of a singleton ring as due back here; the
	// loop's wake channel carries it.
	selfToken bool

	// wakeCh (1-slot) wakes the protocol loop for local events: Multicast
	// queued work (resume a parked token, or nudge the coordinator) and a
	// singleton ring's self-addressed token.
	wakeCh     chan struct{}
	directCh   chan *direct // unordered point-to-point lane (SendDirect)
	stopCh     chan struct{}
	wg         sync.WaitGroup
	lastSeq    map[RingID]uint64 // per-ring delivery contiguity tracking
	needReform bool              // degrade-mode invariant recovery pending

	// Direct-lane handler, set once via SetDirectHandler before traffic
	// flows (rings are constructed before the engines that consume them,
	// so this cannot be a Config field).
	directMu sync.RWMutex
	directFn func(from, group string, payload []byte)

	// Stats counters (read via Stats).
	statMu        sync.Mutex
	statDelivered uint64
	statSent      uint64
	statRetrans   uint64
	statForms     uint64
	statBatches   uint64
	statWithdrawn uint64
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
		lastSeq:      make(map[RingID]uint64),
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

// withdraw drops every queued withdrawable message whose key the delivered
// message m (from another sender) matches, and releases backpressured
// senders if the queue shrank.
func (r *Ring) withdraw(m storedMsg) {
	r.mu.Lock()
	q := r.sendQ[:0]
	for _, om := range r.sendQ {
		if om.keyLen > 0 && om.group == m.Group && bytes.HasPrefix(m.Payload, om.payload[:om.keyLen]) {
			continue
		}
		q = append(q, om)
	}
	n := len(r.sendQ) - len(q)
	if n > 0 {
		clear(r.sendQ[len(q):]) // drop the withdrawn payloads' references
		r.sendQ = q
		r.keyed.Add(-int64(n))
		r.sendCond.Broadcast() // queue shrank: release backpressured senders
	}
	r.mu.Unlock()
	if n > 0 {
		r.statMu.Lock()
		r.statWithdrawn += uint64(n)
		r.statMu.Unlock()
	}
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
	return r.pubRing, append([]string(nil), r.pubMembers...)
}

// GroupMembers returns the current members of a process group (snapshot).
func (r *Ring) GroupMembers(group string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.pubGroups[group]...)
}

// Stats returns a snapshot of protocol counters.
func (r *Ring) Stats() Stats {
	high := uint64(r.events.HighWater())
	r.statMu.Lock()
	defer r.statMu.Unlock()
	return Stats{
		Delivered:      r.statDelivered,
		Sent:           r.statSent,
		Retransmit:     r.statRetrans,
		Formations:     r.statForms,
		Batches:        r.statBatches,
		Withdrawn:      r.statWithdrawn,
		QueueHighWater: high,
	}
}

func encodeCtl(op byte, node, group string) []byte {
	e := cdr.GetEncoder(cdr.BigEndian)
	e.WriteOctet(op)
	e.WriteString(node)
	e.WriteString(group)
	out := e.TakeBytes()
	e.Release()
	return out
}

func decodeCtl(b []byte) (op byte, node, group string, err error) {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	if op, err = d.ReadOctet(); err != nil {
		return
	}
	if node, err = d.ReadString(); err != nil {
		return
	}
	group, err = d.ReadString()
	return
}

// --- Goroutines ----------------------------------------------------------

// wake signals the protocol loop's wake channel; a wake already pending
// covers this one.
func (r *Ring) wake() {
	select {
	case r.wakeCh <- struct{}{}:
	default:
	}
}

// runDirect delivers direct-lane messages to the registered handler on a
// goroutine of their own, decoupled from the protocol loop.
func (r *Ring) runDirect() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stopCh:
			return
		case d := <-r.directCh:
			r.directMu.RLock()
			fn := r.directFn
			r.directMu.RUnlock()
			if fn != nil {
				fn(d.From, d.Group, d.Payload)
			}
		}
	}
}

// run is the protocol loop. It owns the transport port's receive side: a
// datagram goes from the port's lane to its handler with no goroutine in
// between.
func (r *Ring) run() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.HeartbeatInterval)
	defer ticker.Stop()
	ready := r.port.Ready()
	for {
		select {
		case <-r.stopCh:
			return
		case <-ticker.C:
			r.tick()
		case <-r.wakeCh:
			r.handleWake()
		case <-ready:
			ready = r.port.Ready()
			if r.serve() {
				ready = backlog
			}
		}
	}
}

// serve handles up to serveBudget due datagrams, polling the control lane
// before each data frame so a heartbeat or token arriving mid-backlog is
// served first, and reports whether it stopped at the bound.
//
// The token is the one control packet whose handling depends on the data
// frames already received: computing its retransmission-request list while
// those frames sit unread would ask the ring to resend messages that are
// already here. So the data lane is drained (bounded) before a token is
// decoded — priority for liveness, arrival order for the token's view of
// the store. The token's bytes stay valid meanwhile: a payload lives until
// the next TryRecv on its own lane.
func (r *Ring) serve() bool {
	for n := 0; n < serveBudget; n++ {
		if dg, ok := r.port.TryRecv(transport.ClassControl); ok {
			if pktType(firstOctet(dg.Payload)) == pktToken {
				for i := 0; i < tokenDrain; i++ {
					d, ok := r.port.TryRecv(transport.ClassData)
					if !ok {
						break
					}
					r.receive(d)
				}
			}
			r.receive(dg)
			continue
		}
		dg, ok := r.port.TryRecv(transport.ClassData)
		if !ok {
			return false
		}
		r.receive(dg)
	}
	return true
}

// receive decodes and handles one datagram. Payload-bearing packets are
// copied off the transport buffer exactly once and their payloads alias
// that copy — one allocation per frame instead of one per batched message.
// Everything else decodes off the transport buffer; tokens and data frames
// land in the ring's hot decode storage (see hotPackets for how long a
// decoded packet lives).
func (r *Ring) receive(dg transport.Datagram) {
	b, owned := dg.Payload, false
	switch pktType(firstOctet(b)) {
	case pktData, pktDataBatch, pktDirect:
		b, owned = append(make([]byte, 0, len(b)), b...), true
	}
	pkt, err := decodePacketIn(b, owned, &r.rx)
	if err != nil {
		return // corrupt datagram: drop, like UDP
	}
	// Direct packets carry no ordering state: they go to their own lane
	// and goroutine, so their latency is not coupled to token processing.
	// A full lane drops (UDP semantics).
	if d, ok := pkt.(*direct); ok {
		select {
		case r.directCh <- d:
		default:
		}
		return
	}
	r.handlePacket(pkt)
}

// --- Protocol ------------------------------------------------------------

// reportInvariant handles a broken internal invariant: fatal under
// StrictInvariants (tests), otherwise reported to the fault notifier so the
// layers above can react while the ring recovers.
func (r *Ring) reportInvariant(detail string) {
	if r.cfg.StrictInvariants {
		panic(detail)
	}
	if r.cfg.Faults != nil {
		r.cfg.Faults.Push(fault.Report{
			Kind:   fault.InvariantViolation,
			Node:   r.cfg.Node,
			Detail: detail,
		})
	}
}

// sendRaw transmits an encoded packet on the transport lane matching its
// wire classification: liveness, membership, and token traffic ride the
// control-plane priority lane so they never queue behind an
// application-multicast backlog (backends without a lane fall back to
// plain FIFO sends).
func (r *Ring) sendRaw(to string, raw []byte) {
	class := transport.ClassData
	switch Classify(raw) {
	case ClassHello, ClassMembership, ClassToken:
		class = transport.ClassControl
	}
	_ = transport.SendClass(r.port, to, r.cfg.Port, raw, class)
}

// maxKeptEncoding bounds the buffer the ring's encoder keeps between
// sends: the largest coalesced data frame (maxFrameBytes of messages) and
// its headers fit. A larger packet — a single oversized message, an
// accept carrying a big message store — leaves with its buffer, so a rare
// big send does not pin its size for the ring's lifetime.
const maxKeptEncoding = 64 << 10

// encode writes pkt into the ring's encoder and returns the bytes, valid
// until the next encode. The transport copies what it sends, so every
// token, data frame, nudge and heartbeat the protocol loop sends reuses
// one buffer. Protocol loop only.
func (r *Ring) encode(pkt any) ([]byte, error) {
	r.enc.Reset()
	r.enc.Grow(packetSizeHint(pkt))
	if err := writePacket(&r.enc, pkt); err != nil {
		return nil, err
	}
	if r.enc.Len() > maxKeptEncoding {
		return r.enc.TakeBytes(), nil
	}
	return r.enc.Bytes(), nil
}

func (r *Ring) send(to string, pkt any) {
	if to == r.cfg.Node {
		// Loopback: handle inline to avoid a needless trip through the
		// fabric (and possible loss).
		r.handlePacket(pkt)
		return
	}
	raw, err := r.encode(pkt)
	if err != nil {
		r.reportInvariant(err.Error())
		return
	}
	r.sendRaw(to, raw)
}

func (r *Ring) broadcastMembers(pkt any, includeSelf bool) {
	raw, err := r.encode(pkt)
	if err != nil {
		r.reportInvariant(err.Error())
		if includeSelf {
			r.handlePacket(pkt)
		}
		return
	}
	r.sendToMembers(raw)
	if includeSelf {
		r.handlePacket(pkt)
	}
}

// sendToMembers sends an encoded packet to every other ring member.
func (r *Ring) sendToMembers(raw []byte) {
	for _, m := range r.members {
		if m != r.cfg.Node {
			r.sendRaw(m, raw)
		}
	}
}

// aliveSet returns the sorted nodes this one hears, itself included, in
// ring-owned storage valid until the next call.
func (r *Ring) aliveSet() []string {
	// A peer stays alive through the whole suspect phase — only a
	// confirmed death (phi past the fail threshold AND the ConfirmGrace
	// dwell elapsed) removes it and triggers reformation.
	alive := append(r.alive[:0], r.cfg.Node)
	for n, s := range r.peerFD {
		if s.State() != fault.StateDead {
			alive = append(alive, n)
		}
	}
	sort.Strings(alive)
	r.alive = alive
	return alive
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (r *Ring) tick() {
	now := time.Now()
	r.evalPeers(now)
	alive := r.aliveSet()
	// Gossip a heartbeat to the whole universe.
	r.hb = hello{From: r.cfg.Node, Alive: alive, MaxEpoch: r.maxEpoch, Ring: r.ring}
	if raw, err := r.encode(&r.hb); err == nil {
		for _, n := range r.cfg.Universe {
			if n != r.cfg.Node {
				r.sendRaw(n, raw)
			}
		}
	}

	// A degrade-mode invariant violation was detected since the last tick:
	// recover by reforming the ring (EVS recovery plus the state-transfer
	// machinery above re-synchronize the members).
	if r.needReform && r.state == stOperational {
		r.needReform = false
		r.enterForming(now)
		return
	}

	switch r.state {
	case stOperational:
		if !sameStrings(alive, r.members) {
			r.enterForming(now)
			return
		}
		r.paceTick(now)
		if now.Sub(r.lastToken) > tokenTimeoutBeats*r.cfg.HeartbeatInterval {
			r.enterForming(now)
			return
		}
		// Token retransmission: if the token is overdue by a quarter of
		// the timeout, resend our retained copy (a stale round is dropped
		// as a duplicate downstream). A quarter, not a half: each lost hop
		// costs one resend delay before the next member sees the token,
		// so two consecutive lost hops must fit inside one timeout.
		// A member that missed the install ignores the new ring's token, so
		// until the first round returns the install goes out again with it
		// (members that have it drop the duplicate).
		if r.retained != nil && r.retained.Ring == r.ring &&
			now.Sub(r.lastToken) > tokenTimeoutBeats*r.cfg.HeartbeatInterval/4 {
			if r.installRaw != nil {
				r.sendToMembers(r.installRaw)
			}
			r.send(r.retainedNext, r.retained)
		}
	case stForming:
		if len(alive) > 0 && alive[0] == r.cfg.Node && now.Sub(r.formingFrom) >= settleBeats*r.cfg.HeartbeatInterval {
			r.proposeRing(alive)
		}
	case stAwaitAccepts:
		if now.Sub(r.formingFrom) > acceptTimeoutBeats*r.cfg.HeartbeatInterval {
			// Some member never answered; fall back and let the live set
			// re-stabilize (a dead member's suspicion machine confirms its
			// death and drops it from the alive set).
			r.state = stForming
			r.formingFrom = now
		}
	}
}

func (r *Ring) enterForming(now time.Time) {
	r.state = stForming
	r.formingFrom = now
	r.retained = nil
	r.selfToken = false
	r.installRaw = nil
	r.pace = pacer{}
}

func (r *Ring) proposeRing(members []string) {
	r.maxEpoch++
	r.formingRing = RingID{Epoch: r.maxEpoch, Coord: r.cfg.Node}
	r.formMembers = append([]string(nil), members...)
	r.accepts = make(map[string]*accept, len(members))
	r.state = stAwaitAccepts
	r.formingFrom = time.Now()
	p := &propose{Ring: r.formingRing, Members: r.formMembers}
	for _, m := range r.formMembers {
		r.send(m, p)
	}
}

func (r *Ring) handlePacket(pkt any) {
	switch v := pkt.(type) {
	case *hello:
		r.handleHello(v)
	case *propose:
		r.handlePropose(v)
	case *accept:
		r.handleAccept(v)
	case *install:
		r.handleInstall(v)
	case *token:
		r.handleToken(v)
	case *data:
		r.handleData(v)
	case *dataBatch:
		r.handleDataBatch(v)
	case *nudge:
		if v.Ring == r.ring {
			r.handleNudge()
		}
	}
}

// handleWake serves the wake channel: a singleton ring's token due back
// here, or freshly queued local work, which resumes a token parked here —
// and a member that has seen the ring go quiet nudges the coordinator,
// where the token may be parked.
func (r *Ring) handleWake() {
	if r.selfToken {
		// The singleton's next visit also collects any work whose wake this
		// one absorbed: that work was queued before its wake was sent. Going
		// on to unpark would undo a park this visit just made, and the idle
		// singleton would spin.
		r.selfToken = false
		if r.retained != nil {
			r.rehandleRetained()
		}
		return
	}
	if r.state != stOperational || r.unpark() {
		return
	}
	if r.ring.Coord != r.cfg.Node && r.pace.quietRounds >= 1 {
		r.sendNudge()
	}
}

func (r *Ring) handleHello(h *hello) {
	now := time.Now()
	if h.From != r.cfg.Node {
		s := r.peerFD[h.From]
		if s == nil {
			s = fault.NewSuspicion(fault.SuspicionConfig{
				MinWindow:    failTimeoutBeats * r.cfg.HeartbeatInterval,
				MaxWindow:    r.cfg.MaxFailTimeout,
				ConfirmGrace: r.cfg.ConfirmGrace,
			})
			r.peerFD[h.From] = s
		}
		switch s.Observe(now) {
		case fault.TransRetract, fault.TransRecover:
			r.pushPeerEvent(h.From, fault.EventRecover, now)
		}
	}
	if h.MaxEpoch > r.maxEpoch {
		r.maxEpoch = h.MaxEpoch
	}
}

// evalPeers advances every peer's suspicion machine to now. Raised suspicions are reported via Faults so the
// replication tier can quarantine the peer; a confirmed death emits no
// report from here — it only changes aliveSet, and the resulting
// membership eviction is what the replication engine reports as the
// confirmed NodeCrash fault.
func (r *Ring) evalPeers(now time.Time) {
	for peer, s := range r.peerFD {
		if s.Eval(now) == fault.TransSuspect {
			r.pushPeerEvent(peer, fault.EventSuspect, now)
		}
	}
}

// pushPeerEvent reports a peer-liveness transition to the fault notifier.
func (r *Ring) pushPeerEvent(peer string, ev fault.Event, now time.Time) {
	if r.cfg.Faults == nil {
		return
	}
	r.cfg.Faults.Push(fault.Report{
		Kind:     fault.NodeCrash,
		Event:    ev,
		Node:     peer,
		Member:   peer,
		Detected: now,
	})
}

// makeAccept snapshots this node's old-ring state for the coordinator.
func (r *Ring) makeAccept(ringID RingID) *accept {
	stored := make([]storedMsg, 0, len(r.store))
	for _, m := range r.store {
		stored = append(stored, m)
	}
	sort.Slice(stored, func(i, j int) bool { return stored[i].Seq < stored[j].Seq })
	r.mu.Lock()
	groups := make([]string, 0, len(r.subs))
	for g := range r.subs {
		groups = append(groups, g)
	}
	r.mu.Unlock()
	sort.Strings(groups)
	return &accept{
		Ring:      ringID,
		From:      r.cfg.Node,
		OldRing:   r.ring,
		Delivered: r.delivered,
		Stored:    stored,
		Groups:    groups,
	}
}

func (r *Ring) handlePropose(p *propose) {
	if p.Ring.Epoch > r.maxEpoch {
		r.maxEpoch = p.Ring.Epoch
	}
	// Ignore proposals for rings not newer than the installed one.
	if !r.ring.Less(p.Ring) {
		return
	}
	// If we are coordinating a competing formation with a smaller id,
	// abandon it in favor of the larger.
	if r.state == stAwaitAccepts && p.Ring.Less(r.formingRing) {
		return
	}
	if r.state == stOperational {
		r.enterForming(time.Now())
	}
	r.send(p.Ring.Coord, r.makeAccept(p.Ring))
}

func (r *Ring) handleAccept(a *accept) {
	if r.state != stAwaitAccepts || a.Ring != r.formingRing {
		return
	}
	r.accepts[a.From] = a
	for _, m := range r.formMembers {
		if _, ok := r.accepts[m]; !ok {
			return
		}
	}
	r.finishFormation()
}

func (r *Ring) finishFormation() {
	// Union the old-ring states per old ring for EVS recovery.
	byRing := make(map[RingID]map[uint64]storedMsg)
	subs := make([]groupSub, 0)
	for _, a := range r.accepts {
		for _, g := range a.Groups {
			subs = append(subs, groupSub{Node: a.From, Group: g})
		}
		if a.OldRing.IsZero() {
			continue
		}
		set := byRing[a.OldRing]
		if set == nil {
			set = make(map[uint64]storedMsg)
			byRing[a.OldRing] = set
		}
		for _, m := range a.Stored {
			if _, ok := set[m.Seq]; !ok {
				set[m.Seq] = m
			}
		}
	}
	recovery := make([]recoverySet, 0, len(byRing))
	for rid, set := range byRing {
		msgs := make([]storedMsg, 0, len(set))
		for _, m := range set {
			msgs = append(msgs, m)
		}
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].Seq < msgs[j].Seq })
		recovery = append(recovery, recoverySet{OldRing: rid, Msgs: msgs})
	}
	sort.Slice(recovery, func(i, j int) bool { return recovery[i].OldRing.Less(recovery[j].OldRing) })
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].Node != subs[j].Node {
			return subs[i].Node < subs[j].Node
		}
		return subs[i].Group < subs[j].Group
	})

	ins := &install{
		Ring:     r.formingRing,
		Members:  r.formMembers,
		Recovery: recovery,
		Subs:     subs,
	}
	raw, err := encodePacket(ins)
	if err != nil {
		r.reportInvariant(err.Error())
		return
	}
	for _, m := range r.formMembers {
		if m != r.cfg.Node {
			r.sendRaw(m, raw)
		}
	}
	r.handleInstall(ins)
	if r.ring == ins.Ring && len(r.members) > 1 {
		r.installRaw = raw
	}
}

func (r *Ring) handleInstall(ins *install) {
	if !r.ring.Less(ins.Ring) {
		return
	}
	if ins.Ring.Epoch > r.maxEpoch {
		r.maxEpoch = ins.Ring.Epoch
	}

	// EVS recovery: deliver the suffix of old-ring messages we are
	// missing, in contiguous sequence order, before the new view. The
	// union stops being useful at the first hole — a message no new
	// member still stores (pruned after full dissemination in a component
	// this node was cut off from) is unrecoverable here, and skipping past
	// it would silently diverge this node from members that delivered it.
	// Delivery stops at the hole; the layers above re-synchronize such a
	// member by state transfer.
	for _, rs := range ins.Recovery {
		if rs.OldRing != r.ring || r.ring.IsZero() {
			continue
		}
		for _, m := range rs.Msgs {
			if m.Seq <= r.delivered {
				continue
			}
			if m.Seq != r.delivered+1 {
				break
			}
			r.delivered = m.Seq
			r.deliverMsg(r.ring, m)
		}
	}

	wasCoordinator := ins.Ring.Coord == r.cfg.Node
	// Old-ring contiguity tracking is no longer needed once its EVS
	// recovery (above) has run; drop it so the map stays bounded.
	for rid := range r.lastSeq {
		if rid != ins.Ring {
			delete(r.lastSeq, rid)
		}
	}
	r.ring = ins.Ring
	r.members = append([]string(nil), ins.Members...)
	r.state = stOperational
	r.store = make(map[uint64]storedMsg)
	r.delivered = 0
	r.pruned = 0
	r.lastRound = 0
	r.lastToken = time.Now()
	r.retained = nil
	r.selfToken = false
	r.installRaw = nil
	r.pace = pacer{}

	// Rebuild group membership from the collected subscriptions.
	r.groupMembers = make(map[string]map[string]bool)
	for _, s := range ins.Subs {
		set := r.groupMembers[s.Group]
		if set == nil {
			set = make(map[string]bool)
			r.groupMembers[s.Group] = set
		}
		set[s.Node] = true
	}

	r.statMu.Lock()
	r.statForms++
	r.statMu.Unlock()

	r.publish()
	r.events.Push(Delivery{Event: ViewChange{Ring: r.ring, Members: append([]string(nil), r.members...)}})
	groups := make([]string, 0, len(r.groupMembers))
	for g := range r.groupMembers {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		r.events.Push(Delivery{Event: GroupView{Ring: r.ring, Group: g, Members: r.groupMemberList(g)}})
	}

	if wasCoordinator {
		t := &token{Ring: r.ring, Round: 0, Seq: 0, Aru: math.MaxUint64, LastAru: 0}
		r.handleToken(t)
	}
}

func (r *Ring) groupMemberList(g string) []string {
	set := r.groupMembers[g]
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// publish refreshes the snapshot accessors.
func (r *Ring) publish() {
	r.mu.Lock()
	r.pubRing = r.ring
	r.pubMembers = append([]string(nil), r.members...)
	r.pubGroups = make(map[string][]string, len(r.groupMembers))
	for g := range r.groupMembers {
		r.pubGroups[g] = r.groupMemberList(g)
	}
	r.mu.Unlock()
}

func (r *Ring) successor() string {
	idx := sort.SearchStrings(r.members, r.cfg.Node)
	next := (idx + 1) % len(r.members)
	return r.members[next]
}

func (r *Ring) handleToken(t *token) {
	if r.state != stOperational || t.Ring != r.ring {
		return
	}
	coord := r.ring.Coord == r.cfg.Node
	if coord {
		// The coordinator opens a new round: finalize last round's aru.
		t.Round++
		t.LastAru = t.Aru
		if t.LastAru == math.MaxUint64 {
			t.LastAru = 0
		}
		t.Aru = math.MaxUint64
	}
	if t.Round <= r.lastRound {
		return // duplicate (token retransmission raced the original)
	}
	r.lastRound = t.Round
	r.lastToken = time.Now()
	if coord && t.Round > 1 {
		r.installRaw = nil // the first round came back: every member installed
	}

	// Serve retransmission requests we can satisfy.
	hadRtr := len(t.Rtr) > 0
	if hadRtr {
		remaining := t.Rtr[:0]
		for _, seq := range t.Rtr {
			if m, ok := r.store[seq]; ok {
				r.broadcastMembers(&data{Ring: r.ring, Seq: m.Seq, Group: m.Group, Sender: m.Sender, Payload: m.Payload, Resend: true}, false)
				r.statMu.Lock()
				r.statRetrans++
				r.statMu.Unlock()
			} else {
				remaining = append(remaining, seq)
			}
		}
		t.Rtr = remaining
	}
	// Request what we are missing.
	have := func(seq uint64) bool {
		_, ok := r.store[seq]
		return ok || seq <= r.delivered
	}
	for seq := r.delivered + 1; seq <= t.Seq; seq++ {
		if !have(seq) && !containsSeq(t.Rtr, seq) {
			t.Rtr = append(t.Rtr, seq)
		}
	}

	// Multicast queued messages, bounded per visit by both count and
	// bytes (token-driven flow control).
	r.mu.Lock()
	take, bytes, keyed := 0, 0, int64(0)
	for take < len(r.sendQ) && take < maxBatch {
		bytes += len(r.sendQ[take].payload)
		if r.sendQ[take].keyLen > 0 {
			keyed++
		}
		take++
		if bytes >= maxBatchBytes {
			break
		}
	}
	if keyed > 0 {
		r.keyed.Add(-keyed) // taken by the token: no longer withdrawable
	}
	batch := r.sendQ[:take]
	if take > 0 {
		r.sendQ = append(r.sendSpare[:0], r.sendQ[take:]...)
		r.sendCond.Broadcast() // queue shrank: release backpressured senders
	}
	r.mu.Unlock()
	if len(batch) > 0 {
		r.sendBatch(t, batch)
		clear(batch) // drop the sent payloads' references
		r.sendSpare = batch[:0]
	}

	// Aru bookkeeping and log pruning.
	if r.delivered < t.Aru {
		t.Aru = r.delivered
	}
	if t.LastAru > r.pruned && t.LastAru != math.MaxUint64 {
		for seq := r.pruned + 1; seq <= t.LastAru; seq++ {
			delete(r.store, seq)
		}
		r.pruned = t.LastAru
	}

	next := r.successor()
	r.retain(t, next)
	worked := len(batch) > 0 || hadRtr || len(t.Rtr) > 0 || t.LastAru < t.Seq
	if r.pace.visit(t.Seq, worked, coord) {
		return
	}
	if next == r.cfg.Node {
		// Singleton ring: the token comes back through the loop's wake
		// channel rather than recursing: a producer that refills the queue
		// as fast as visits drain it would recurse without bound and starve
		// the heartbeat tick — no hello gossip, so a singleton under
		// sustained load could never remerge with returning peers.
		r.selfToken = true
		r.wake()
		return
	}
	r.send(next, r.retained)
}

// retain makes t the retained token, forwarded next to next. t is copied
// into the token buffer retained does not point at, unless it already is
// that buffer.
func (r *Ring) retain(t *token, next string) {
	b := r.spareToken()
	if t != b {
		b.copyFrom(t)
	}
	r.retained = b
	r.retainedNext = next
}

// spareToken returns the token buffer the retained token does not occupy.
func (r *Ring) spareToken() *token {
	if r.retained == &r.tokBuf[0] {
		return &r.tokBuf[1]
	}
	return &r.tokBuf[0]
}

// rehandleRetained handles a copy of the retained token as if it had just
// arrived (a parked token resuming, a singleton's next visit).
func (r *Ring) rehandleRetained() {
	t := r.spareToken()
	t.copyFrom(r.retained)
	r.handleToken(t)
}

// sendBatch assigns contiguous sequence numbers to one token visit's
// batch, logs every message for retransmission, and multicasts the batch
// packed into as few fabric datagrams as maxFrameBytes allows (or, on a
// singleton ring with no one to send to, logs and delivers each message
// in turn).
func (r *Ring) sendBatch(t *token, batch []outMsg) {
	r.statMu.Lock()
	r.statSent += uint64(len(batch))
	r.statMu.Unlock()
	if len(r.members) == 1 {
		for _, om := range batch {
			t.Seq++
			m := storedMsg{Seq: t.Seq, Group: om.group, Sender: r.cfg.Node, Payload: om.payload}
			r.store[m.Seq] = m
			r.advanceDelivery()
		}
		return
	}
	// Each frame is built in r.tx and encoded (copied) into its datagram;
	// broadcastMembers without loopback keeps no reference to it, so the
	// next frame reuses its slices.
	b := &r.tx
	i := 0
	for i < len(batch) {
		*b = dataBatch{Ring: r.ring, Sender: r.cfg.Node, FirstSeq: t.Seq + 1, Groups: b.Groups[:0], Payloads: b.Payloads[:0]}
		frameBytes := 0
		for i < len(batch) {
			sz := len(batch[i].payload)
			if len(b.Payloads) > 0 && frameBytes+sz > maxFrameBytes {
				break // frame full; an oversized single still goes alone
			}
			t.Seq++
			m := storedMsg{Seq: t.Seq, Group: batch[i].group, Sender: r.cfg.Node, Payload: batch[i].payload}
			r.store[m.Seq] = m
			b.Groups = append(b.Groups, m.Group)
			b.Payloads = append(b.Payloads, m.Payload)
			frameBytes += sz
			i++
		}
		r.broadcastMembers(b, false)
		if len(b.Payloads) > 1 {
			r.statMu.Lock()
			r.statBatches++
			r.statMu.Unlock()
		}
	}
	clear(b.Payloads[:cap(b.Payloads)]) // drop the sent payloads' references
	r.advanceDelivery()
}

func containsSeq(list []uint64, seq uint64) bool {
	for _, s := range list {
		if s == seq {
			return true
		}
	}
	return false
}

// handleDataBatch unpacks a coalesced frame: each sub-message is stored
// and delivered exactly as if it had arrived as its own data packet, in
// contiguous sequence order starting at FirstSeq.
func (r *Ring) handleDataBatch(b *dataBatch) {
	if b.Ring != r.ring {
		return
	}
	for i, p := range b.Payloads {
		seq := b.FirstSeq + uint64(i)
		if seq <= r.delivered {
			continue
		}
		if _, ok := r.store[seq]; ok {
			continue
		}
		r.store[seq] = storedMsg{Seq: seq, Group: b.Groups[i], Sender: b.Sender, Payload: p}
	}
	// Same membership-freeze rule as handleData: see the comment there.
	if r.state == stOperational {
		r.advanceDelivery()
	}
}

func (r *Ring) handleData(d *data) {
	if d.Ring != r.ring {
		return
	}
	if d.Seq <= r.delivered {
		return
	}
	if _, ok := r.store[d.Seq]; ok {
		return
	}
	r.store[d.Seq] = storedMsg{Seq: d.Seq, Group: d.Group, Sender: d.Sender, Payload: d.Payload}
	// Delivery freezes while a membership change is in progress: the
	// accept this node sent snapshotted its delivery point, and advancing
	// past it would diverge from the recovery set the coordinator builds
	// (the role Totem's transitional configuration plays). Late messages
	// are still stored so they reach the union via this node's next
	// accept if the formation restarts.
	if r.state == stOperational {
		r.advanceDelivery()
	}
}

func (r *Ring) advanceDelivery() {
	for {
		m, ok := r.store[r.delivered+1]
		if !ok {
			return
		}
		r.delivered++
		r.deliverMsg(r.ring, m)
	}
}

// deliverMsg hands one ordered message to the application layer (or applies
// it, for control messages). Called both in steady state and during EVS
// recovery (with the old ring id).
//
// The delivery-contiguity invariant (every ring's messages delivered with
// consecutive sequence numbers) is checked on every delivery. A violation is
// a protocol bug, not a recoverable network condition: strict rings abort;
// production rings skip the offending delivery, report the violation, and
// schedule a ring reformation so state transfer re-synchronizes the member.
func (r *Ring) deliverMsg(rid RingID, m storedMsg) {
	if last, ok := r.lastSeq[rid]; ok && m.Seq != last+1 {
		r.reportInvariant(fmt.Sprintf("%s: non-contiguous delivery ring %v: %d after %d", r.cfg.Node, rid, m.Seq, last))
		r.needReform = true
		return
	}
	r.lastSeq[rid] = m.Seq
	r.statMu.Lock()
	r.statDelivered++
	r.statMu.Unlock()
	if r.keyed.Load() > 0 && m.Sender != r.cfg.Node {
		r.withdraw(m)
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer(Deliver{
			MsgID:   MsgIDFor(rid.Epoch, m.Seq),
			Ring:    rid,
			Seq:     m.Seq,
			Group:   m.Group,
			Sender:  m.Sender,
			Payload: m.Payload,
		})
	}
	if m.Group == ctlGroup {
		op, node, group, err := decodeCtl(m.Payload)
		if err != nil {
			return
		}
		set := r.groupMembers[group]
		switch op {
		case ctlJoin:
			if set == nil {
				set = make(map[string]bool)
				r.groupMembers[group] = set
			}
			set[node] = true
		case ctlLeave:
			delete(set, node)
		}
		r.publish()
		r.events.Push(Delivery{Event: GroupView{Ring: rid, Group: group, Members: r.groupMemberList(group)}})
		return
	}
	r.mu.Lock()
	subscribed := r.subs[m.Group]
	r.mu.Unlock()
	if !subscribed {
		return
	}
	r.events.Push(Delivery{Deliver: Deliver{
		MsgID:   MsgIDFor(rid.Epoch, m.Seq),
		Ring:    rid,
		Seq:     m.Seq,
		Group:   m.Group,
		Sender:  m.Sender,
		Payload: m.Payload,
	}})
}
