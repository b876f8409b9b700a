package totem

import (
	"slices"
	"time"

	"repro/internal/fault"
	"repro/internal/transport"
)

// The protocol loop: one goroutine owns the transport port's receive side
// and every piece of protocol state. It is the only code that reads the
// clock — at most once per datagram, and once per heartbeat tick or wake —
// and hands the time down to the handlers, so each handler's behaviour
// depends on its arguments alone.

// backlog is a closed channel: the protocol loop selects on it in place of
// the port's Ready when a wake-up stopped at serveBudget with datagrams
// left, so it comes straight back once stop, the tick and wakes have had
// their turn.
var backlog = func() <-chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// wake signals the protocol loop's wake channel; a wake already pending
// covers this one.
func (r *Ring) wake() {
	select {
	case r.wakeCh <- struct{}{}:
	default:
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
			r.tick(time.Now())
		case <-r.wakeCh:
			r.handleWake(time.Now())
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

// receive decodes one datagram and handles it, reading the clock for the
// packets whose handlers take the time. Payload-bearing packets are
// copied off the transport buffer exactly once and their payloads alias
// that copy — one allocation per frame instead of one per batched message.
// Everything else decodes off the transport buffer; tokens and data frames
// land in the ring's hot decode storage (see hotPackets for how long a
// decoded packet lives).
func (r *Ring) receive(dg transport.Datagram) {
	b, owned := dg.Payload, false
	switch pktType(firstOctet(b)) {
	case pktDataBatch, pktDirect:
		b, owned = append(make([]byte, 0, len(b)), b...), true
	}
	pkt, err := decodePacketIn(b, owned, &r.rx)
	if err != nil {
		return // corrupt datagram: drop, like UDP
	}
	switch v := pkt.(type) {
	case *direct:
		// Direct packets carry no ordering state: the consumer gets each
		// as it arrives.
		if r.consumer.Direct != nil {
			r.consumer.Direct(v.From, v.Group, v.Payload)
		}
	case *dataBatch:
		r.handleDataBatch(v) // the hot path, which needs no clock
	default:
		r.handlePacket(pkt, time.Now())
	}
}

func (r *Ring) handlePacket(pkt any, now time.Time) {
	switch v := pkt.(type) {
	case *hello:
		r.handleHello(v, now)
	case *propose:
		r.handlePropose(v, now)
	case *accept:
		r.handleAccept(v, now)
	case *install:
		r.handleInstall(v, now)
	case *token:
		r.handleToken(v, now)
	case *dataBatch:
		r.handleDataBatch(v)
	case *nudge:
		if v.Ring == r.ring {
			r.handleNudge(now)
		}
	}
}

// handleWake serves the wake channel: a singleton ring's token due back
// here, or freshly queued local work, which resumes a token parked here —
// and a member that has seen the ring go quiet nudges the coordinator,
// where the token may be parked.
func (r *Ring) handleWake(now time.Time) {
	if r.selfToken {
		// The singleton's next visit also collects any work whose wake this
		// one absorbed: that work was queued before its wake was sent. Going
		// on to unpark would undo a park this visit just made, and the idle
		// singleton would spin.
		r.selfToken = false
		if r.retained != nil {
			r.rehandleRetained(now)
		}
		return
	}
	if r.state != stOperational || r.unpark(now) {
		return
	}
	if r.ring.Coord != r.cfg.Node && r.pace.quietRounds >= 1 {
		r.sendNudge(now)
	}
}

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

// send sends pkt to one node; a packet to this node is handled inline at
// now, with no trip through the fabric (and no possible loss).
func (r *Ring) send(to string, pkt any, now time.Time) {
	if to == r.cfg.Node {
		r.handlePacket(pkt, now)
		return
	}
	raw, err := r.encode(pkt)
	if err != nil {
		r.reportInvariant(err.Error())
		return
	}
	r.sendRaw(to, raw)
}

// broadcastMembers sends pkt to every other ring member.
func (r *Ring) broadcastMembers(pkt any) {
	raw, err := r.encode(pkt)
	if err != nil {
		r.reportInvariant(err.Error())
		return
	}
	r.sendToMembers(raw)
}

// sendToMembers sends an encoded packet to every other ring member.
func (r *Ring) sendToMembers(raw []byte) {
	for _, m := range r.members {
		if m != r.cfg.Node {
			r.sendRaw(m, raw)
		}
	}
}

// tick is the heartbeat: gossip, failure detection, token-loss and
// formation timeouts, and the pacing keepalive.
func (r *Ring) tick(now time.Time) {
	r.evalPeers(now)
	alive := r.aliveSet()
	// Gossip a heartbeat to the whole universe.
	r.hb = hello{From: r.cfg.Node, MaxEpoch: r.maxEpoch}
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
		if !slices.Equal(alive, r.members) {
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
			r.send(r.retainedNext, r.retained, now)
		}
	case stForming:
		if len(alive) > 0 && alive[0] == r.cfg.Node && now.Sub(r.formingFrom) >= settleBeats*r.cfg.HeartbeatInterval {
			r.proposeRing(alive, now)
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
