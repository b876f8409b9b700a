package totem

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cdr"
)

// Ordering and delivery: the token assigns sequence numbers and carries
// retransmission requests, data frames carry the messages, the message
// store keeps them until every member has them, and delivery hands them to
// the application in sequence order — applying process-group joins and
// leaves and withdrawing matched queued messages on the way.

// ctlGroup is the reserved process-group name used for membership control
// messages (join/leave).
const ctlGroup = "\x00ctl"

// Control message opcodes.
const (
	ctlJoin  = 1
	ctlLeave = 2
)

// tokenHold is what an endpoint keeps about the token it last handled on
// the current ring. Leaving the ring and installing a new one each drop
// all of it with one assignment.
type tokenHold struct {
	// retained is the token this node last handled (the resend and unpark
	// source). It points into tokBuf, which double-buffers it: a handled
	// token is copied into the buffer retained does not point at, reusing
	// its Rtr storage, instead of into a fresh copy every hop.
	retained     *token
	tokBuf       [2]token
	retainedNext string
	// selfToken marks the token of a singleton ring as due back here; the
	// loop's wake channel carries it.
	selfToken bool
	// installRaw is the coordinator's encoded install for the ring it
	// formed, resent with the retained token until the first token round
	// returns — proof that every member installed.
	installRaw []byte
	pace       pacer
}

// delivPoint is the ring and sequence number of the last message delivered
// here: the delivery-contiguity check compares the next delivery on the
// same ring against it.
type delivPoint struct {
	ring RingID
	seq  uint64
}

func (r *Ring) successor() string {
	idx, _ := slices.BinarySearch(r.members, r.cfg.Node)
	return r.members[(idx+1)%len(r.members)]
}

func (r *Ring) handleToken(t *token, now time.Time) {
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
	r.lastToken = now
	if coord && t.Round > 1 {
		r.installRaw = nil // the first round came back: every member installed
	}

	// Serve retransmission requests we can satisfy.
	hadRtr := len(t.Rtr) > 0
	if hadRtr {
		remaining := t.Rtr[:0]
		for _, seq := range t.Rtr {
			if m, ok := r.store[seq]; ok {
				r.resend(m)
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
		if !have(seq) && !slices.Contains(t.Rtr, seq) {
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
	r.send(next, r.retained, now)
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
func (r *Ring) rehandleRetained(now time.Time) {
	t := r.spareToken()
	t.copyFrom(r.retained)
	r.handleToken(t, now)
}

// sendBatch assigns contiguous sequence numbers to one token visit's
// batch, logs every message for retransmission, and multicasts the batch
// packed into as few fabric datagrams as maxFrameBytes allows (or, on a
// singleton ring with no one to send to, logs and delivers each message
// in turn).
func (r *Ring) sendBatch(t *token, batch []outMsg) {
	r.statSent.Add(uint64(len(batch)))
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
	// broadcastMembers keeps no reference to it, so the next frame reuses
	// its slices.
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
		r.broadcastMembers(b)
		if len(b.Payloads) > 1 {
			r.statBatches.Add(1)
		}
	}
	clear(b.Payloads[:cap(b.Payloads)]) // drop the sent payloads' references
	r.advanceDelivery()
}

// resend serves one retransmission request from the message log: m goes
// to every other member as a frame of one message, still from its
// original sender.
func (r *Ring) resend(m storedMsg) {
	b := &r.tx
	*b = dataBatch{Ring: r.ring, Sender: m.Sender, FirstSeq: m.Seq,
		Groups: append(b.Groups[:0], m.Group), Payloads: append(b.Payloads[:0], m.Payload)}
	r.broadcastMembers(b)
	b.Payloads[0] = nil // drop the resent payload's reference
	r.statRetrans.Add(1)
}

// handleDataBatch stores a data frame's messages, which carry contiguous
// sequence numbers from FirstSeq, and delivers what became contiguous.
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
	if last := r.lastDeliver; last.ring == rid && m.Seq != last.seq+1 {
		r.reportInvariant(fmt.Sprintf("%s: non-contiguous delivery ring %v: %d after %d", r.cfg.Node, rid, m.Seq, last.seq))
		r.needReform = true
		return
	}
	r.lastDeliver = delivPoint{ring: rid, seq: m.Seq}
	r.statDelivered.Add(1)
	if r.keyed.Load() > 0 && m.Sender != r.cfg.Node {
		r.withdraw(m)
	}
	d := Deliver{MsgID: MsgIDFor(rid.Epoch, m.Seq), Ring: rid, Seq: m.Seq, Group: m.Group, Sender: m.Sender, Payload: m.Payload}
	if r.cfg.Observer != nil {
		r.cfg.Observer(d)
	}
	if m.Group == ctlGroup {
		r.applyCtl(rid, m.Payload)
		return
	}
	r.mu.Lock()
	subscribed := r.subs[m.Group]
	r.mu.Unlock()
	if !subscribed {
		return
	}
	r.emit(Delivery{Deliver: d})
}

// emit hands one entry of the ordered stream to the consumer.
func (r *Ring) emit(d Delivery) {
	if r.consumer.Deliver != nil {
		r.consumer.Deliver(d)
	}
}

// applyCtl applies an ordered join or leave and publishes the one group it
// changed: the group's member list is built once, and the snapshot and the
// GroupView share it.
func (r *Ring) applyCtl(rid RingID, payload []byte) {
	op, node, group, err := decodeCtl(payload)
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
	members := r.groupMemberList(group)
	r.mu.Lock()
	r.pubGroups[group] = members
	r.mu.Unlock()
	r.emit(Delivery{Event: GroupView{Ring: rid, Group: group, Members: members}})
}

func (r *Ring) groupMemberList(g string) []string {
	set := r.groupMembers[g]
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
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
	r.statWithdrawn.Add(uint64(n))
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
