package replication

// Leader-follower replication (LLFT-style, "The Low Latency Fault
// Tolerance System"; DESIGN.md "Leader-follower replication and read
// leases" gives the protocol). The leader, the senior primary-component
// member, assigns each write a per-group sequence, logs and multicasts the
// order, and executes at once; followers re-execute the order stream. An
// LF message id is lfMsgID(epoch, seq): epochs only grow across leadership
// changes and a new leader resumes the sequence from its applied
// high-water mark, so LF ids are monotone and the WAL, checkpoint and
// state-transfer machinery order them like any other. A direct-lane write
// reply waits until the leader's own order comes back through agreed
// delivery (the ack gate). Leases granted on the ordered stream let any
// replica serve GroupDef.ReadOnlyOps from local state: each replica times
// its lease on its own clock, every view change revokes it, and a new
// leader fences writes until every old lease has expired. Leader reads
// are linearizable; follower reads are session-consistent (the MinSeq
// session token clients carry).

import (
	"slices"
	"time"

	"repro/internal/totem"
	"repro/internal/wal"
)

// lfSeqMask extracts the leader sequence from an LF message id.
const lfSeqMask = 1<<40 - 1

// Read-lease timing (the leader renews every leaseDuration/3, lfLeaseLoop).
const (
	// leaseDuration is the validity window of a read lease; a new leader
	// fences writes for leaseDuration + leaseGuard after takeover.
	leaseDuration = 150 * time.Millisecond
	// leaseGuard is the guard band absorbing bounded clock-rate skew and
	// delivery lag: readers retire a lease leaseGuard before its local
	// expiry.
	leaseGuard = 20 * time.Millisecond
)

// lfMsgID composes the LF message id from the leader's ring epoch and
// per-group sequence. Same packing as totem message ids, so LF ids
// compare correctly against checkpoint horizons.
func lfMsgID(epoch, seq uint64) uint64 { return totem.MsgIDFor(epoch, seq) }

// taskLfUnblock fires when a new leader's post-takeover write fence may
// have expired, draining ordered-path writes held behind it.
type taskLfUnblock struct{}

// lfPendingReply is a direct-lane write reply awaiting the ack gate (the
// leader's own agreed delivery of the order message).
type lfPendingReply struct {
	from string
	rep  *msgReply
}

// lfHeldOp is an ordered-path invocation held behind the write fence.
type lfHeldOp struct {
	m   *msgInvocation
	rec *opRecord
}

// lfLeaseLiveLocked reports (with r.mu held) whether this replica holds a
// usable read lease: granted by the current view's leader, not fenced off
// by a leadership change, and not within leaseGuard of expiry.
func (r *replica) lfLeaseLiveLocked(now time.Time) bool {
	return r.lfLeaseHold != "" &&
		len(r.members) > 0 && r.lfLeaseHold == r.members[0] &&
		r.lfLeaseEpoch >= r.lfFence &&
		now.Add(leaseGuard).Before(r.lfLeaseExp)
}

// lfSendReply sends a direct-lane reply back to the submitting node; seq
// is the leader sequence the reply reflects (the client's next session
// token).
func (r *replica) lfSendReply(to string, key opKey, status uint32, body []byte, seq uint64) {
	m := &msgReply{GroupID: r.def.ID, Key: key, Status: status, Body: body, Node: r.eng.cfg.Node, ExecMsgID: seq}
	if payload := r.eng.encodeOrReport(m); payload != nil {
		_ = r.eng.ringFor(r.def.ID).SendDirect(to, r.names.rep, payload)
	}
}

// lfRedirect answers a direct-lane submit this replica cannot serve.
// target names the node to retry at; empty tells the client to fall back
// to the ordered path.
func (r *replica) lfRedirect(m *msgLfSubmit, target string) {
	r.eng.stat.lfRedirects.Add(1)
	r.lfSendReply(m.From, m.Key, replyRedirect, []byte(target), 0)
}

// onLfSubmit handles a direct-lane submit: reads go through the lease
// check, writes through leader assignment.
func (r *replica) onLfSubmit(m *msgLfSubmit) {
	if m.ReadOnly {
		r.lfServeRead(m)
		return
	}

	r.mu.Lock()
	node := r.eng.cfg.Node
	leader := len(r.members) > 0 && r.members[0] == node
	target := ""
	if len(r.members) > 0 && r.members[0] != node {
		target = r.members[0]
	}
	healthy := leader && !r.secondary && !r.syncing
	blocked := r.eng.now().Before(r.lfBlockUntil)
	rec, st := r.dedup.lookup(m.Key)
	have := st == keyLive
	var logged *msgReply
	if have && rec.answered {
		logged = rec.reply
	}
	r.mu.Unlock()

	switch st {
	case keyRetired:
		// A late copy of an operation its client has finished (the direct
		// lane is unordered): drop it.
		return
	case keyEvicted:
		// Its record was evicted: the ordered path refuses it in total
		// order on every member.
		r.lfRedirect(m, "")
		return
	}
	if logged != nil {
		if logged.ExecMsgID > r.lfOrdered {
			// Executed through the ordered path, but its order has not
			// come back through agreed delivery yet. An ack now would let
			// the client's next operation, whose low-water mark retires
			// this one, be ordered ahead of the order, and followers would
			// skip it. The ordered reply, FIFO after the order, answers.
			return
		}
		// Retransmission of an already-answered operation: re-send the
		// logged reply (FT-CORBA request retention) on the direct lane.
		r.eng.stat.dupInvocations.Add(1)
		r.lfSendReply(m.From, m.Key, logged.Status, logged.Body, logged.ExecMsgID&lfSeqMask)
		return
	}
	if have && rec.executedLocal {
		return // executed but unanswered (mid-assignment retry): first copy answers
	}
	if !healthy || blocked {
		// Not the live leader (or writes are fenced): bounce the client.
		// During the fence target is empty, sending the write to the
		// ordered path where the hold queue preserves it.
		if blocked {
			target = ""
		}
		r.lfRedirect(m, target)
		return
	}

	r.mu.Lock()
	if rec == nil {
		rec = r.dedup.record(m.Key)
	}
	rec.deliveredInv = true
	r.mu.Unlock()

	rep, seq := r.lfAssign(m.Key, m.Done, m.Operation, m.Args, false, rec)
	if rep == nil {
		r.lfRedirect(m, "")
		return
	}
	// The reply waits for the ack gate: our own agreed delivery of the
	// order message releases it in onLfOrder.
	r.lfPending[seq] = lfPendingReply{from: m.From, rep: rep}
}

// lfServeRead serves a read-only operation from local state under the
// read lease — no totem entry, no WAL record, no dedup marking (reads are
// side-effect-free; an identical retry re-reads harmlessly).
func (r *replica) lfServeRead(m *msgLfSubmit) {
	now := r.eng.now()
	r.mu.Lock()
	okOp := slices.Contains(r.def.ReadOnlyOps, m.Operation)
	live := okOp && !r.syncing && !r.secondary && r.lfLeaseLiveLocked(now)
	applied := r.lfApplied
	leaseEpoch := r.lfLeaseEpoch
	target := ""
	if len(r.members) > 0 && r.members[0] != r.eng.cfg.Node {
		target = r.members[0]
	}
	r.mu.Unlock()

	if !okOp {
		// Not marked readonly in the group definition: a mislabeled client
		// must not bypass the total order. Force the ordered path.
		r.lfRedirect(m, "")
		return
	}
	if !live || applied < m.MinSeq {
		// No usable lease, or this replica is behind the client's session
		// token: the leader is never behind, try there.
		r.lfRedirect(m, target)
		return
	}

	x := execute(&r.exec, r.servant, r.def.ID, lfMsgID(leaseEpoch, applied), m.Operation, m.Args, nil)
	r.eng.stat.lfReads.Add(1)
	status, body := outcomeToWire(x.results, x.err)
	r.lfSendReply(m.From, m.Key, status, body, applied)
}

// lfAssign is the leader's single write entry point: it claims the next
// leader sequence, logs and ships the order record *before* executing
// (and therefore before any ack — the cold-passive RPO-zero discipline),
// streams the order to the followers, and executes immediately. Returns
// the computed reply and the assigned sequence (nil on encode failure).
// done is the client's low-water mark; the order carries it to every
// member, which retire on its delivery.
func (r *replica) lfAssign(key opKey, done uint64, op string, args []byte, oneway bool, rec *opRecord) (*msgReply, uint64) {
	r.mu.Lock()
	epoch := r.lfEpoch
	if r.lfSeq < r.lfApplied {
		// Fresh leadership (takeover, self-promotion, adoption): resume
		// numbering from the applied high-water mark.
		r.lfSeq = r.lfApplied
	}
	r.mu.Unlock()
	r.lfSeq++
	seq := r.lfSeq
	id := lfMsgID(epoch, seq)

	order := &msgLfOrder{
		GroupID:   r.def.ID,
		Epoch:     epoch,
		Seq:       seq,
		Leader:    r.eng.cfg.Node,
		Key:       key,
		Operation: op,
		Args:      args,
		Oneway:    oneway,
		Done:      done,
	}
	data := r.eng.encodeOrReport(order)
	if data == nil {
		r.lfSeq--
		return nil, 0
	}
	wrec := wal.Record{Kind: wal.KindUpdate, MsgID: id, Op: opRecInvoke + op, Data: data}
	r.logUpdate(wrec)
	if r.shipsDR(r.rules.shippers()) {
		r.shipUpdate(wrec)
	}
	_ = r.eng.ringFor(r.def.ID).Multicast(r.names.inv, data)

	rep := r.lfExecute(order, rec)
	r.maybeCheckpoint()
	return rep, seq
}

// lfExecute runs one ordered LF invocation on the local servant — at the
// leader this happens at assignment time, at followers at delivery time.
// The deterministic context is keyed on (epoch, seq), which both sides
// know, so timestamps and nested-call identifiers agree everywhere.
func (r *replica) lfExecute(m *msgLfOrder, rec *opRecord) *msgReply {
	id := lfMsgID(m.Epoch, m.Seq)
	x := execute(&r.exec, r.servant, r.def.ID, id, m.Operation, m.Args, r.eng)
	r.eng.stat.executions.Add(1)

	rep := &msgReply{
		GroupID:   r.def.ID,
		Key:       m.Key,
		Node:      r.eng.cfg.Node,
		ExecMsgID: id,
	}
	rep.Status, rep.Body = outcomeToWire(x.results, x.err)

	r.mu.Lock()
	if id > r.lastExec {
		r.lastExec = id
	}
	if m.Seq > r.lfApplied {
		r.lfApplied = m.Seq
	}
	rec.executedLocal = true
	if !rec.answered {
		// Followers record the reply but never transmit it: only the
		// leader answers. After promotion the stored reply answers client
		// retries, preserving exactly-once across failover.
		rec.answered = true
		rec.reply = rep
	}
	r.mu.Unlock()
	return rep
}

// onLfOrder handles one delivery from the leader's order stream.
func (r *replica) onLfOrder(m *msgLfOrder) {
	if syncing, _ := r.flags(); syncing {
		// Hold in order; adoptState replays past the transferred horizon.
		r.buffer = append(r.buffer, task{m: m})
		return
	}

	r.mu.Lock()
	retired := r.dedup.retire(m.Key.ClientID, m.Done)
	accept := len(r.members) > 0 && r.members[0] == m.Leader && m.Epoch >= r.lfFence
	r.mu.Unlock()
	r.countRetired(retired)
	if !accept {
		// A deposed leader's stragglers (queued before a reformation,
		// multicast on the new ring): the fence keeps them from mutating
		// state the new leadership already owns.
		return
	}
	if id := lfMsgID(m.Epoch, m.Seq); id > r.lfOrdered {
		r.lfOrdered = id
	}

	if m.Leader == r.eng.cfg.Node {
		// Our own order back through agreed delivery: every current member
		// has it — release the direct-lane ack.
		if pr, ok := r.lfPending[m.Seq]; ok {
			delete(r.lfPending, m.Seq)
			r.lfSendReply(pr.from, m.Key, pr.rep.Status, pr.rep.Body, m.Seq)
		}
		return
	}

	r.mu.Lock()
	rec, st := r.dedup.lookup(m.Key)
	if st == keyRetired {
		// Retired here, so an adopted snapshot already includes it.
		r.mu.Unlock()
		return
	}
	if rec == nil {
		// The leader ordered it, so it runs here too, even past an
		// eviction mark: the order stream decides, not the local table.
		rec = r.dedup.record(m.Key)
	}
	rec.deliveredInv = true
	executed := rec.executedLocal
	id := lfMsgID(m.Epoch, m.Seq)
	stale := id <= r.lastExec && r.lastExec != 0 && executed
	r.mu.Unlock()
	if executed || stale {
		return // covered by a snapshot or an earlier delivery
	}

	// Follower: log before executing so a crash-restart rebuilds from the
	// local WAL (the leader's periodic checkpoints truncate it).
	if data := r.eng.encodeOrReport(m); data != nil {
		r.logUpdate(wal.Record{Kind: wal.KindUpdate, MsgID: id, Op: opRecInvoke + m.Operation, Data: data})
	}
	r.lfExecute(m, rec)
}

// onLfLease installs an ordered lease grant. Expiry is computed from the
// local clock at delivery — no cross-node clock synchronization.
func (r *replica) onLfLease(m *msgLfLease) {
	now := r.eng.now()
	r.mu.Lock()
	if len(r.members) > 0 && r.members[0] == m.Leader && m.Epoch >= r.lfFence {
		r.lfLeaseHold = m.Leader
		r.lfLeaseEpoch = m.Epoch
		r.lfLeaseExp = now.Add(m.Dur)
	}
	r.mu.Unlock()
}

// lfMaybeGrant multicasts a lease grant/renewal if this replica is the
// live leader. Called from the engine's renewal loop (~Dur/3) and once
// immediately at takeover.
func (r *replica) lfMaybeGrant() {
	r.mu.Lock()
	ok := len(r.members) > 0 && r.members[0] == r.eng.cfg.Node &&
		!r.secondary && !r.syncing
	epoch := r.lfEpoch
	r.mu.Unlock()
	if !ok {
		return
	}
	r.eng.stat.lfLeases.Add(1)
	r.multicast(&msgLfLease{GroupID: r.def.ID, Epoch: epoch, Leader: r.eng.cfg.Node, Dur: leaseDuration})
}

// lfClassic handles an ordered-path invocation on an LF group (client
// fallback, retransmissions, fulfillment replay). The leader treats it as
// a submit: assign, execute, stream the order, and multicast the reply —
// the reply is FIFO-ordered after the order message, so its delivery
// implies the order reached the group. Followers ignore it: the order
// stream brings the operation to them.
func (r *replica) lfClassic(m *msgInvocation, rec *opRecord) {
	r.mu.Lock()
	leader := len(r.members) > 0 && r.members[0] == r.eng.cfg.Node
	blocked := r.eng.now().Before(r.lfBlockUntil)
	r.mu.Unlock()
	if !leader {
		return
	}
	if blocked {
		// Post-takeover write fence: hold until every lease the old leader
		// granted has expired at its reader (taskLfUnblock drains).
		r.lfHeld = append(r.lfHeld, lfHeldOp{m: m, rec: rec})
		return
	}
	r.lfClassicRun(m, rec)
}

func (r *replica) lfClassicRun(m *msgInvocation, rec *opRecord) {
	r.mu.Lock()
	executed := rec.executedLocal
	r.mu.Unlock()
	if executed {
		return // a direct-lane copy won the race while this one was held
	}
	rep, _ := r.lfAssign(m.Key, m.Done, m.Operation, m.Args, m.Oneway, rec)
	if rep != nil {
		r.multicastReply(rep)
	}
}

// onLfUnblock drains ordered-path writes held behind the takeover fence,
// re-arming itself if the fence has not expired yet.
func (r *replica) onLfUnblock() {
	r.mu.Lock()
	until := r.lfBlockUntil
	r.mu.Unlock()
	if now := r.eng.now(); now.Before(until) {
		r.lfArmUnblock(until.Sub(now))
		return
	}
	held := r.lfHeld
	r.lfHeld = nil
	for _, h := range held {
		r.lfClassicRun(h.m, h.rec)
	}
}

// lfArmUnblock schedules a fence-expiry check on the executor.
func (r *replica) lfArmUnblock(d time.Duration) {
	time.AfterFunc(d+time.Millisecond, func() { r.q.Push(task{m: taskLfUnblock{}}) })
}

// lfOnView runs the LF view-change logic after the generic membership
// bookkeeping: epoch/fence maintenance, lease revocation, and leader
// takeover with the write fence that keeps stale-lease reads linearizable.
func (r *replica) lfOnView(old []string, t taskView) {
	node := r.eng.cfg.Node
	oldLeader := ""
	if len(old) > 0 {
		oldLeader = old[0]
	}
	newLeader := ""
	if len(t.members) > 0 {
		newLeader = t.members[0]
	}
	leaderChanged := oldLeader != newLeader
	now := r.eng.now()

	r.mu.Lock()
	r.lfEpoch = t.epoch
	if leaderChanged {
		// Fence: the deposed leadership's stragglers must not apply.
		r.lfFence = t.epoch
	}
	// Revocation-on-view-change: every membership change invalidates the
	// current grant; the renewal stream re-establishes it within ~Dur/3.
	r.lfLeaseHold = ""
	r.lfLeaseExp = time.Time{}
	secondary := r.secondary
	syncing := r.syncing
	promoted := leaderChanged && newLeader == node && oldLeader != "" && !secondary && !syncing
	if promoted {
		r.lfBlockUntil = now.Add(leaseDuration + leaseGuard)
	}
	r.mu.Unlock()

	if leaderChanged && len(r.lfPending) > 0 {
		// Unreleased acks from our deposed leadership: the clients' direct
		// attempts time out and fall back to the ordered path, where the
		// dedup table answers with the logged replies.
		r.lfPending = make(map[uint64]lfPendingReply)
	}
	if promoted {
		r.eng.stat.lfTakeovers.Add(1)
		// Every acked invocation the old leader ordered was delivered to
		// this survivor before the view (virtual synchrony), so state is
		// current; numbering resumes from lfApplied on the next assign.
		// Announce leadership immediately — the grant doubles as the
		// clients' redirect-target refresh.
		r.lfMaybeGrant()
		r.lfArmUnblock(leaseDuration + leaseGuard)
	}
}
