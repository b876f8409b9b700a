package replication

import (
	"slices"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/fault"
	"repro/internal/fifo"
	"repro/internal/giop"
	"repro/internal/orb"
	"repro/internal/wal"
)

// FulfillmentMapper is optionally implemented by servants to translate an
// operation performed in a secondary partition component into the
// fulfillment operation applied to the merged state (e.g. a plain "sell"
// becomes "sellOrBackOrder"). Returning ok=false drops the operation.
// Without the interface, operations replay unchanged.
type FulfillmentMapper interface {
	MapFulfillment(op string, args []cdr.Value) (newOp string, newArgs []cdr.Value, ok bool)
}

// task is one unit of executor work. m is the decoded message itself
// (*msgInvocation, *msgReply, *msgCheckpoint, *msgStateReq, *msgLfSubmit,
// *msgLfOrder or *msgLfLease), a *taskView, or taskLfUnblock{}: a pointer
// or a zero-size value stored in m allocates nothing, so only the rare
// views cost an allocation on the way to the executor.
type task struct {
	msgID uint64 // totem id of the delivery that carried m (0 if none)
	m     any
}

// taskQueue feeds one replica's executor goroutine: the ring's protocol
// loop, which routes deliveries (Engine.deliverer), must never block on a
// servant executing a (possibly nested, possibly slow) operation, so
// producers Push onto an unbounded queue and the executor pops from
// batches it drains whole.
type taskQueue struct {
	*fifo.Queue[task]
	batch []task
	next  int
}

func newTaskQueue() *taskQueue { return &taskQueue{Queue: fifo.New[task]()} }

// pop returns the next task, blocking until one exists. It reports false
// once the queue is closed and drained, or when stop closes while the
// queue is empty.
func (q *taskQueue) pop(stop <-chan struct{}) (task, bool) {
	for q.next == len(q.batch) {
		var closed bool
		q.batch, closed = q.Drain(q.batch)
		q.next = 0
		if len(q.batch) > 0 {
			break
		}
		if closed {
			return task{}, false
		}
		select {
		case <-q.Ready():
		case <-stop:
			return task{}, false
		}
	}
	t := q.batch[q.next]
	q.next++
	return t, true
}

// taskView is a group view change, as an executor task.
type taskView struct {
	members []string
	epoch   uint64 // ring epoch of the view (LF leadership terms)
}

type fulfillRec struct {
	op   string
	args []byte
}

// replica is one hosted member of an object group. All fields below `mu`
// are shared between delivery routing and the executor; the remaining
// protocol state is owned by the executor goroutine.
type replica struct {
	eng     *Engine
	def     GroupDef
	rules   styleRules // def.Style's row (style.go)
	names   groupNames
	servant orb.Servant
	q       *taskQueue
	log     wal.Log

	mu        sync.Mutex
	dedup     dedupTable
	members   []string
	secondary bool
	syncing   bool
	lastExec  uint64

	// Leader-follower shared state (guarded by mu; the engine's lease
	// renewal loop and the direct-lane handler read it concurrently with
	// the executor). See lf.go for the protocol.
	lfEpoch      uint64    // ring epoch of the current view
	lfFence      uint64    // minimum order epoch accepted (leadership fence)
	lfApplied    uint64    // highest leader sequence applied locally
	lfLeaseHold  string    // current lease holder ("" = no lease)
	lfLeaseEpoch uint64    // epoch the lease was granted under
	lfLeaseExp   time.Time // local-clock lease expiry
	lfBlockUntil time.Time // new-leader write fence

	// Executor-owned state.
	buffer     []task       // tasks held in order while syncing
	pendingOps []task       // invocations delivered, not yet covered (passive backups)
	fulfill    []fulfillRec // operations performed while secondary
	preSplit   []string     // view before this member became secondary
	opsSinceCk int
	lastLogged uint64 // newest update-record MsgID appended to the WAL (task-loop owned)
	// gap is set when a warm backup failed to apply a primary's postimage:
	// it applies no further delta and asks for state at the next marker.
	gap        bool
	fulfillSeq uint64
	askers     map[string]uint64 // members that asked for state since the last view or checkpoint → their advertised lastExec
	answered   bool              // this member answered the current askers (answer)
	served     uint64            // horizon of the newest snapshot since the last view (onStateReq)

	// Leader-follower executor-owned state.
	lfSeq     uint64                    // leader's assignment counter
	lfPending map[uint64]lfPendingReply // direct replies awaiting the ack gate
	lfHeld    []lfHeldOp                // ordered writes held behind the takeover fence
	// lfOrdered is the highest lfMsgID whose order came back here through
	// agreed delivery: a logged reply at or below it is safe to resend on
	// the direct lane (see onLfSubmit).
	lfOrdered uint64
}

func newReplica(e *Engine, def GroupDef, servant orb.Servant, syncing bool, log wal.Log) *replica {
	rules := styleTable[def.Style]
	if _, ok := servant.(orb.Checkpointable); !ok || rules.record == recNone {
		// Nothing to transfer: the replica is operational immediately.
		syncing = false
	}
	return &replica{
		eng:       e,
		def:       def,
		rules:     rules,
		names:     namesOf(def.ID),
		servant:   servant,
		q:         newTaskQueue(),
		log:       log,
		dedup:     newDedupTable(),
		syncing:   syncing,
		askers:    make(map[string]uint64),
		lfPending: make(map[uint64]lfPendingReply),
	}
}

func (r *replica) status() GroupStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := GroupStatus{
		Members:   append([]string(nil), r.members...),
		Secondary: r.secondary,
		Syncing:   r.syncing,
		LastExec:  r.lastExec,
	}
	if len(st.Members) > 0 {
		st.Primary = st.Members[0]
	}
	return st
}

// markAnswered is called from delivery routing the moment a reply is
// delivered: it records the logged reply for duplicate answering and
// implements sender-side response suppression (a replica that learns of
// another replica's response before transmitting its own suppresses its
// own).
//
// A reply for a retired key (its client already holds one, e.g. an ACTIVE
// replica's duplicate reply delivered after the carrier) or for an evicted
// key (a re-created record would let a retry execute again) leaves no
// record behind.
func (r *replica) markAnswered(m *msgReply) {
	r.mu.Lock()
	rec, st := r.dedup.lookup(m.Key)
	if st == keyNew {
		rec = r.dedup.record(m.Key)
	}
	if rec != nil && !rec.answered {
		rec.answered = true
		rec.reply = m
	}
	r.mu.Unlock()
}

// countRetired adds n retired records to the engine's counter.
func (r *replica) countRetired(n int) {
	if n > 0 {
		r.eng.stat.dedupRetired.Add(uint64(n))
	}
}

func (r *replica) executorLoop() {
	for {
		t, ok := r.q.pop(r.eng.stopCh)
		if !ok {
			return
		}
		switch m := t.m.(type) {
		case *msgInvocation:
			r.onInvoke(t.msgID, m)
		case *msgReply:
			r.onReply(m)
		case *msgCheckpoint:
			r.onCheckpoint(m)
		case *taskView:
			r.onView(*m)
		case *msgStateReq:
			r.onStateReq(m)
		case *msgLfSubmit:
			r.onLfSubmit(m)
		case *msgLfOrder:
			r.onLfOrder(m)
		case *msgLfLease:
			r.onLfLease(m)
		case taskLfUnblock:
			r.onLfUnblock()
		}
	}
}

// isPrimary reports whether this node currently leads the group (senior
// member of the current — possibly component-local — view).
func (r *replica) isPrimary() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.members) > 0 && r.members[0] == r.eng.cfg.Node
}

func (r *replica) onInvoke(msgID uint64, m *msgInvocation) {
	syncing, secondary := r.flags()
	if syncing {
		r.buffer = append(r.buffer, task{msgID: msgID, m: m})
		return
	}
	if secondary && !m.Fulfillment {
		// Queue for post-remerge fulfillment (every member of the
		// secondary component keeps the queue so any survivor can send it).
		r.fulfill = append(r.fulfill, fulfillRec{op: m.Operation, args: m.Args})
	}
	r.process(msgID, m)
}

// process runs the style-appropriate handling for one delivered
// invocation. Its low-water mark first retires its client's records.
func (r *replica) process(msgID uint64, m *msgInvocation) {
	r.mu.Lock()
	retired := r.dedup.retire(m.Key.ClientID, m.Done)
	rec, st := r.dedup.lookup(m.Key)
	switch st {
	case keyRetired:
		// Its client already holds the reply: a stale copy, suppressed
		// with nothing re-sent.
		r.mu.Unlock()
		r.countRetired(retired)
		r.eng.stat.dupInvocations.Add(1)
		return
	case keyEvicted:
		r.mu.Unlock()
		r.countRetired(retired)
		r.refuseEvicted(m)
		return
	case keyNew:
		rec = r.dedup.record(m.Key)
	}
	duplicate := rec.deliveredInv
	rec.deliveredInv = true
	answered := rec.answered
	executed := rec.executedLocal
	r.mu.Unlock()
	r.countRetired(retired)

	if duplicate {
		// Receiver-side duplicate suppression: the operation was already
		// delivered (redundant client replicas or retransmission).
		r.eng.stat.dupInvocations.Add(1)
		// Only the senior member re-sends the logged reply, so a
		// retransmission does not set off a reply storm.
		if answered && r.isPrimary() {
			r.mu.Lock()
			logged := rec.reply
			r.mu.Unlock()
			if logged != nil {
				r.multicastReply(logged)
			}
		}
		return
	}
	if executed {
		return
	}

	// An invocation that is the style's update record is logged (cold
	// passive: every member, primary included, so a crashed-and-restarted
	// replica rebuilds its state from its own log instead of a full state
	// transfer) and shipped to the DR store before anyone acts on it, and
	// so before any client ack: that is what makes RPO zero. An
	// acknowledged operation is always either in a shipped checkpoint's
	// covered window or in a shipped segment. Under the active styles any
	// member's reply may be the one that acks the client, so every
	// primary-component member ships (rules.shippers).
	logs := r.rules.record == recInvocation && r.rules.oneExecutes()
	ships := r.rules.record == recInvocation && r.shipsDR(r.rules.shippers())
	if logs || ships {
		if data, err := encodeWire(m); err == nil {
			rec := wal.Record{Kind: wal.KindUpdate, MsgID: msgID, Op: opRecInvoke + m.Operation, Data: data}
			if logs {
				r.logUpdate(rec)
			}
			if ships {
				r.shipUpdate(rec)
			}
		}
	}

	switch {
	case r.rules.executes == execLeader:
		// The leader assigns and executes; followers get the operation
		// through the order stream and hold nothing here.
		r.lfClassic(m, rec)
	case r.rules.executes == execEvery || r.isPrimary():
		r.run(msgID, m, rec)
	default:
		// Passive backup: hold the operation for possible failover replay.
		r.pendingOps = append(r.pendingOps, task{msgID: msgID, m: m})
	}
}

// refuseEvicted handles an invocation whose record the count cap evicted:
// the operation may have executed already, so it must not run again. The
// refusal is counted and reported as a fault, and the senior member, which
// answers duplicates, replies with a system exception (completion unknown).
func (r *replica) refuseEvicted(m *msgInvocation) {
	r.eng.stat.dedupOverflows.Add(1)
	if !r.isPrimary() {
		return
	}
	if n := r.eng.cfg.Notifier; n != nil {
		n.Push(fault.Report{
			Kind:     fault.RetentionOverflow,
			Node:     r.eng.cfg.Node,
			GroupID:  r.def.ID,
			Member:   m.Key.ClientID,
			Detail:   "retry past the duplicate-suppression bound: " + m.Key.String(),
			Detected: time.Now(),
		})
	}
	if m.Oneway {
		return
	}
	r.multicastReply(&msgReply{
		GroupID: r.def.ID,
		Key:     m.Key,
		Status:  replySysExc,
		Body:    giop.SystemException{RepoID: giop.ExcTimeout, Completed: giop.CompletedMaybe}.Encode(),
		Node:    r.eng.cfg.Node,
	})
}

// run executes one invocation on the local servant and multicasts the
// reply (unless suppressed).
func (r *replica) run(msgID uint64, m *msgInvocation, rec *opRecord) {
	x := execute(r.servant, r.def.ID, msgID, m.Operation, m.Args, r.eng)
	r.eng.stat.executions.Add(1)

	rep := &msgReply{
		GroupID:   r.def.ID,
		Key:       m.Key,
		Node:      r.eng.cfg.Node,
		ExecMsgID: msgID,
	}

	// A primary whose update record is its postimage piggybacks it on the
	// reply.
	if r.rules.record == recPostimage {
		if upd, ok := r.servant.(orb.Updatable); ok {
			if delta, uerr := upd.LastUpdate(); uerr == nil {
				rep.Update = delta
			}
		}
		if rep.Update == nil {
			if ck, ok := r.servant.(orb.Checkpointable); ok {
				if full, serr := ck.GetState(); serr == nil {
					rep.Update = full
					rep.UpdateFull = true
				}
			}
		}
		if rep.Update != nil {
			rec := wal.Record{Kind: wal.KindUpdate, MsgID: msgID, Op: updateOp(rep.UpdateFull), Data: rep.Update}
			r.logUpdate(rec)
			if r.shipsDR(r.rules.shippers()) {
				r.shipUpdate(rec)
			}
		}
	}
	// The outcome is encoded once, straight into the reply's wire payload;
	// rep.Body then points into it.
	payload, keyLen := encodeExecReply(rep, x.results, x.err)

	r.mu.Lock()
	r.lastExec = msgID
	rec.executedLocal = true
	send := !rec.answered || r.rules.reply == replyAlways
	if !rec.answered {
		rec.answered = true
		rec.reply = rep
	}
	r.mu.Unlock()

	switch {
	case !send:
		// Another replica's response was delivered before this one was
		// even queued.
		r.eng.stat.suppressedReplies.Add(1)
	case r.rules.reply == replyWithdraw:
		_ = r.eng.ringFor(r.def.ID).MulticastOnce(r.names.rep, payload, keyLen)
	default:
		_ = r.eng.ringFor(r.def.ID).Multicast(r.names.rep, payload)
	}

	r.maybeCheckpoint()
}

// flags reads whether the replica is syncing (awaiting a state transfer)
// and whether it is in a secondary partition component.
func (r *replica) flags() (syncing, secondary bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.syncing, r.secondary
}

// multicast sends an engine message on the group's invocation stream.
func (r *replica) multicast(m any) {
	if payload := r.eng.encodeOrReport(m); payload != nil {
		_ = r.eng.ringFor(r.def.ID).Multicast(r.names.inv, payload)
	}
}

func (r *replica) multicastReply(rep *msgReply) {
	payload, _ := encodeReply(rep)
	_ = r.eng.ringFor(r.def.ID).Multicast(r.names.rep, payload)
}

// onReply applies passive state updates and clears covered pending
// operations. (Client-call completion and answered-marking already happened
// in delivery routing.)
func (r *replica) onReply(m *msgReply) {
	if syncing, _ := r.flags(); syncing {
		// Hold updates in order; adoptState replays the ones the
		// transferred snapshot does not already cover.
		r.buffer = append(r.buffer, task{m: m})
		return
	}
	if r.rules.record == recPostimage && m.Node != r.eng.cfg.Node {
		r.mu.Lock()
		stale := m.ExecMsgID <= r.lastExec
		r.mu.Unlock()
		if !stale {
			r.applyUpdate(m)
		}
	}
	// The operation is covered: drop it from the failover-pending list.
	if i := slices.IndexFunc(r.pendingOps, func(t task) bool { return t.m.(*msgInvocation).Key == m.Key }); i >= 0 {
		r.pendingOps = slices.Delete(r.pendingOps, i, i+1)
	}
}

// applyUpdate brings a warm backup to the state a primary's reply leaves
// behind: it installs the reply's full snapshot or applies its postimage,
// and an empty postimage (the operation changed nothing) only advances
// lastExec. A postimage that fails to apply opens a gap (see replica.gap).
func (r *replica) applyUpdate(m *msgReply) {
	applied := true
	switch {
	case m.UpdateFull:
		ck, ok := r.servant.(orb.Checkpointable)
		applied = ok && ck.SetState(m.Update) == nil
	case r.gap:
		return // a delta on top of a missed one does not give the primary's state
	case len(m.Update) > 0:
		upd, ok := r.servant.(orb.Updatable)
		applied = ok && upd.ApplyUpdate(m.Update) == nil
	}
	if !applied {
		r.gap = true
		return
	}
	r.gap = false
	r.mu.Lock()
	r.lastExec = m.ExecMsgID
	r.mu.Unlock()
	// A backup logs each applied update too, so its WAL follows the state
	// it holds — what a restart replays and its next marker checkpoint
	// compacts — and lastLogged, the compaction guard, advances with it.
	r.logUpdate(wal.Record{Kind: wal.KindUpdate, MsgID: m.ExecMsgID, Op: updateOp(m.UpdateFull), Data: m.Update})
}

// --- small set helpers -----------------------------------------------------
