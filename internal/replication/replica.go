package replication

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/drstore"
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
	pendingOps []task       // invocations delivered, not yet covered (warm backups)
	fulfill    []fulfillRec // operations performed while secondary
	preSplit   []string     // view before this member became secondary
	former     map[string]bool
	opsSinceCk int
	lastLogged uint64 // newest update-record MsgID appended to the WAL (task-loop owned)
	// gap is set when a warm backup failed to apply a primary's postimage:
	// its state no longer follows lastExec, so it applies no further delta
	// (a full snapshot repairs it) and requests a state transfer at the
	// next marker.
	gap          bool
	fulfillSeq   uint64
	everHadView  bool
	stuck        map[string]uint64 // members awaiting state transfer → their advertised lastExec
	lastSnapResp time.Time         // rate limit for state-request answers
	healNudges   int               // post-heal catch-up nudges sent (diagnostics)

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
	if _, ok := servant.(orb.Checkpointable); !ok || def.Style == Stateless {
		// Nothing to transfer: the replica is operational immediately.
		syncing = false
	}
	return &replica{
		eng:       e,
		def:       def,
		names:     namesOf(def.ID),
		servant:   servant,
		q:         newTaskQueue(),
		log:       log,
		dedup:     newDedupTable(),
		syncing:   syncing,
		former:    make(map[string]bool),
		stuck:     make(map[string]uint64),
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

// shipsDR reports whether this member ships to the disaster-recovery
// store: the senior member of the primary component. Shipping follows the
// primary component — a secondary component's partition-era operations
// reach the store via fulfillment replay after remerge, not directly —
// and seniority picks exactly one shipper per group (the store's MsgID
// idempotence absorbs the overlap when seniority moves during failover).
func (r *replica) shipsDR() bool {
	if r.eng.cfg.DR == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.secondary && len(r.members) > 0 && r.members[0] == r.eng.cfg.Node
}

// shipsDRActive reports whether this member ships active-style invocation
// records: every member of the primary component (see process for why
// seniority alone is not enough there).
func (r *replica) shipsDRActive() bool {
	if r.eng.cfg.DR == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.secondary
}

// shipUpdate sends one update record to the DR store (no-op unless this
// member is the group's shipper).
func (r *replica) shipUpdate(rec wal.Record) {
	if r.shipsDR() {
		r.reportShipError(r.eng.cfg.DR.AppendUpdate(r.def.ID, rec), "update", rec.MsgID)
	}
}

// reportShipError counts a shipment the DR store refused and reports it as
// a fault: the standby may now lack what the client was (or will be) told
// is done.
func (r *replica) reportShipError(err error, what string, msgID uint64) {
	if err == nil {
		return
	}
	r.eng.stat.drShipErrors.Add(1)
	if n := r.eng.cfg.Notifier; n != nil {
		n.Push(fault.Report{
			Kind:     fault.DRShipFailure,
			Node:     r.eng.cfg.Node,
			GroupID:  r.def.ID,
			Detail:   fmt.Sprintf("ship %s at msg %d: %v", what, msgID, err),
			Detected: time.Now(),
		})
	}
}

// logUpdate appends one update record to the local WAL and advances the
// logged horizon the checkpoint-compaction staleness guard compares
// against. Task-loop only.
func (r *replica) logUpdate(rec wal.Record) {
	_ = r.log.Append(rec)
	if rec.MsgID > r.lastLogged {
		r.lastLogged = rec.MsgID
	}
}

// shipCheckpoint sends a full-state snapshot plus the covered dedup window
// (in its wire encoding, passed through unparsed) to the DR store.
func (r *replica) shipCheckpoint(upTo uint64, state []byte, window []byte) {
	if r.shipsDR() {
		err := r.eng.cfg.DR.PutCheckpoint(r.def.ID, drstore.Checkpoint{UpToMsgID: upTo, State: state, Covered: window})
		r.reportShipError(err, "checkpoint", upTo)
	}
}

func (r *replica) onInvoke(msgID uint64, m *msgInvocation) {
	r.mu.Lock()
	syncing := r.syncing
	secondary := r.secondary
	r.mu.Unlock()

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
		if answered && r.shouldAnswerDuplicates() {
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

	// Cold passive: every member — primary included — logs the ordered
	// invocation before acting on it, so a crashed-and-restarted replica can
	// rebuild its state from its own write-ahead log (wal.Recover + replay)
	// instead of requiring a full state transfer. The same record ships to
	// the DR store *before* execution (and therefore before any client ack),
	// which is what makes cold-passive RPO zero: an acknowledged operation
	// is always either in a shipped checkpoint's covered window or in a
	// shipped segment.
	if r.def.Style == ColdPassive {
		if data, err := encodeWire(m); err == nil {
			rec := wal.Record{
				Kind:  wal.KindUpdate,
				MsgID: msgID,
				Op:    opRecInvoke + m.Operation,
				Data:  data,
			}
			r.logUpdate(rec)
			r.shipUpdate(rec)
		}
	}

	// Active styles keep no invocation log locally (every replica holds live
	// state), but with a DR store attached every primary-component member
	// ships the ordered invocations so a standby can rebuild active groups
	// by replay too. Unlike the passive styles — where the shipper and the
	// replier are the same senior member — any active member may be the one
	// whose reply acks the client, so each must ship before executing for
	// RPO zero to hold; the store's MsgID idempotence drops the duplicate
	// copies. Stateless groups ship nothing: there is no state to recover.
	if r.def.Style.IsActive() && r.def.Style != Stateless && r.shipsDRActive() {
		if data, err := encodeWire(m); err == nil {
			err := r.eng.cfg.DR.AppendUpdate(r.def.ID, wal.Record{
				Kind:  wal.KindUpdate,
				MsgID: msgID,
				Op:    opRecInvoke + m.Operation,
				Data:  data,
			})
			r.reportShipError(err, "update", msgID)
		}
	}

	// Leader-follower: the leader assigns and executes; followers get the
	// operation through the order stream and hold nothing here.
	if r.def.Style.IsLeaderFollower() {
		r.lfClassic(m, rec)
		return
	}

	if r.def.Style.IsActive() || r.isPrimary() {
		r.run(msgID, m, rec)
		return
	}

	// Passive backup: hold the operation for possible failover replay.
	r.pendingOps = append(r.pendingOps, task{msgID: msgID, m: m})
}

// shouldAnswerDuplicates limits who re-sends logged replies for duplicate
// invocations, avoiding a reply storm: the primary for passive styles, the
// senior member for active styles.
func (r *replica) shouldAnswerDuplicates() bool { return r.isPrimary() }

// refuseEvicted handles an invocation whose record the count cap evicted:
// the operation may have executed already, so it must not run again. The
// refusal is counted and reported as a fault, and the member that answers
// duplicates replies with a system exception (completion unknown).
func (r *replica) refuseEvicted(m *msgInvocation) {
	r.eng.stat.dedupOverflows.Add(1)
	if !r.shouldAnswerDuplicates() {
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

	// Passive primaries piggyback the state update on the reply.
	if r.def.Style == WarmPassive {
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
			r.shipUpdate(rec)
		}
	}
	// The outcome is encoded once, straight into the reply's wire payload;
	// rep.Body then points into it.
	payload, keyLen := encodeExecReply(rep, x.results, x.err)

	r.mu.Lock()
	r.lastExec = msgID
	rec.executedLocal = true
	send := !rec.answered
	if !rec.answered {
		rec.answered = true
		rec.reply = rep
	}
	if r.def.Style == ActiveWithVoting {
		// Voting clients need every replica's independent response;
		// sender-side suppression would starve the quorum.
		send = true
	}
	r.mu.Unlock()

	switch {
	case !send:
		// Another replica's response was delivered before this one was
		// even queued.
		r.eng.stat.suppressedReplies.Add(1)
	case r.def.Style == Active || r.def.Style == Stateless:
		// Sender-side suppression (the paper's Figure 2) at transmission
		// time: the ring withdraws the queued reply if another replica's
		// reply to the operation is delivered before the token takes it.
		_ = r.eng.ringFor(r.def.ID).MulticastOnce(r.names.rep, payload, keyLen)
	default:
		_ = r.eng.ringFor(r.def.ID).Multicast(r.names.rep, payload)
	}

	r.maybeCheckpoint()
}

// maybeCheckpoint emits a periodic full-state checkpoint on the compaction
// policy: every CheckpointEvery operations. For passive groups the primary
// multicasts it (cold backups truncate their invocation logs on it); for
// active groups with a DR store attached, the senior member takes a
// store-only snapshot so the standby's segment replay stays bounded.
func (r *replica) maybeCheckpoint() {
	if (r.def.Style.IsPassive() || r.def.Style.IsLeaderFollower()) && r.isPrimary() {
		r.opsSinceCk++
		if r.opsSinceCk < r.def.CheckpointEvery {
			return
		}
		r.opsSinceCk = 0
		if r.def.Style == WarmPassive {
			r.sendMarker()
		} else {
			r.sendCheckpoint(ckptPeriodic)
		}
		return
	}
	if r.def.Style.IsActive() && r.def.Style != Stateless && r.shipsDR() {
		r.opsSinceCk++
		if r.opsSinceCk < r.def.CheckpointEvery {
			return
		}
		r.opsSinceCk = 0
		if ck, ok := r.servant.(orb.Checkpointable); ok {
			if state, err := ck.GetState(); err == nil {
				upTo, covered := r.coveredWindow()
				r.eng.stat.checkpoints.Add(1)
				r.shipCheckpoint(upTo, state, covered)
			}
		}
	}
}

// coveredWindow snapshots the replica's duplicate-suppression window —
// the exactly-once metadata every checkpoint must carry — in its wire
// encoding.
func (r *replica) coveredWindow() (upTo uint64, win []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastExec, r.dedup.window()
}

func (r *replica) sendCheckpoint(reason uint8) {
	ck, ok := r.servant.(orb.Checkpointable)
	if !ok {
		return
	}
	state, err := ck.GetState()
	if err != nil {
		return
	}
	upTo, covered := r.coveredWindow()
	r.mu.Lock()
	lfSeq := r.lfApplied
	r.mu.Unlock()
	r.eng.stat.checkpoints.Add(1)
	r.shipCheckpoint(upTo, state, covered)
	if payload := r.eng.encodeOrReport(&msgCheckpoint{
		GroupID:   r.def.ID,
		Reason:    reason,
		UpToMsgID: upTo,
		State:     state,
		Covered:   covered,
		LfSeq:     lfSeq,
	}); payload != nil {
		_ = r.eng.ringFor(r.def.ID).Multicast(r.names.inv, payload)
	}
}

// sendMarker is a warm-passive primary's periodic checkpoint. Every backup
// already holds the state, having applied each reply's postimage, so the
// marker carries only a point in the total order: each member snapshots
// its own state when the marker reaches it (onMarker). The DR shipper
// still ships a full snapshot to the store, as sendCheckpoint does.
func (r *replica) sendMarker() {
	ck, ok := r.servant.(orb.Checkpointable)
	if !ok {
		return
	}
	if r.shipsDR() {
		if state, err := ck.GetState(); err == nil {
			upTo, covered := r.coveredWindow()
			r.shipCheckpoint(upTo, state, covered)
		}
	}
	r.mu.Lock()
	upTo := r.lastExec
	r.mu.Unlock()
	r.eng.stat.checkpoints.Add(1)
	if payload := r.eng.encodeOrReport(&msgCheckpoint{
		GroupID:   r.def.ID,
		Reason:    ckptMarker,
		UpToMsgID: upTo,
	}); payload != nil {
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
	r.mu.Lock()
	syncing := r.syncing
	r.mu.Unlock()
	if syncing {
		// Hold updates in order; adoptState replays the ones the
		// transferred snapshot does not already cover.
		r.buffer = append(r.buffer, task{m: m})
		return
	}
	if r.def.Style == WarmPassive && m.Node != r.eng.cfg.Node {
		r.mu.Lock()
		stale := m.ExecMsgID <= r.lastExec
		r.mu.Unlock()
		if !stale {
			r.applyUpdate(m)
		}
	}
	// The operation is covered: drop it from the failover-pending list.
	for i := range r.pendingOps {
		if r.pendingOps[i].m.(*msgInvocation).Key == m.Key {
			r.pendingOps = append(r.pendingOps[:i], r.pendingOps[i+1:]...)
			break
		}
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

func (r *replica) onCheckpoint(m *msgCheckpoint) {
	if m.Reason == ckptMarker {
		r.onMarker(m)
		return
	}
	r.stuck = make(map[string]uint64) // a snapshot unsticks its adopters
	r.mu.Lock()
	syncing := r.syncing
	secondary := r.secondary
	r.mu.Unlock()

	if syncing {
		r.adoptState(m)
		return
	}
	if secondary && m.Reason == ckptRemerge {
		// A remerge checkpoint can arrive before our own view task if the
		// primary side reacted first; adopt it as the merged state.
		r.adoptState(m)
		return
	}

	// Gap repair: a checkpoint covering operations beyond this member's
	// execution horizon means those operations were ordered in a ring
	// lineage this member was silently absent from (e.g. a reformation it
	// never noticed — its own view diff was empty, so no remerge logic ran
	// here). The checkpoint is the primary component's authoritative state;
	// adopt it. Cold-passive backups are exempt: their servants lag by
	// design, and the log append below repairs their recovery channel.
	r.mu.Lock()
	lastExec := r.lastExec
	r.mu.Unlock()
	if m.UpToMsgID > lastExec && r.def.Style != ColdPassive &&
		!(r.def.Style.IsLeaderFollower() && r.isPrimary()) {
		// (The LF leader's own state is authoritative by construction; it
		// never adopts from a checkpoint.)
		r.adoptState(m)
		return
	}

	// Operational members: persist and compact the log (the cold passive
	// truncation point), and drop covered pending operations. Staleness
	// guard: a duplicate checkpoint from behind our logged horizon — a
	// re-sent join answer arriving after this member moved on, e.g. a
	// healed LF senior that already resumed leadership and logged newer
	// assignments — must not compact, because the position-based
	// truncation would wipe every newer update record from the WAL.
	if m.UpToMsgID >= r.lastLogged {
		r.logCheckpoint(m.UpToMsgID, m.State)
		r.opsSinceCk = 0
	}
	r.dropPending(m.UpToMsgID)
}

// onMarker handles a warm-passive periodic checkpoint where it falls in the
// total order. A member whose state covers the marker snapshots that state
// itself and logs it as its checkpoint, labelled with its own lastExec, so
// its log holds exactly its state. A member that is behind — a failed
// apply, or replies it never saw — goes syncing and requests a full-state
// transfer instead. Syncing and secondary members ignore markers: they wait
// for their join or remerge checkpoint. No member adopts state from a
// marker, and none reads its (empty) Covered window.
func (r *replica) onMarker(m *msgCheckpoint) {
	r.mu.Lock()
	syncing, secondary, lastExec := r.syncing, r.secondary, r.lastExec
	primary := len(r.members) > 0 && r.members[0] == r.eng.cfg.Node
	r.mu.Unlock()
	if syncing || secondary {
		return
	}
	if r.gap || lastExec < m.UpToMsgID {
		r.requestState()
		return
	}
	if ck, ok := r.servant.(orb.Checkpointable); ok && lastExec >= r.lastLogged {
		if state, err := ck.GetState(); err == nil {
			r.logCheckpoint(lastExec, state)
			if !primary {
				// The primary restarted its counts when it sent the
				// marker; what it logged since counts toward the next.
				r.opsSinceCk = 0
			}
		}
	}
	r.dropPending(m.UpToMsgID)
}

// requestState takes an operational member out of service until a
// full-state transfer repairs it: like a joiner, it buffers what is
// delivered meanwhile, and every healthy member answers its request with a
// snapshot (onStateReq).
func (r *replica) requestState() {
	r.mu.Lock()
	r.syncing = true
	myExec := r.lastExec
	r.mu.Unlock()
	if payload := r.eng.encodeOrReport(&msgStateReq{GroupID: r.def.ID, From: r.eng.cfg.Node, LastExec: myExec}); payload != nil {
		_ = r.eng.ringFor(r.def.ID).Multicast(r.names.inv, payload)
	}
}

// logCheckpoint appends a snapshot covering operations up to upTo as the
// log's checkpoint, handing state to the log, and compacts the log against
// it.
func (r *replica) logCheckpoint(upTo uint64, state []byte) {
	_ = r.log.Append(wal.Record{Kind: wal.KindCheckpoint, MsgID: upTo, Data: state})
	_ = r.log.TruncateAtCheckpoint()
}

// dropPending drops the failover-pending operations a checkpoint covers.
func (r *replica) dropPending(upTo uint64) {
	kept := r.pendingOps[:0]
	for _, p := range r.pendingOps {
		if p.msgID > upTo {
			kept = append(kept, p)
		}
	}
	clear(r.pendingOps[len(kept):])
	r.pendingOps = kept
}

// adoptState installs a transferred state snapshot and replays buffered
// invocations past it — the join/remerge synchronization point.
func (r *replica) adoptState(m *msgCheckpoint) {
	r.mu.Lock()
	// A former secondary always adopts: its msgIDs come from a divergent
	// ring lineage and don't compare against the primary component's, and
	// its own partition-era operations return via fulfillment replay.
	behind := m.UpToMsgID < r.lastExec && !r.secondary
	r.mu.Unlock()
	// A window that does not parse fails adoption like a state that does
	// not install: the replica stays as it was and keeps waiting.
	covered, err := decodeWindow(m.Covered)
	if err != nil {
		return
	}
	if behind {
		// This replica's state is already *newer* than the offered snapshot —
		// typical for a crash-restarted member that recovered from its own
		// write-ahead log and was then offered a stale periodic checkpoint.
		// Keep the recovered state and only take the offered horizons
		// (facts about clients, true in any lineage); leave the syncing
		// phase and replay anything buffered past it.
		r.mu.Lock()
		retired := r.dedup.adopt(window{horizons: covered.horizons})
		upTo := r.lastExec
		r.syncing = false
		r.secondary = false
		r.mu.Unlock()
		r.countRetired(retired)
		r.replayBuffered(upTo)
		return
	}
	ck, ok := r.servant.(orb.Checkpointable)
	if ok {
		if err := ck.SetState(m.State); err != nil {
			return
		}
	}
	r.eng.stat.stateTransfers.Add(1)
	r.gap = false
	r.logCheckpoint(m.UpToMsgID, m.State)
	r.opsSinceCk = 0
	// The truncation wiped every update record positioned before the
	// adopted checkpoint; the logged horizon restarts from its coverage.
	r.lastLogged = m.UpToMsgID
	// Seed duplicate suppression with the horizons and the operations the
	// snapshot covers. An adopter that missed a delivery lineage (the
	// gap-repair path) has no dedup records for them, and a recovery
	// re-delivery would otherwise re-execute an operation whose effect the
	// adopted state already includes. Replies stay with the original
	// executor — the records are marked executed but not answered, so
	// duplicate answers still come from the member that logged them.
	r.mu.Lock()
	retired := r.dedup.adopt(covered)
	r.mu.Unlock()
	r.countRetired(retired)
	// Operations the adopted state covers must not replay at failover.
	r.dropPending(m.UpToMsgID)

	r.mu.Lock()
	r.lastExec = m.UpToMsgID
	if m.LfSeq > r.lfApplied {
		// Resume session-token-gated reads (and, on later promotion, the
		// assignment numbering) from the snapshot's leader sequence.
		r.lfApplied = m.LfSeq
	}
	r.syncing = false
	wasSecondary := r.secondary
	if wasSecondary {
		// A former secondary's leadership terms come from a divergent ring
		// lineage: fence them off so its own stale order stream cannot
		// re-apply over the adopted state.
		r.lfFence = r.lfEpoch
	}
	r.secondary = false
	r.mu.Unlock()

	if wasSecondary {
		r.sendFulfillments()
	}
	r.replayBuffered(m.UpToMsgID)
}

// replayBuffered runs, in delivery order, the tasks held while syncing
// that the installed state does not cover (it covers msgIDs up to upTo).
// Replies always re-run: onReply re-checks staleness against the state.
// Ordered LF writes the dedup table covers skip via executedLocal.
func (r *replica) replayBuffered(upTo uint64) {
	buffered := r.buffer
	r.buffer = nil
	for _, t := range buffered {
		switch m := t.m.(type) {
		case *msgInvocation:
			if t.msgID > upTo {
				r.process(t.msgID, m)
			}
		case *msgReply:
			r.onReply(m)
		case *msgLfOrder:
			if lfMsgID(m.Epoch, m.Seq) > upTo {
				r.onLfOrder(m)
			}
		}
	}
}

// sendFulfillments replays the operations this (former) secondary
// component performed during the partition, as fresh ordered invocations
// against the merged state. Only the component's senior surviving member
// transmits; the others clear their queues.
func (r *replica) sendFulfillments() {
	queue := r.fulfill
	r.fulfill = nil
	if len(queue) == 0 {
		return
	}
	r.mu.Lock()
	members := append([]string(nil), r.members...)
	r.mu.Unlock()
	sender := seniorOf(intersect(r.preSplit, members))
	if sender != r.eng.cfg.Node {
		return
	}
	mapper, _ := r.servant.(FulfillmentMapper)
	for _, f := range queue {
		op, args := f.op, f.args
		if mapper != nil {
			decoded, err := orb.DecodeRequestBody(f.args)
			if err != nil {
				continue
			}
			newOp, newArgs, keep := mapper.MapFulfillment(f.op, decoded)
			if !keep {
				continue
			}
			op, args = newOp, orb.EncodeRequestBody(newArgs)
		}
		r.fulfillSeq++
		r.eng.stat.fulfillments.Add(1)
		if payload := r.eng.encodeOrReport(&msgInvocation{
			GroupID:     r.def.ID,
			Key:         opKey{ClientID: "f:" + r.eng.cfg.Node, ParentSeq: 0, OpSeq: r.fulfillSeq},
			Operation:   op,
			Args:        args,
			Oneway:      true,
			Fulfillment: true,
		}); payload != nil {
			_ = r.eng.ringFor(r.def.ID).Multicast(r.names.inv, payload)
		}
	}
}

func (r *replica) onView(t taskView) {
	r.mu.Lock()
	old := r.members
	r.members = append([]string(nil), t.members...)
	secondary := r.secondary
	syncing := r.syncing
	r.mu.Unlock()
	r.stuck = make(map[string]uint64) // membership changed: re-learn who is stuck

	if !r.everHadView {
		r.everHadView = true
		if len(old) == 0 {
			return
		}
	}
	if len(old) == 0 {
		return
	}

	removed := subtract(old, t.members)
	added := subtract(t.members, old)

	if len(removed) > 0 {
		for _, n := range removed {
			r.former[n] = true
			if r.eng.cfg.Notifier != nil {
				r.eng.cfg.Notifier.Push(fault.Report{
					Kind:    fault.ObjectCrash,
					Node:    n,
					GroupID: r.def.ID,
					Member:  n,
				})
			}
		}
		// Partition detection: the component retaining a majority of the
		// old view (senior member breaking even splits) is the primary
		// component; the others become secondary and start queueing
		// fulfillment operations. (A minority component is indistinguishable
		// from having watched the majority crash — the classic partition
		// ambiguity — so small components conservatively go secondary.)
		if !secondary && !isPrimaryComponent(old, t.members) {
			r.mu.Lock()
			r.secondary = true
			r.mu.Unlock()
			r.preSplit = old
		}
		// Failover: the new senior member of a passive group re-executes
		// the uncovered operations.
		if r.def.Style.IsPassive() && !syncing && len(t.members) > 0 &&
			t.members[0] == r.eng.cfg.Node && old[0] != r.eng.cfg.Node {
			r.failover()
		}
	}

	// Leader-follower epoch/fence/lease maintenance and takeover run on
	// every membership change (a join by a lexically-senior node moves
	// leadership too, not just removals).
	if r.def.Style.IsLeaderFollower() {
		r.lfOnView(old, t)
	}

	if len(added) > 0 {
		remerge := false
		for _, n := range added {
			if r.former[n] {
				remerge = true
			}
			delete(r.former, n)
		}
		if secondary {
			// A remerge — for a secondary — means a member of the view we
			// split from is back: its component may hold the primary state,
			// so wait for it, then send fulfillments (adoptState does
			// both). Membership in preSplit distinguishes a true remerge
			// from a crashed member recruited back by the Replication
			// Manager as a fresh incarnation with no state — but either
			// way this member's WAL and servant lag the merged lineage, so
			// it must go syncing; the stateReq rescue (every member stuck
			// → senior self-promotes) guarantees liveness even when the
			// added member has nothing to offer.
			back := false
			for _, n := range added {
				for _, p := range r.preSplit {
					if n == p {
						back = true
					}
				}
			}
			if back {
				r.preSplit = old
			}
			// Go syncing, with a post-heal catch-up nudge: a heal that
			// arrives with no follow-on traffic used to leave this member
			// stranded until the sync-retry tick (or forever, when the join
			// was a fresh incarnation and nothing marked us syncing at all).
			// Request state immediately; the request doubles as post-heal
			// traffic that flushes ordered-delivery catch-up.
			r.healNudges++
			r.eng.stat.healNudges.Add(1)
			r.requestState()
			return
		}
		if !secondary && !syncing {
			// Existing members bring joiners (or remerging secondaries) up
			// to date; the senior pre-existing member transmits the state.
			stayers := intersect(old, t.members)
			if len(stayers) > 0 && stayers[0] == r.eng.cfg.Node {
				reason := ckptJoin
				if remerge {
					reason = ckptRemerge
				}
				r.sendCheckpoint(reason)
			}
		}
	}
}

// onStateReq answers a stuck replica's state request (totally ordered, so
// every member sees the same request stream). Healthy members respond with
// a snapshot. If every member of the view is stuck — possible after heavy
// membership churn leaves all survivors believing some other component was
// primary — the stuck member with the most applied state promotes its own
// state to authoritative, guaranteeing the group always recovers without
// anointing an empty fresh incarnation over a state-bearing survivor.
func (r *replica) onStateReq(m *msgStateReq) {
	r.stuck[m.From] = m.LastExec
	r.mu.Lock()
	syncing := r.syncing
	secondary := r.secondary
	myExec := r.lastExec
	members := append([]string(nil), r.members...)
	r.mu.Unlock()

	if !syncing && !secondary {
		// Rate-limit: several stuck members may request at once, and the
		// snapshot can be large.
		if time.Since(r.lastSnapResp) >= 100*time.Millisecond {
			r.lastSnapResp = time.Now()
			r.sendCheckpoint(ckptJoin)
		}
		return
	}
	if len(members) < 2 {
		// A stranded singleton has nobody to offer state and nothing to
		// arbitrate: promoting here would anoint a possibly-empty fresh
		// incarnation as authoritative just before a heal merges a member
		// that still holds real state. Keep waiting for company.
		return
	}
	// Stranded: this replica is syncing or secondary, so no healthy
	// primary-component member answered above. Rescue falls to the senior
	// member that has NOT itself requested state — a member that still
	// considers itself operational would have answered with a checkpoint,
	// so one that is merely quiet may yet do so. This replica is in the
	// stranded branch, so it counts itself stuck regardless of whether its
	// own request has circled back; without that, two mutually-stuck
	// members can each see only the other's request first and both
	// nominate themselves.
	if _, ok := r.stuck[r.eng.cfg.Node]; !ok || r.stuck[r.eng.cfg.Node] < myExec {
		r.stuck[r.eng.cfg.Node] = myExec
	}
	for _, m := range members {
		if _, ok := r.stuck[m]; !ok {
			return // a possibly-healthy member may still answer
		}
	}
	// Every member is stuck: elect the one whose advertised applied-state
	// horizon is highest (ties break by seniority). The stateReq stream is
	// totally ordered and carries each requester's horizon, so every member
	// computes the same rescuer — and a secondary survivor with real state
	// always beats a freshly recruited incarnation advertising zero.
	rescuer := members[0]
	best := r.stuck[members[0]]
	for _, m := range members[1:] {
		if exec := r.stuck[m]; exec > best {
			rescuer, best = m, exec
		}
	}
	if rescuer != r.eng.cfg.Node {
		return
	}
	r.selfPromote()
}

// selfPromote makes this replica's state authoritative after total
// stranding: it stops waiting for a transfer, replays anything it buffered,
// and snapshots the group so the other stuck members adopt its state.
func (r *replica) selfPromote() {
	r.mu.Lock()
	r.syncing = false
	r.secondary = false
	upTo := r.lastExec
	r.mu.Unlock()
	r.stuck = make(map[string]uint64)
	r.fulfill = nil
	r.replayBuffered(upTo)
	r.sendCheckpoint(ckptRemerge)
}

// failover makes this replica the acting primary: cold passive rebuilds
// state from the log, then uncovered operations re-execute in delivery
// order.
func (r *replica) failover() {
	if r.def.Style == ColdPassive {
		cp, updates, ok, err := r.log.Recover()
		if err == nil {
			if ok {
				if ck, isCk := r.servant.(orb.Checkpointable); isCk {
					_ = ck.SetState(cp.Data)
					r.mu.Lock()
					r.lastExec = cp.MsgID
					r.mu.Unlock()
				}
			}
			for _, rec := range updates {
				m, derr := decodeWire(rec.Data)
				if derr != nil {
					continue
				}
				inv, isInv := m.(*msgInvocation)
				if !isInv {
					continue
				}
				r.eng.stat.replays.Add(1)
				r.replayOne(rec.MsgID, inv)
			}
		}
		r.pendingOps = nil
		// Give the rebuilt group a fresh checkpoint so the new backups'
		// logs restart small.
		r.sendCheckpoint(ckptPeriodic)
		return
	}

	// Warm passive: state is current (updates were applied); re-execute
	// only the uncovered operations.
	pend := r.pendingOps
	r.pendingOps = nil
	for _, t := range pend {
		r.eng.stat.replays.Add(1)
		r.replayOne(t.msgID, t.m.(*msgInvocation))
	}
}

// replayOne re-executes an operation during failover. Operations whose
// replies were already delivered re-execute for state effect only (cold
// passive) without re-sending the logged reply.
func (r *replica) replayOne(msgID uint64, m *msgInvocation) {
	r.mu.Lock()
	rec, st := r.dedup.lookup(m.Key)
	switch st {
	case keyNew:
		rec = r.dedup.record(m.Key)
	case keyRetired, keyEvicted:
		// The record is gone, but a cold backup never executed the
		// operation and its checkpoint does not include it: re-execute it
		// from the log on a detached, answered record, so nothing is
		// recorded or re-sent. (Warm backups hold no retired operation:
		// the reply that completed its client dropped it from pendingOps.)
		rec = &opRecord{answered: true}
	}
	executed := rec.executedLocal
	r.mu.Unlock()
	if executed {
		return
	}
	r.run(msgID, m, rec)
}

// wireToOutcome converts reply status + body back to Dispatch form.
func wireToOutcome(status uint32, body []byte) ([]cdr.Value, error) {
	switch status {
	case replyOK:
		return orb.DecodeReplyBody(body)
	case replyUserExc:
		uexc, err := orb.DecodeUserException(body)
		if err != nil {
			return nil, err
		}
		return nil, uexc
	default:
		sysExc, err := giop.DecodeSystemException(body, cdr.BigEndian)
		if err != nil {
			return nil, err
		}
		return nil, sysExc
	}
}

// --- small set helpers -----------------------------------------------------

func contains(set []string, x string) bool {
	for _, s := range set {
		if s == x {
			return true
		}
	}
	return false
}

func subtract(a, b []string) []string {
	var out []string
	for _, x := range a {
		if !contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func intersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		if contains(b, x) {
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// isPrimaryComponent decides whether the surviving view is the primary
// component after a membership loss: strict majority of the old view wins;
// an exact half wins only if it retains the old view's senior member.
func isPrimaryComponent(old, survivors []string) bool {
	kept := len(intersect(old, survivors))
	switch {
	case 2*kept > len(old):
		return true
	case 2*kept == len(old):
		return contains(survivors, seniorOf(old))
	default:
		return false
	}
}

func seniorOf(set []string) string {
	if len(set) == 0 {
		return ""
	}
	min := set[0]
	for _, s := range set[1:] {
		if s < min {
			min = s
		}
	}
	return min
}
