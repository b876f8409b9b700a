package replication

// Checkpoints and state transfer: the periodic checkpoint each style takes
// (styleRules.periodic); the one state-transfer path, where a member that
// needs state asks (msgStateReq) and one member answers with a snapshot;
// its adoption; and the rescue of a group whose members have all asked.

import (
	"cmp"
	"slices"

	"repro/internal/drstore"
	"repro/internal/orb"
	"repro/internal/wal"
)

// maybeCheckpoint takes the style's periodic checkpoint every
// CheckpointEvery operations. The operations are counted where the
// checkpoint is taken: at the primary, or at the DR shipper for a
// store-only snapshot.
func (r *replica) maybeCheckpoint() {
	switch r.rules.periodic {
	case periodicNone:
		return
	case periodicStore:
		if !r.shipsDR(whoPrimary) {
			return
		}
	default:
		if !r.isPrimary() {
			return
		}
	}
	r.opsSinceCk++
	if r.opsSinceCk < r.def.CheckpointEvery {
		return
	}
	r.opsSinceCk = 0
	switch r.rules.periodic {
	case periodicStore:
		if _, _, _, ok := r.snapshot(false); ok {
			r.eng.stat.checkpoints.Add(1)
		}
	case periodicState:
		r.sendCheckpoint(ckptPeriodic)
	case periodicMarker:
		r.sendMarker()
	}
}

// snapshot takes the servant's state and the lastExec it reflects, and
// ships both, with the duplicate-suppression window every checkpoint must
// carry, to the DR store when this member is the group's checkpoint
// shipper. window asks for the encoded window whether or not it ships.
func (r *replica) snapshot(window bool) (state []byte, upTo uint64, covered []byte, ok bool) {
	ck, isCk := r.servant.(orb.Checkpointable)
	if !isCk {
		return nil, 0, nil, false
	}
	state, err := ck.GetState()
	if err != nil {
		return nil, 0, nil, false
	}
	ships := r.shipsDR(whoPrimary)
	r.mu.Lock()
	upTo = r.lastExec
	if window || ships {
		covered = r.dedup.window()
	}
	r.mu.Unlock()
	if ships {
		err := r.eng.cfg.DR.PutCheckpoint(r.def.ID, drstore.Checkpoint{UpToMsgID: upTo, State: state, Covered: covered})
		r.reportShipError(err, "checkpoint", upTo)
	}
	return state, upTo, covered, true
}

// sendCheckpoint multicasts the servant's state; it reports false when the
// servant has none to give.
func (r *replica) sendCheckpoint(reason uint8) bool {
	state, upTo, covered, ok := r.snapshot(true)
	if !ok {
		return false
	}
	r.mu.Lock()
	lfSeq := r.lfApplied
	r.mu.Unlock()
	r.eng.stat.checkpoints.Add(1)
	r.multicast(&msgCheckpoint{GroupID: r.def.ID, Reason: reason, UpToMsgID: upTo, State: state, Covered: covered, LfSeq: lfSeq})
	return true
}

// sendMarker is a warm-passive primary's periodic checkpoint. Every backup
// already holds the state, having applied each reply's postimage, so the
// marker carries only a point in the total order: each member snapshots
// its own state when the marker reaches it (onMarker), and there the
// primary's snapshot also ships to the DR store.
func (r *replica) sendMarker() {
	if _, ok := r.servant.(orb.Checkpointable); !ok {
		return
	}
	r.mu.Lock()
	upTo := r.lastExec
	r.mu.Unlock()
	r.eng.stat.checkpoints.Add(1)
	r.multicast(&msgCheckpoint{GroupID: r.def.ID, Reason: ckptMarker, UpToMsgID: upTo})
}

func (r *replica) onCheckpoint(m *msgCheckpoint) {
	if m.Reason == ckptMarker {
		r.onMarker(m)
		return
	}
	r.resetAskers(m.UpToMsgID)
	syncing, secondary := r.flags()
	if syncing {
		// One the servant refuses leaves it waiting for the next snapshot
		// or view: asking now would fetch the same state again.
		r.adoptState(m)
		return
	}
	if secondary && m.Reason == ckptRemerge {
		// A rescuer's checkpoint (selfPromote) is the merged state.
		r.adoptState(m)
		return
	}

	// Gap repair: a checkpoint past this member's horizon covers a ring
	// lineage it was silently absent from (answerAdded). Adopt it where
	// the style repairs gaps; a cold backup's servant lags by design, and
	// the log append below repairs its recovery channel.
	r.mu.Lock()
	lastExec := r.lastExec
	r.mu.Unlock()
	if m.UpToMsgID > lastExec && r.rules.repairGap.includes(r.isPrimary()) {
		r.adoptState(m)
		return
	}

	// Operational members: persist and compact the log, and drop covered
	// pending operations. A checkpoint behind the logged horizon (e.g. one
	// reaching a healed LF senior that already logged newer assignments)
	// must not compact: the truncation would wipe the newer records.
	if m.UpToMsgID >= r.lastLogged {
		r.logCheckpoint(m.UpToMsgID, m.State)
		r.opsSinceCk = 0
	}
	r.dropPending(m.UpToMsgID)
}

// onMarker handles a warm-passive periodic checkpoint where it falls in the
// total order. A member whose state covers the marker snapshots that state
// itself and logs it, labelled with its own lastExec (the DR shipper's
// snapshot goes to the store too). A member that is behind — a failed
// apply, or replies it never saw — asks for a full-state transfer instead.
// Syncing and secondary members ignore markers: they wait for their answer.
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
	if lastExec >= r.lastLogged {
		if state, upTo, _, ok := r.snapshot(false); ok {
			r.logCheckpoint(upTo, state)
			if !primary {
				// The primary restarted its counts when it sent the
				// marker; what it logged since counts toward the next.
				r.opsSinceCk = 0
			}
		}
	}
	r.dropPending(m.UpToMsgID)
}

// requestState takes the member out of service, buffering what is
// delivered like a joiner, and asks for a full-state transfer.
func (r *replica) requestState() {
	r.mu.Lock()
	r.syncing = true
	r.mu.Unlock()
	r.ask()
}

// ask multicasts a request for state with this member's horizon.
func (r *replica) ask() {
	r.mu.Lock()
	myExec := r.lastExec
	r.mu.Unlock()
	r.multicast(&msgStateReq{GroupID: r.def.ID, From: r.eng.cfg.Node, LastExec: myExec})
}

// logCheckpoint appends a snapshot covering operations up to upTo as the
// log's checkpoint, handing state to the log, and compacts the log.
func (r *replica) logCheckpoint(upTo uint64, state []byte) {
	_ = r.log.Append(wal.Record{Kind: wal.KindCheckpoint, MsgID: upTo, Data: state})
	_ = r.log.TruncateAtCheckpoint()
}

// dropPending drops the failover-pending operations a checkpoint covers.
func (r *replica) dropPending(upTo uint64) {
	r.pendingOps = slices.DeleteFunc(r.pendingOps, func(p task) bool { return p.msgID <= upTo })
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
	// Operations the adopted state covers must not replay at failover.
	r.dropPending(m.UpToMsgID)

	r.mu.Lock()
	// Seed duplicate suppression with the horizons and the operations the
	// snapshot covers. An adopter that missed a delivery lineage (the
	// gap-repair path) has no dedup records for them, and a recovery
	// re-delivery would otherwise re-execute an operation whose effect the
	// adopted state already includes. Replies stay with the original
	// executor — the records are marked executed but not answered, so
	// duplicate answers still come from the member that logged them.
	retired := r.dedup.adopt(covered)
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
	r.countRetired(retired)

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

// onStateReq handles a request for state. Requests are totally ordered, so
// the members see the same askers since the last view or checkpoint, and
// one member answers them (answer). A request advertising less than the
// newest snapshot since the view was sent before that snapshot reached its
// asker, which it answered. If every member has asked — possible after
// heavy churn leaves all survivors believing another component was
// primary — the one with the most applied state promotes its own.
func (r *replica) onStateReq(m *msgStateReq) {
	if m.LastExec < r.served {
		return
	}
	r.askers[m.From] = m.LastExec
	if r.answer() {
		return
	}
	r.mu.Lock()
	members := append([]string(nil), r.members...)
	r.askers[r.eng.cfg.Node] = max(r.askers[r.eng.cfg.Node], r.lastExec)
	r.mu.Unlock()
	// This replica cannot answer, so it counts itself an asker before its
	// own request circles back (else two members that need state can each
	// see only the other's request and both nominate themselves). Rescue
	// waits while a member that has not asked may yet answer, and a
	// singleton waits for company: promoting could anoint an empty fresh
	// incarnation just before a heal merges a member with real state.
	if len(members) < 2 || r.responder(members) != "" {
		return
	}
	// Every member has asked: elect the highest advertised horizon (ties
	// break by seniority), which every member computes alike from the
	// ordered requests — a secondary survivor with real state always beats
	// a freshly recruited incarnation advertising zero.
	rescuer := slices.MaxFunc(members, func(a, b string) int { return cmp.Compare(r.askers[a], r.askers[b]) })
	if rescuer == r.eng.cfg.Node {
		r.selfPromote()
	}
}

// answerAdded counts the members a view adds as askers, where this member
// can answer. A joiner asks for itself, but a member that missed a ring
// lineage without noticing does not (its own view diff was empty): only
// the others' view shows it. A member that has ordered nothing has nothing
// anyone missed, so hosting a group sends no snapshot.
func (r *replica) answerAdded(added []string) {
	r.mu.Lock()
	able := !r.syncing && !r.secondary && max(r.lastExec, r.lastLogged) > 0
	r.mu.Unlock()
	if _, ok := r.servant.(orb.Checkpointable); ok && able && r.rules.record != recNone {
		for _, n := range added {
			r.askers[n] = 0
		}
		r.answer()
	}
}

// answer reports whether this member can answer state requests: it is
// neither syncing nor secondary. Then, if it is the askers' responder (the
// first member of the view that has not asked), it sends them one
// snapshot. A warm backup with a gap asks instead, and a member whose
// snapshot fails asks without leaving service: the answer passes down the
// view. A cold backup first replays its log, its servant lagging.
func (r *replica) answer() bool {
	r.mu.Lock()
	able := !r.syncing && !r.secondary
	members := append([]string(nil), r.members...)
	r.mu.Unlock()
	switch {
	case !able || r.answered || r.responder(members) != r.eng.cfg.Node:
	case r.gap:
		r.requestState()
	default:
		if r.rules.backupLags() && !r.isPrimary() {
			r.replayLog()
		}
		if r.answered = r.sendCheckpoint(ckptJoin); !r.answered {
			r.ask()
		}
	}
	return able
}

// responder returns the member that answers the current askers: the first
// member of the view that has not asked, or "" when every member has.
func (r *replica) responder(members []string) string {
	for _, n := range members {
		if _, asked := r.askers[n]; !asked {
			return n
		}
	}
	return ""
}

// resetAskers starts a new set of askers: a view or a snapshot answers, or
// voids, every request ordered before it. served is the snapshot's horizon
// (0 for a view).
func (r *replica) resetAskers(served uint64) {
	clear(r.askers)
	r.answered = false
	r.served = served
}

// selfPromote makes this replica's state authoritative when every member
// has asked: it replays anything it buffered and snapshots the group.
func (r *replica) selfPromote() {
	r.mu.Lock()
	r.syncing = false
	r.secondary = false
	upTo := r.lastExec
	r.mu.Unlock()
	r.fulfill = nil
	r.replayBuffered(upTo)
	r.sendCheckpoint(ckptRemerge)
}
