package replication

// Checkpoints and state transfer: the periodic checkpoint each style takes
// (styleRules.periodic), the join, remerge and repair snapshots, their
// adoption, and the rescue of a group whose members are all stuck.

import (
	"slices"
	"time"

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
// ships both to the DR store, with the duplicate-suppression window (the
// exactly-once metadata every checkpoint must carry), when this member is
// the group's checkpoint shipper. window asks for the window, in its wire
// encoding, whether or not it ships. ok is false when the servant has no
// state to take.
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

func (r *replica) sendCheckpoint(reason uint8) {
	state, upTo, covered, ok := r.snapshot(true)
	if !ok {
		return
	}
	r.mu.Lock()
	lfSeq := r.lfApplied
	r.mu.Unlock()
	r.eng.stat.checkpoints.Add(1)
	r.multicast(&msgCheckpoint{GroupID: r.def.ID, Reason: reason, UpToMsgID: upTo, State: state, Covered: covered, LfSeq: lfSeq})
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
	r.stuck = make(map[string]uint64) // a snapshot unsticks its adopters
	syncing, secondary := r.flags()
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
	// adopt it — where the style repairs gaps (rules.repairGap): a cold
	// backup's servant lags by design, and the log append below repairs
	// its recovery channel.
	r.mu.Lock()
	lastExec := r.lastExec
	r.mu.Unlock()
	if m.UpToMsgID > lastExec && r.rules.repairGap.includes(r.isPrimary()) {
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
// its log holds exactly its state; the DR shipper's snapshot goes to the
// store too (snapshot). A member that is behind — a failed
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

// requestState takes an operational member out of service until a
// full-state transfer repairs it: like a joiner, it buffers what is
// delivered meanwhile, and every healthy member answers its request with a
// snapshot (onStateReq).
func (r *replica) requestState() {
	r.mu.Lock()
	r.syncing = true
	myExec := r.lastExec
	r.mu.Unlock()
	r.multicast(&msgStateReq{GroupID: r.def.ID, From: r.eng.cfg.Node, LastExec: myExec})
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
	syncing, secondary, myExec := r.syncing, r.secondary, r.lastExec
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
	r.stuck[r.eng.cfg.Node] = max(r.stuck[r.eng.cfg.Node], myExec)
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
	if rescuer == r.eng.cfg.Node {
		r.selfPromote()
	}
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
