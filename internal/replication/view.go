package replication

// Membership: view changes, partitions and their remerge (fulfillment
// replay), and the failover of a passive group's primary.

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/orb"
)

func (r *replica) onView(t taskView) {
	r.mu.Lock()
	old := r.members
	r.members = append([]string(nil), t.members...)
	syncing, secondary := r.syncing, r.secondary
	r.mu.Unlock()
	r.resetAskers(0) // membership changed: re-learn who needs state

	if syncing {
		// Ask on every view, the first included: this one may have removed
		// the member that was to answer.
		r.ask()
	}
	if len(old) == 0 {
		return
	}

	removed := subtract(old, t.members)
	added := subtract(t.members, old)

	if len(removed) > 0 {
		for _, n := range removed {
			if r.eng.cfg.Notifier != nil {
				r.eng.cfg.Notifier.Push(fault.Report{Kind: fault.ObjectCrash, Node: n, GroupID: r.def.ID, Member: n})
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
		// Failover: the new senior member takes over (LF: lfOnView).
		if r.rules.executes == execPrimary && !syncing && len(t.members) > 0 &&
			t.members[0] == r.eng.cfg.Node && old[0] != r.eng.cfg.Node {
			r.failover()
		}
	}

	// Leader-follower epoch/fence/lease maintenance and takeover run on
	// every membership change (a join by a lexically-senior node moves
	// leadership too, not just removals).
	if r.rules.executes == execLeader {
		r.lfOnView(old, t)
	}

	switch {
	case len(added) == 0:
	case secondary:
		// A member of the view we split from is back (a true remerge, when
		// it is in preSplit) or a fresh incarnation joined: either way this
		// member's WAL and servant lag the merged lineage, so it asks for
		// state, and adoptState sends the fulfillments. The request also
		// flushes ordered-delivery catch-up, and the stateReq rescue keeps
		// the group live when the added member has nothing to offer.
		if len(intersect(added, r.preSplit)) > 0 {
			r.preSplit = old
		}
		r.eng.stat.healNudges.Add(1)
		if !syncing { // else it asked above
			r.requestState()
		}
	default:
		r.answerAdded(added)
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
		r.multicast(&msgInvocation{
			GroupID:     r.def.ID,
			Key:         opKey{ClientID: "f:" + r.eng.cfg.Node, ParentSeq: 0, OpSeq: r.fulfillSeq},
			Operation:   op,
			Args:        args,
			Oneway:      true,
			Fulfillment: true,
		})
	}
}

// failover makes this replica the acting primary. A cold backup first
// rebuilds its state from the log; then the operations no reply covered
// re-execute in delivery order.
func (r *replica) failover() {
	if r.rules.backupLags() {
		r.replayLog()
		r.sendCheckpoint(ckptPeriodic) // the new backups' logs restart small
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

// replayLog brings a cold backup's servant up to its log: the logged
// checkpoint when it is newer than the servant's state, then the logged
// invocations past that, re-executed in order (a second replay is a no-op).
func (r *replica) replayLog() {
	cp, updates, haveCp, err := r.log.Recover()
	if err != nil {
		return
	}
	r.mu.Lock()
	from := r.lastExec
	r.mu.Unlock()
	// The checkpoint installs best-effort: one the servant refuses still
	// leaves every logged invocation to replay and answer.
	if ck, ok := r.servant.(orb.Checkpointable); ok && haveCp && cp.MsgID > from {
		_ = ck.SetState(cp.Data)
		from = cp.MsgID
		r.mu.Lock()
		r.lastExec = from
		r.mu.Unlock()
	}
	for _, rec := range updates {
		if inv, ok := loggedInvocation(rec); ok && rec.MsgID > from {
			r.eng.stat.replays.Add(1)
			r.replayOne(rec.MsgID, inv)
		}
	}
	r.pendingOps = nil
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

// subtract returns the members of a that are not in b.
func subtract(a, b []string) []string {
	return slices.DeleteFunc(slices.Clone(a), func(x string) bool { return slices.Contains(b, x) })
}

// intersect returns the members of a that are in b, sorted.
func intersect(a, b []string) []string {
	out := slices.DeleteFunc(slices.Clone(a), func(x string) bool { return !slices.Contains(b, x) })
	slices.Sort(out)
	return out
}

// isPrimaryComponent decides whether the surviving view is the primary
// component after a membership loss: strict majority of the old view wins;
// an exact half wins only if it retains the old view's senior member.
func isPrimaryComponent(old, survivors []string) bool {
	kept := len(intersect(old, survivors))
	return 2*kept > len(old) || 2*kept == len(old) && slices.Contains(survivors, seniorOf(old))
}

func seniorOf(set []string) string {
	if len(set) == 0 {
		return ""
	}
	return slices.Min(set)
}
