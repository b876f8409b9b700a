package replication

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/orb"
	"repro/internal/wal"
)

// Write-ahead-log record ops. A KindUpdate record is a style's update
// record (styleRules.record): a logged invocation or LF order (Op is
// opRecInvoke plus the operation, Data its wire encoding) or a postimage
// (Data is a servant delta, or a full snapshot under opRecUpdateFull).
const (
	opRecInvoke     = "inv:" // prefix; remainder is the operation name
	opRecUpdate     = "update"
	opRecUpdateFull = "update-full"
)

func updateOp(full bool) string {
	if full {
		return opRecUpdateFull
	}
	return opRecUpdate
}

// ReplayLog rebuilds a servant's state from a write-ahead log: it installs
// the latest checkpoint, if any, and applies every later update record
// (ApplyRecord). It returns the msg id of the last applied record and the
// keys of the re-executed invocations, which a rejoining replica seeds its
// duplicate-suppression table with so that it does not execute them twice.
func ReplayLog(def GroupDef, log wal.Log, servant orb.Servant) (lastMsgID uint64, replayed []opKey, err error) {
	def.fill()
	cp, updates, haveCp, err := log.Recover()
	if err != nil {
		return 0, nil, fmt.Errorf("replication: wal recover: %w", err)
	}
	if haveCp {
		ck, ok := servant.(orb.Checkpointable)
		if !ok {
			return 0, nil, fmt.Errorf("replication: log has checkpoint but servant is not Checkpointable")
		}
		if err := ck.SetState(cp.Data); err != nil {
			return 0, nil, fmt.Errorf("replication: install checkpoint: %w", err)
		}
		lastMsgID = cp.MsgID
	}
	for _, rec := range updates {
		if rec.MsgID <= lastMsgID {
			continue // already covered by the checkpoint
		}
		inv, applied := applyRecord(def, servant, rec)
		if !applied {
			continue
		}
		if inv != nil {
			replayed = append(replayed, inv.Key)
		}
		lastMsgID = rec.MsgID
	}
	return lastMsgID, replayed, nil
}

// ApplyRecord applies one update record to a servant — the per-record core
// of log replay, shared by ReplayLog (local crash-restart) and core.Standby
// (shipped drstore segments). A logged invocation re-executes with the
// deterministic context of its original execution, keyed on the record's
// MsgID (for LF records, lfMsgID(epoch, seq)); nested invocations are not
// re-issued (Caller is nil: the operations already ran cluster-wide, and
// replay restores local state only). A postimage re-applies through the
// servant's Updatable or Checkpointable interface. It reports whether the
// record was a logged invocation (whose key a promoted replica must treat
// as executed, see HostRecoveredReplica) and whether it took effect: an
// unapplied record must not advance the caller's replay horizon.
func ApplyRecord(def GroupDef, servant orb.Servant, rec wal.Record) (isInv bool, applied bool) {
	inv, applied := applyRecord(def, servant, rec)
	return inv != nil, applied
}

// applyRecord is ApplyRecord returning the re-executed invocation. A
// dispatch error (a user exception) is an outcome, not a replay failure:
// the original execution produced it too. A record of an unknown kind is
// skipped, so it cannot corrupt the state.
func applyRecord(def GroupDef, servant orb.Servant, rec wal.Record) (*msgInvocation, bool) {
	switch rec.Op {
	case opRecUpdateFull:
		ck, ok := servant.(orb.Checkpointable)
		return nil, ok && ck.SetState(rec.Data) == nil
	case opRecUpdate:
		upd, ok := servant.(orb.Updatable)
		return nil, ok && upd.ApplyUpdate(rec.Data) == nil
	}
	inv, ok := loggedInvocation(rec)
	if !ok || !execute(new(execution), servant, def.ID, rec.MsgID, inv.Operation, inv.Args, nil).dispatched {
		return nil, false
	}
	return inv, true
}

// loggedInvocation decodes a logged invocation record: an ordered
// msgInvocation (cold passive, DR-shipped active) or a leader-follower
// order record, which it returns as the invocation it orders.
func loggedInvocation(rec wal.Record) (*msgInvocation, bool) {
	if !strings.HasPrefix(rec.Op, opRecInvoke) {
		return nil, false
	}
	m, err := decodeWire(rec.Data)
	if err != nil {
		return nil, false
	}
	switch inv := m.(type) {
	case *msgInvocation:
		return inv, true
	case *msgLfOrder:
		return &msgInvocation{GroupID: inv.GroupID, Key: inv.Key, Operation: inv.Operation, Args: inv.Args, Oneway: inv.Oneway, Done: inv.Done}, true
	}
	return nil, false
}

// shipsDR reports whether this member is among w's shippers to the
// disaster-recovery store. Shipping follows the primary component — a
// secondary component's partition-era operations reach the store via
// fulfillment replay after remerge, not directly — and whoPrimary picks
// exactly one shipper per group, the senior member (the store's MsgID
// idempotence absorbs the overlap when seniority moves during failover,
// and the copies every member ships under whoEvery).
func (r *replica) shipsDR(w who) bool {
	if r.eng.cfg.DR == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.secondary && w.includes(len(r.members) > 0 && r.members[0] == r.eng.cfg.Node)
}

// shipUpdate ships one update record to the DR store; the caller checked
// that this member is among the style's shippers.
func (r *replica) shipUpdate(rec wal.Record) {
	r.reportShipError(r.eng.cfg.DR.AppendUpdate(r.def.ID, rec), "update", rec.MsgID)
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
