package replication

import (
	"fmt"
	"strings"

	"repro/internal/orb"
	"repro/internal/wal"
)

// Write-ahead-log record op conventions. A KindUpdate record carries either
// a logged invocation (cold passive — Data is the encoded msgInvocation) or
// a state update (warm passive — Data is a servant delta or full snapshot).
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
// the latest checkpoint (if any) and then applies every subsequent update
// record — re-executing logged invocations with the same deterministic
// context the original execution used, or re-applying warm-passive state
// updates. It returns the msg id of the last applied record and the
// operation keys of the re-executed invocations (so a rejoining replica can
// seed its duplicate-suppression table and not double-execute them).
//
// Nested invocations are not re-issued during replay (Caller is nil): the
// operations already ran cluster-wide; replay restores local state only.
func ReplayLog(def GroupDef, log wal.Log, servant orb.Servant) (lastMsgID uint64, replayed []opKey, err error) {
	def.fill()
	cp, updates, haveCp, err := log.Recover()
	if err != nil {
		return 0, nil, fmt.Errorf("replication: wal recover: %w", err)
	}
	ck, checkpointable := servant.(orb.Checkpointable)
	if haveCp {
		if !checkpointable {
			return 0, nil, fmt.Errorf("replication: log has checkpoint but servant is not Checkpointable")
		}
		if serr := ck.SetState(cp.Data); serr != nil {
			return 0, nil, fmt.Errorf("replication: install checkpoint: %w", serr)
		}
		lastMsgID = cp.MsgID
	}
	for _, rec := range updates {
		if rec.MsgID <= lastMsgID {
			continue // already covered by the checkpoint
		}
		key, isInv, applied := applyRecord(def, servant, rec)
		if !applied {
			continue
		}
		if isInv {
			replayed = append(replayed, key)
		}
		lastMsgID = rec.MsgID
	}
	return lastMsgID, replayed, nil
}

// ApplyRecord applies one update record to a servant — the per-record core
// of log replay, shared by ReplayLog (local crash-restart) and the
// cross-domain standby (core.Standby staging shipped drstore segments). A
// logged invocation re-executes with the same deterministic context the
// original execution used (nested invocations are not re-issued: Caller is
// nil, replay restores local state only); warm-passive deltas and full
// snapshots re-apply through the servant's Updatable/Checkpointable
// interfaces. It reports whether the record was a logged invocation (whose
// key a promoted replica must treat as executed, see HostRecoveredReplica)
// and whether it took effect — an unapplied record must not advance the
// caller's replay horizon.
func ApplyRecord(def GroupDef, servant orb.Servant, rec wal.Record) (isInv bool, applied bool) {
	_, isInv, applied = applyRecord(def, servant, rec)
	return isInv, applied
}

// applyRecord is ApplyRecord also returning a logged invocation's key.
func applyRecord(def GroupDef, servant orb.Servant, rec wal.Record) (key opKey, isInv bool, applied bool) {
	switch {
	case strings.HasPrefix(rec.Op, opRecInvoke):
		op, argBytes, k, ok := loggedInvocation(rec)
		if !ok {
			return key, false, false
		}
		// The deterministic context is keyed on the record's message id (for
		// LF records that id is lfMsgID(epoch, seq) — exactly what the
		// original execution used). Dispatch errors (user exceptions) are
		// outcomes, not replay failures: the original execution produced
		// them too.
		if x := execute(servant, def.ID, rec.MsgID, op, argBytes, nil); !x.dispatched {
			return key, false, false
		}
		return k, true, true
	case rec.Op == opRecUpdateFull:
		ck, ok := servant.(orb.Checkpointable)
		if !ok {
			return key, false, false
		}
		return key, false, ck.SetState(rec.Data) == nil
	case rec.Op == opRecUpdate:
		upd, ok := servant.(orb.Updatable)
		if !ok {
			return key, false, false
		}
		return key, false, upd.ApplyUpdate(rec.Data) == nil
	default:
		return key, false, false // unknown record kind: skip, do not corrupt state
	}
}

// loggedInvocation decodes a logged invocation record: an ordered
// msgInvocation (cold passive, DR-shipped active) or a leader-follower
// order record.
func loggedInvocation(rec wal.Record) (op string, args []byte, key opKey, ok bool) {
	if !strings.HasPrefix(rec.Op, opRecInvoke) {
		return "", nil, key, false
	}
	m, err := decodeWire(rec.Data)
	if err != nil {
		return "", nil, key, false
	}
	switch inv := m.(type) {
	case *msgInvocation:
		return inv.Operation, inv.Args, inv.Key, true
	case *msgLfOrder:
		return inv.Operation, inv.Args, inv.Key, true
	}
	return "", nil, key, false
}
