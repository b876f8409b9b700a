package replication

// Style rules: every decision a replication style makes, as one row of
// data. A replica looks its row up once (newReplica; an unknown style gets
// the zero row) and the replica core reads the row; no other file in the
// package branches on a style. The styles share everything else: dedup,
// reply logging, checkpointing, state transfer, WAL compaction and DR
// shipping. DESIGN.md ("Style rules") gives the table.

// executor says which members execute an ordered invocation.
type executor uint8

const (
	execPrimary executor = iota // the primary; backups hold it for failover
	execEvery                   // every member
	execLeader                  // the LF leader; followers run its order stream (lf.go)
)

// replyRule says how an executing member sends its reply.
type replyRule uint8

const (
	// replyOnce: unless another member's reply was delivered first.
	replyOnce replyRule = iota
	// replyWithdraw: as replyOnce, and the ring withdraws the queued reply
	// if another member's is delivered before the token takes it
	// (MulticastOnce: sender-side suppression, the paper's Figure 2).
	replyWithdraw
	// replyAlways: a voting client counts every replica's own reply.
	replyAlways
)

// recordRule says what an operation's update record is: what the local
// WAL holds (when oneExecutes) and what ships to the DR store.
type recordRule uint8

const (
	recNone       recordRule = iota // no state: nothing is logged, shipped or transferred
	recInvocation                   // the ordered invocation, before it executes
	recPostimage                    // the primary's state update, piggybacked on its reply
	recOrder                        // the leader's order message
)

// periodicRule says how a checkpoint is taken every CheckpointEvery
// operations.
type periodicRule uint8

const (
	periodicNone   periodicRule = iota
	periodicStore               // the DR shipper snapshots to the store only
	periodicState               // the primary multicasts its state and dedup window
	periodicMarker              // the primary multicasts a marker; each member snapshots itself
)

// who names some of a group's members: the senior one (the primary or
// leader), every member, every member but the senior, or none.
type who uint8

const (
	whoNone who = iota
	whoPrimary
	whoEvery
	whoBackups
)

// includes reports whether a member, the senior one when primary is set,
// belongs to w.
func (w who) includes(primary bool) bool {
	return w == whoEvery || w == whoPrimary && primary || w == whoBackups && !primary
}

// styleRules is one style's row. Only the independent decisions are
// columns; the methods below derive the rest from them.
type styleRules struct {
	executes executor
	reply    replyRule
	record   recordRule
	periodic periodicRule
	// repairGap names the members that adopt a checkpoint past their own
	// lastExec (they missed a ring lineage).
	repairGap who
}

// oneExecutes reports whether a single member (primary or leader) executes
// for the group: the others then keep the update records in their WAL, for
// restart, and learn its progress from its delivered replies.
func (s styleRules) oneExecutes() bool { return s.executes != execEvery }

// shippers names the primary-component members that ship the update
// records to the DR store before the client can be acked: every member
// when any member's reply may be the ack, else the senior one, whose
// reply is. Checkpoints ship from the senior member under every style.
func (s styleRules) shippers() who {
	switch {
	case s.record == recNone:
		return whoNone
	case s.executes == execEvery:
		return whoEvery
	}
	return whoPrimary
}

// backupLags: a backup's servant holds its last adopted checkpoint, its log
// the invocations after it (COLD_PASSIVE).
func (s styleRules) backupLags() bool { return s.executes == execPrimary && s.record == recInvocation }

var styleTable = map[Style]styleRules{
	Stateless:        {executes: execEvery, reply: replyWithdraw, repairGap: whoEvery},
	Active:           {executes: execEvery, reply: replyWithdraw, record: recInvocation, periodic: periodicStore, repairGap: whoEvery},
	ActiveWithVoting: {executes: execEvery, reply: replyAlways, record: recInvocation, periodic: periodicStore, repairGap: whoEvery},
	WarmPassive:      {executes: execPrimary, reply: replyOnce, record: recPostimage, periodic: periodicMarker, repairGap: whoEvery},
	ColdPassive:      {executes: execPrimary, reply: replyOnce, record: recInvocation, periodic: periodicState, repairGap: whoNone},
	LeaderFollower:   {executes: execLeader, reply: replyOnce, record: recOrder, periodic: periodicState, repairGap: whoBackups},
}
