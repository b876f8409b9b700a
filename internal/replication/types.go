// Package replication implements the core of the fault-tolerant CORBA
// system: consistent object replication over totally ordered group
// communication.
//
// Each node runs one Engine. Engines host replicas of object groups and act
// as clients of other groups. All invocations, replies, state updates, and
// checkpoints travel as totally ordered multicasts on the totem ring, so
// every replica of a group observes the identical sequence of events — the
// foundation of strong replica consistency.
//
// The replication styles (FT-CORBA's five and LLFT's leader-follower) run
// on one replica core; what each decides is one row of the rules table in
// style.go.
//
// The engine also implements the partitioned-operation model: when the
// group communication layer partitions, every component keeps operating;
// the component containing the previous view's senior member is the
// *primary component*, the others are secondaries whose operations are
// queued as fulfillment operations and re-applied to the merged state after
// the partition heals (with state transfer from the primary component).
package replication

import (
	"fmt"
	"strconv"
	"time"
)

// Style selects the replication style of an object group.
type Style uint8

// Replication styles.
const (
	Stateless Style = iota + 1
	Active
	ActiveWithVoting
	WarmPassive
	ColdPassive
	// LeaderFollower is the LLFT-style low-latency mode: the senior
	// primary-component member (the leader) assigns a per-group sequence to
	// each invocation, executes immediately, and streams the ordered
	// invocations to the followers over the ordered multicast path; the
	// followers re-execute in leader order, off the client's critical path.
	// Paired with time-bounded leader leases, any replica serves read-only
	// operations from local state without entering totem at all.
	LeaderFollower
)

var styleNames = map[Style]string{
	Stateless:        "STATELESS",
	Active:           "ACTIVE",
	ActiveWithVoting: "ACTIVE_WITH_VOTING",
	WarmPassive:      "WARM_PASSIVE",
	ColdPassive:      "COLD_PASSIVE",
	LeaderFollower:   "LEADER_FOLLOWER",
}

// String names the style in FT-CORBA vocabulary.
func (s Style) String() string {
	if n, ok := styleNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Style(%d)", uint8(s))
}

// IsPassive reports whether the style executes only at the primary.
func (s Style) IsPassive() bool { return s == WarmPassive || s == ColdPassive }

// IsActive reports whether every replica executes.
func (s Style) IsActive() bool {
	return s == Active || s == ActiveWithVoting || s == Stateless
}

// IsLeaderFollower reports whether the style orders at the leader and
// streams to followers (neither classic-active nor classic-passive: every
// replica ends up executing, but only the leader answers).
func (s Style) IsLeaderFollower() bool { return s == LeaderFollower }

// GroupDef describes an object group to be hosted.
type GroupDef struct {
	// ID is the FT-CORBA object group id, unique within the FT domain.
	ID uint64
	// Name is a human-readable group name (diagnostics).
	Name string
	// TypeID is the repository id served by the group.
	TypeID string
	// Style is the replication style.
	Style Style
	// CheckpointEvery is the number of operations between periodic
	// checkpoints (cold passive log truncation and warm passive full-state
	// refresh). Zero means 16.
	CheckpointEvery int
	// Shard pins the group to a transport shard, 1-based so the Go zero
	// value keeps today's meaning: 0 selects the deterministic hash route
	// (ShardFor), N>0 pins the group to ring N-1 of the engine's pool.
	// Ignored (treated as shard 0) when the engine runs a single ring.
	Shard int
	// ReadOnlyOps lists operations that do not mutate servant state (the
	// IDL `readonly` marking surfaced through ftcorba.Properties). Under
	// LEADER_FOLLOWER these may be served from any replica's local state on
	// the leased read fast path; replicas refuse the fast path for any
	// operation not listed here, so a mislabeled client cannot mutate state
	// outside the total order.
	ReadOnlyOps []string
}

func (d *GroupDef) fill() {
	if d.CheckpointEvery <= 0 {
		d.CheckpointEvery = 16
	}
}

// GroupRef identifies a target group for client invocations.
type GroupRef struct {
	ID uint64
}

// ShardFor is the deterministic group→shard router: a Fibonacci-hash of the
// group id folded onto [0, shards). Every node computes the same value from
// the same inputs, so all engines in a domain configured with the same ring
// pool agree on each group's transport shard without coordination. Explicit
// placement (GroupDef.Shard / ftcorba.Properties.Shard) overrides it.
func ShardFor(gid uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	// Multiplying by the 64-bit golden-ratio constant spreads consecutive
	// gids (the RM hands them out sequentially) across shards; the high
	// bits carry the mix, so fold them down before the modulus.
	h := gid * 0x9e3779b97f4a7c15
	return int((h >> 33) % uint64(shards))
}

// invGroupName is the totem process group carrying a group's invocations
// and checkpoints.
func invGroupName(gid uint64) string { return "og/" + strconv.FormatUint(gid, 10) }

// groupNames holds an object group's two totem process groups: inv
// (invGroupName) and rep, which carries the group's replies (and, for warm
// passive, the piggybacked state updates). Replicas and proxies compute
// them once instead of formatting them per message.
type groupNames struct {
	inv, rep string
}

func namesOf(gid uint64) groupNames {
	inv := invGroupName(gid)
	return groupNames{inv: inv, rep: inv + "/r"}
}

// opKey identifies a logical operation for duplicate detection: identical
// for duplicate invocations from different replicas of the same client and
// for retransmissions, unique across logical operations.
type opKey struct {
	ClientID  string
	ParentSeq uint64
	OpSeq     uint64
}

func (k opKey) String() string {
	return fmt.Sprintf("%s/%d/%d", k.ClientID, k.ParentSeq, k.OpSeq)
}

// --- Wire messages ---------------------------------------------------------

type wireKind uint8

const (
	wireInvocation wireKind = iota + 1
	wireReply
	wireCheckpoint
	wireStateReq
	wireLfOrder  // leader→followers ordered-invocation stream (multicast)
	wireLfSubmit // client→replica invocation submit (direct lane)
	_            // unused: keeps wireLfLease at 8 on the wire
	wireLfLease  // leader→group read-lease grant (ordered multicast)
)

// Reply statuses on the wire.
const (
	replyOK      uint32 = 0
	replyUserExc uint32 = 1
	replySysExc  uint32 = 2
	// replyRedirect is a direct-lane-only status: the addressed replica
	// cannot serve the submit (not the leader, lease lapsed, behind the
	// client's session) and Body names the node to retry at (empty: fall
	// back to the ordered path).
	replyRedirect uint32 = 3
)

// Checkpoint reasons.
const (
	ckptPeriodic uint8 = 1
	ckptJoin     uint8 = 2
	ckptRemerge  uint8 = 3
	// ckptMarker is a WARM_PASSIVE primary's periodic checkpoint: it carries
	// UpToMsgID and no State or Covered, and every member snapshots its own
	// state where the marker falls in the total order (replica.onMarker).
	ckptMarker uint8 = 4
)

// msgInvocation asks a group to execute an operation.
type msgInvocation struct {
	GroupID     uint64
	Key         opKey
	Operation   string
	Args        []byte // encoded cdr value sequence
	Oneway      bool
	Fulfillment bool // replayed from a secondary component after remerge
	// Done is the client's low-water mark: every root OpSeq of Key's
	// client at or below it has returned at the client, answered,
	// abandoned or oneway. Delivery retires the client's
	// duplicate-suppression records up to it (dedup.go). Zero for nested
	// and fulfillment invocations.
	Done uint64
}

// msgReply carries the outcome of an operation, plus the postimage the
// backups apply when that is the style's update record (recPostimage). On
// the leader-follower direct lane ExecMsgID is instead the leader sequence the reply reflects (the
// client's next session token), and status replyRedirect names in Body a
// node to retry at.
type msgReply struct {
	GroupID    uint64
	Key        opKey
	Status     uint32
	Body       []byte // results / user exception / system exception
	Node       string // executing replica (voting and diagnostics)
	ExecMsgID  uint64 // ordered msg id of the invocation this answers
	Update     []byte // postimage (warm passive), empty otherwise
	UpdateFull bool   // Update is a full state snapshot, not a delta
}

// msgCheckpoint transfers full state — periodic (styleRules.periodic), to
// a joiner or to a remerging secondary component — or is a marker
// (ckptMarker) with neither State nor Covered.
type msgCheckpoint struct {
	GroupID   uint64
	Reason    uint8
	UpToMsgID uint64 // state reflects ordered invocations up to this id
	State     []byte
	// Covered is the sender's duplicate-suppression window (window.go):
	// keys of executed operations whose effects State already includes,
	// and every root client's retired horizon and eviction mark. Adopters
	// seed their dedup tables from it, so a re-delivered operation the
	// snapshot covers cannot re-execute on top of it. A decoded message
	// aliases the delivery buffer like Args; only adoption parses it.
	Covered []byte
	// LfSeq is the leader sequence State reflects (LEADER_FOLLOWER only):
	// an adopter resumes serving session-token-gated reads — and, on
	// promotion, numbering — from here.
	LfSeq uint64
}

// msgLfOrder is the leader's order stream: one invocation the leader has
// sequenced (and already executed), multicast on the invocation group so
// followers re-execute it in leader order. Epoch is the ring epoch at which
// the sender became leader; (Epoch, Seq) also seeds the deterministic
// execution context, so leader (executing at submit time) and followers
// (executing at delivery time) draw identical timestamps and nested-call
// sequence numbers.
type msgLfOrder struct {
	GroupID   uint64
	Epoch     uint64
	Seq       uint64
	Leader    string
	Key       opKey
	Operation string
	Args      []byte
	Oneway    bool
	Done      uint64 // the submitting client's low-water mark (msgInvocation.Done)
}

// msgLfSubmit is a client's direct-lane invocation submit. ReadOnly submits
// may be served from local state by any replica holding a live read lease;
// MinSeq is the client's session token (highest leader sequence it has
// observed), giving read-your-writes and monotonic reads across replicas.
// From is the node the direct reply goes back to.
type msgLfSubmit struct {
	GroupID   uint64
	Key       opKey
	Operation string
	Args      []byte
	ReadOnly  bool
	MinSeq    uint64
	From      string
	Done      uint64 // the client's low-water mark, copied into the order
}

// msgLfLease is the ordered read-lease grant/renewal. Each replica computes
// its own expiry as local-clock-at-delivery + Dur, so the lease never
// depends on clocks being synchronized across nodes — only on bounded
// clock *rate* skew, absorbed by the guard bands (readers retire the lease
// leaseGuard early; a new leader waits Dur + leaseGuard past takeover
// before writing).
type msgLfLease struct {
	GroupID uint64
	Epoch   uint64
	Leader  string
	Dur     time.Duration
}

// msgStateReq asks the group for a snapshot; one member answers (see
// replica.onStateReq). LastExec advertises the requester's applied-state
// horizon, so a rescue prefers a state-bearing secondary over an empty
// fresh incarnation whatever the order of the requests.
type msgStateReq struct {
	GroupID  uint64
	From     string
	LastExec uint64
}
