package replication

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/drstore"
	"repro/internal/fault"
	"repro/internal/orb"
	"repro/internal/totem"
	"repro/internal/wal"
)

// epochAnchor is the shared origin of deterministic logical time; it must
// be identical at every engine so replicas compute the same timestamps.
var epochAnchor = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Errors returned by the engine and proxies.
var (
	ErrEngineStopped = errors.New("replication: engine stopped")
	ErrCallTimeout   = errors.New("replication: invocation timed out")
	ErrAlreadyHosted = errors.New("replication: group already hosted on this node")
)

// Config parameterizes an Engine.
type Config struct {
	// Node is this engine's node name (must match the ring's node).
	Node string
	// Rings is the transport pool, not yet started (Start starts it): R
	// independent totem rings (distinct ports, distinct tokens); one ring
	// is a pool of one. Each object group lives entirely on one shard
	// (ShardFor(gid, R), or its explicit pin), so per-group total order is
	// preserved while independent groups proceed in parallel. The caller
	// retains ownership of the rings (and stops them after the engine).
	Rings []*totem.Ring
	// Notifier receives fault reports derived from membership changes
	// (optional).
	Notifier *fault.Notifier
	// CallTimeout bounds one logical invocation including retries
	// (default 5s).
	CallTimeout time.Duration
	// RetryInterval is how often an unanswered invocation is retransmitted
	// (default 500ms).
	RetryInterval time.Duration
	// LogFactory builds the per-replica write-ahead log. The default is an
	// in-memory log; deployments that need crash-restart recovery supply
	// file-backed logs (wal.OpenFileLog) here.
	LogFactory func(def GroupDef) wal.Log
	// DR, when set, is the disaster-recovery shipping target: every group
	// ships its definition, checkpoints (with the duplicate-suppression
	// window) and update records there (who ships what: style.go), so a
	// standby domain can re-host every group after this whole domain
	// dies. Nil disables shipping.
	DR drstore.Store
}

func (c *Config) fill() {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 5 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.LogFactory == nil {
		c.LogFactory = func(GroupDef) wal.Log { return &wal.MemLog{} }
	}
}

// newIncarnation returns a random number naming one engine incarnation:
// with 64 random bits a node's restarted client never reuses an earlier
// incarnation's operation keys, in this process or another.
func newIncarnation() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand does not fail on supported platforms; the clock is
		// still distinct per restart.
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// now reads the local clock for lease accounting, the one place a
// virtual clock would plug in.
func (e *Engine) now() time.Time { return time.Now() }

// Stats counts engine-level replication events (experiments E5/E7 read
// these).
type Stats struct {
	Executions        uint64 // servant dispatches performed
	DupInvocations    uint64 // duplicate invocations suppressed (receiver side)
	SuppressedReplies uint64 // replies suppressed (sender side): not queued, or withdrawn from the rings' send queues
	DupReplies        uint64 // duplicate replies discarded (receiver side)
	Replays           uint64 // operations re-executed during failover
	Fulfillments      uint64 // fulfillment operations re-invoked after remerge
	Checkpoints       uint64 // checkpoints multicast
	StateTransfers    uint64 // state snapshots applied (join/remerge)
	Retries           uint64 // client-side invocation retransmissions
	LfReads           uint64 // leased local reads served (no totem entry)
	LfRedirects       uint64 // direct-lane submits bounced (wrong node/no lease)
	LfTakeovers       uint64 // leader-follower leadership takeovers
	LfLeases          uint64 // lease grants/renewals multicast
	HealNudges        uint64 // post-heal catch-up state requests sent
	DedupRecords      uint64 // live duplicate-suppression records over hosted replicas (a gauge)
	DedupRetired      uint64 // records dropped because their client's low-water mark passed them
	DedupOverflows    uint64 // invocations refused because the record cap had evicted their record
	DRShipErrors      uint64 // updates and checkpoints the DR store refused (each reported as fault.DRShipFailure)
}

type engineStats struct {
	executions        atomic.Uint64
	dupInvocations    atomic.Uint64
	suppressedReplies atomic.Uint64
	dupReplies        atomic.Uint64
	replays           atomic.Uint64
	fulfillments      atomic.Uint64
	checkpoints       atomic.Uint64
	stateTransfers    atomic.Uint64
	retries           atomic.Uint64
	lfReads           atomic.Uint64
	lfRedirects       atomic.Uint64
	lfTakeovers       atomic.Uint64
	lfLeases          atomic.Uint64
	healNudges        atomic.Uint64
	dedupRetired      atomic.Uint64
	dedupOverflows    atomic.Uint64
	drShipErrors      atomic.Uint64
}

// Engine is one node's replication runtime: it hosts replicas of object
// groups and issues invocations to (possibly remote) groups.
type Engine struct {
	cfg  Config
	stat engineStats

	// clientID names this engine incarnation in its root operation keys;
	// roots numbers those operations and tracks which are still open.
	clientID string
	roots    openOps

	// mu is a RWMutex because delivery routing is read-dominated: every
	// ordered message does a replicaFor lookup (and every proxy call an
	// ensureReplyJoined check), while the maps change only on group
	// creation/removal, and R rings route concurrently
	// (BenchmarkEngineLookupContention). The rings' protocol loops take it
	// (see deliverer), so no critical section may block.
	mu          sync.RWMutex
	hosted      map[uint64]*replica
	byInv       map[string]*replica // hosted, keyed by invocation group name
	pending     map[opKey]*pendingCall
	replyJoined map[uint64]bool
	shardPin    map[uint64]int // explicit gid→shard placements (0-based)
	ringMembers []string
	stopped     bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewEngine creates an engine bound to a pool of rings (Config.Rings) that
// Start will start.
func NewEngine(cfg Config) (*Engine, error) {
	cfg.fill()
	if len(cfg.Rings) == 0 {
		return nil, errors.New("replication: Config.Rings required")
	}
	for _, r := range cfg.Rings {
		if r == nil {
			return nil, errors.New("replication: nil ring in Config.Rings")
		}
	}
	if cfg.Node == "" {
		cfg.Node = cfg.Rings[0].Node()
	}
	e := &Engine{
		cfg:         cfg,
		clientID:    rootClientPrefix + cfg.Node + "." + strconv.FormatUint(newIncarnation(), 36),
		roots:       newOpenOps(),
		hosted:      make(map[uint64]*replica),
		byInv:       make(map[string]*replica),
		pending:     make(map[opKey]*pendingCall),
		replyJoined: make(map[uint64]bool),
		shardPin:    make(map[uint64]int),
		stopCh:      make(chan struct{}),
	}
	return e, nil
}

// Start launches the LEADER_FOLLOWER lease renewal loop, then starts every
// ring with the engine as its consumer: the shard's deliverer for the
// ordered stream and onDirect for the direct (off-order) lane of the LF
// fast path.
func (e *Engine) Start() {
	e.wg.Add(1)
	go e.lfLeaseLoop()
	for i, ring := range e.cfg.Rings {
		ring.Start(totem.Consumer{Deliver: e.deliverer(i), Direct: e.onDirect})
	}
}

// lfLeaseLoop periodically renews read leases for every hosted
// LEADER_FOLLOWER group this node leads. Renewing at about a third of the
// lease duration keeps readers' leases continuously live (two renewals
// may be lost before reads start redirecting to the leader).
func (e *Engine) lfLeaseLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(leaseDuration / 3)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ticker.C:
		}
		for _, r := range e.replicas() {
			if r.rules.executes == execLeader {
				r.lfMaybeGrant()
			}
		}
	}
}

// Shards returns the number of transport shards the engine fans in from.
func (e *Engine) Shards() int { return len(e.cfg.Rings) }

// PinShard records an explicit gid→shard placement so every subsequent
// join, multicast, and reply subscription for the group uses that ring.
// Out-of-range shards clamp into the pool (a domain restarted with fewer
// shards must still reach groups pinned under the old layout).
func (e *Engine) PinShard(gid uint64, shard int) {
	e.mu.Lock()
	e.shardPin[gid] = min(max(shard, 0), len(e.cfg.Rings)-1)
	e.mu.Unlock()
}

// shardOf resolves a group's transport shard: explicit pin first, then the
// deterministic hash route.
func (e *Engine) shardOf(gid uint64) int {
	if len(e.cfg.Rings) == 1 {
		return 0
	}
	e.mu.RLock()
	pin, ok := e.shardPin[gid]
	e.mu.RUnlock()
	if ok {
		return pin
	}
	return ShardFor(gid, len(e.cfg.Rings))
}

// ringFor returns the totem ring carrying the group's traffic.
func (e *Engine) ringFor(gid uint64) *totem.Ring {
	return e.cfg.Rings[e.shardOf(gid)]
}

// Stop shuts the engine down. The rings are left running for their owner
// to stop; what they deliver from then on is dropped.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	reps := e.replicasLocked()
	pend := e.pending
	e.pending = make(map[opKey]*pendingCall)
	e.mu.Unlock()
	close(e.stopCh)
	for _, r := range reps {
		r.q.Close()
	}
	for _, p := range pend {
		close(p.ch)
	}
	e.wg.Wait()
}

// Node returns the engine's node name.
func (e *Engine) Node() string { return e.cfg.Node }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	var records int
	for _, r := range e.replicas() {
		r.mu.Lock()
		records += len(r.dedup.recs)
		r.mu.Unlock()
	}
	return Stats{
		Executions:        e.stat.executions.Load(),
		DupInvocations:    e.stat.dupInvocations.Load(),
		SuppressedReplies: e.stat.suppressedReplies.Load() + totem.AggregateStats(e.cfg.Rings).Withdrawn,
		DupReplies:        e.stat.dupReplies.Load(),
		Replays:           e.stat.replays.Load(),
		Fulfillments:      e.stat.fulfillments.Load(),
		Checkpoints:       e.stat.checkpoints.Load(),
		StateTransfers:    e.stat.stateTransfers.Load(),
		Retries:           e.stat.retries.Load(),
		LfReads:           e.stat.lfReads.Load(),
		LfRedirects:       e.stat.lfRedirects.Load(),
		LfTakeovers:       e.stat.lfTakeovers.Load(),
		LfLeases:          e.stat.lfLeases.Load(),
		HealNudges:        e.stat.healNudges.Load(),
		DedupRecords:      uint64(records),
		DedupRetired:      e.stat.dedupRetired.Load(),
		DedupOverflows:    e.stat.dedupOverflows.Load(),
		DRShipErrors:      e.stat.drShipErrors.Load(),
	}
}

// HostReplica places a replica of the group on this node. initial must be
// true only when the group is being created (all initial replicas start
// with identical zero state before any traffic); later additions pass
// false and are brought up to date by state transfer from an existing
// member.
func (e *Engine) HostReplica(def GroupDef, servant orb.Servant, initial bool) error {
	def.fill()
	return e.host(newReplica(e, def, servant, !initial, e.cfg.LogFactory(def)))
}

// HostReplicaFromLog hosts a replica whose state is first recovered from a
// write-ahead log — the crash-restart rejoin path. ReplayLog rebuilds the
// servant and the replayed operations seed the duplicate table; the member
// then rejoins syncing, and adoptState keeps the recovered state when the
// snapshot it is offered is older. If *all* members restart from logs, the
// state-request rescue elects the most recovered state.
func (e *Engine) HostReplicaFromLog(def GroupDef, servant orb.Servant, log wal.Log) error {
	def.fill()
	lastMsgID, replayed, err := ReplayLog(def, log, servant)
	if err != nil {
		return err
	}
	r := newReplica(e, def, servant, true, log)
	r.lastExec = lastMsgID
	// The replayed log's newest update is also the logged horizon: a stale
	// duplicate checkpoint offered during rejoin must not compact past it.
	r.lastLogged = lastMsgID
	if r.rules.executes == execLeader {
		// LF record ids carry the leader sequence in the low bits; resume
		// the session-token horizon (and promotion numbering) from it.
		r.lfApplied = lastMsgID & lfSeqMask
	}
	for _, k := range replayed {
		rec := r.dedup.record(k)
		rec.deliveredInv, rec.answered, rec.executedLocal = true, true, true
	}
	return e.host(r)
}

// HostRecoveredReplica hosts a group restored from a shipped
// disaster-recovery snapshot — the standby-promotion path. The servant
// already carries the recovered state (core.Standby staged it from the
// store) and state is its snapshot, which the replica's log keeps; window
// is the last shipped checkpoint's duplicate-suppression window and
// replayed the logged invocations the standby applied after it. The
// replica starts operational with lastExec 0 (the source domain's message
// ids do not compare against this domain's), so exactly-once for shipped
// operations rests on the duplicate table, seeded as checkpoint adoption
// seeds it: a retransmission of a covered operation is suppressed, one the
// source's record cap had evicted is refused, and neither re-executes (the
// original replies stayed with the dead domain, so such retries time out).
func (e *Engine) HostRecoveredReplica(def GroupDef, servant orb.Servant, state, window []byte, replayed []wal.Record) error {
	def.fill()
	win, err := decodeWindow(window)
	if err != nil {
		return fmt.Errorf("replication: group %d: shipped window: %w", def.ID, err)
	}
	for _, rec := range replayed {
		if inv, ok := loggedInvocation(rec); ok {
			win.keys = append(win.keys, inv.Key)
		}
	}
	r := newReplica(e, def, servant, false, e.cfg.LogFactory(def))
	r.countRetired(r.dedup.adopt(win))
	if len(state) > 0 {
		// Anchor the new local log so a crash of the promoted replica
		// recovers to the shipped state, not to zero.
		_ = r.log.Append(wal.Record{Kind: wal.KindCheckpoint, MsgID: 0, Data: state})
	}
	return e.host(r)
}

// LogLen reports the number of live records in a hosted replica's
// write-ahead log (ok=false when the group is not hosted here) — the
// observable the compaction-bound tests assert on.
func (e *Engine) LogLen(gid uint64) (int, bool) {
	r := e.replicaFor(gid)
	if r == nil {
		return 0, false
	}
	return r.log.Len(), true
}

// host registers r, joins its group's two process groups and starts its
// executor.
func (e *Engine) host(r *replica) error {
	def := r.def
	e.mu.Lock()
	_, dup := e.hosted[def.ID]
	switch {
	case e.stopped:
		e.mu.Unlock()
		return ErrEngineStopped
	case dup:
		e.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrAlreadyHosted, def.ID)
	}
	e.hosted[def.ID] = r
	e.byInv[r.names.inv] = r
	e.mu.Unlock()
	if def.Shard > 0 {
		e.PinShard(def.ID, def.Shard-1)
	}
	// Ship the group definition at hosting time (every member, idempotent):
	// a group that never sees traffic must still be re-hostable from the
	// store after a domain-wide outage.
	if e.cfg.DR != nil {
		_ = e.cfg.DR.PutMeta(drstore.Meta{
			GroupID:         def.ID,
			Name:            def.Name,
			TypeID:          def.TypeID,
			Style:           uint8(def.Style),
			CheckpointEvery: def.CheckpointEvery,
			Shard:           def.Shard,
		})
	}
	ring := e.ringFor(def.ID)
	if err := ring.JoinGroup(r.names.inv); err != nil {
		return fmt.Errorf("replication: join group: %w", err)
	}
	if err := ring.JoinGroup(r.names.rep); err != nil {
		return fmt.Errorf("replication: join reply group: %w", err)
	}
	e.mu.Lock()
	e.replyJoined[def.ID] = true
	e.mu.Unlock()

	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		r.executorLoop()
	}()
	return nil
}

// RemoveReplica withdraws this node's replica of the group.
func (e *Engine) RemoveReplica(gid uint64) {
	e.mu.Lock()
	r, ok := e.hosted[gid]
	if ok {
		delete(e.hosted, gid)
		delete(e.byInv, r.names.inv)
	}
	e.mu.Unlock()
	if !ok {
		return
	}
	r.q.Close()
	_ = e.ringFor(gid).LeaveGroup(r.names.inv)
	// Stay in the reply group: this node may still act as a client.
}

// GroupStatus reports a hosted replica's view (tests and tools).
type GroupStatus struct {
	Members   []string
	Primary   string
	Secondary bool // in a secondary partition component
	Syncing   bool // awaiting state transfer
	LastExec  uint64
}

// GroupStatus returns the replica's status, or false if not hosted here.
func (e *Engine) GroupStatus(gid uint64) (GroupStatus, bool) {
	r := e.replicaFor(gid)
	if r == nil {
		return GroupStatus{}, false
	}
	return r.status(), true
}

// replicas returns the hosted replicas.
func (e *Engine) replicas() []*replica {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.replicasLocked()
}

func (e *Engine) replicasLocked() []*replica {
	reps := make([]*replica, 0, len(e.hosted))
	for _, r := range e.hosted {
		reps = append(reps, r)
	}
	return reps
}

func (e *Engine) replicaFor(gid uint64) *replica {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.hosted[gid]
}

// encodeOrReport marshals a wire message, reporting (rather than panicking
// on) the impossible-by-construction unknown-type error. Callers drop the
// message on nil.
func (e *Engine) encodeOrReport(m any) []byte {
	b, err := encodeWire(m)
	if err != nil {
		if e.cfg.Notifier != nil {
			e.cfg.Notifier.Push(fault.Report{
				Kind:   fault.InvariantViolation,
				Node:   e.cfg.Node,
				Detail: err.Error(),
			})
		}
		return nil
	}
	return b
}
