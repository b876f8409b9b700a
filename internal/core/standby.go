package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/drstore"
	"repro/internal/ftcorba"
	"repro/internal/orb"
	"repro/internal/replication"
	"repro/internal/wal"
)

// StandbyOptions configures a cross-domain warm standby.
type StandbyOptions struct {
	// Domain configures the standby's own FT domain (its own fabric, rings,
	// and engines — fully independent of the primary domain's).
	Domain Options
	// Store is the disaster-recovery store the primary domain ships into
	// (the same Store value, or a DirStore over the same directory).
	Store drstore.Store
	// Factories maps repository type ids to servant factories. A shipped
	// group whose TypeID has no factory here cannot be staged and is
	// skipped (reported by Promote).
	Factories map[string]ftcorba.Factory
}

// standbySyncInterval paces the background staging loop.
const standbySyncInterval = 25 * time.Millisecond

// Standby is the warm-standby half of the disaster-recovery tier: a second
// core.Domain that continuously consumes the checkpoints and log segments
// the primary domain ships into a drstore.Store, keeping one staged servant
// per group hot. After the primary domain is declared dead, Promote()
// re-hosts every staged group on the standby's engines with the shipped
// duplicate-suppression windows seeded, preserving exactly-once semantics
// for every operation a shipped checkpoint or segment covers.
//
// The staged servants live outside any engine until promotion: staging is
// pure replay (replication.ApplyRecord per shipped record), so the standby
// adds no traffic to the primary domain and no ordering constraints of its
// own. Promotion starts a fresh ring lineage — shipped message ids are not
// comparable to the standby's — so exactly-once rests entirely on the
// operation keys, exactly like the crash-restart rejoin path.
type Standby struct {
	opts   StandbyOptions
	domain *Domain

	mu       sync.Mutex
	staged   map[uint64]*stagedGroup
	skipped  map[uint64]string // gid → reason (no factory, store error)
	promoted bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// stagedGroup is one group's warm state between shipments.
type stagedGroup struct {
	def     replication.GroupDef
	servant orb.Servant
	lastCp  uint64 // UpToMsgID of the installed checkpoint (0 = none)
	applied uint64 // highest shipped update MsgID applied to the servant
	// window (the installed checkpoint's duplicate-suppression window, as
	// shipped) and replayed (the invocation records applied after it)
	// together cover every operation the staged state includes. Installing
	// a newer checkpoint resets both, which keeps replayed bounded by the
	// shipping compaction policy.
	window   []byte
	replayed []wal.Record
}

// NewStandby builds the standby domain and starts the background staging
// loop.
func NewStandby(opts StandbyOptions) (*Standby, error) {
	if opts.Store == nil {
		return nil, errors.New("core: standby requires a Store")
	}
	d, err := NewDomain(opts.Domain)
	if err != nil {
		return nil, fmt.Errorf("core: standby domain: %w", err)
	}
	s := &Standby{
		opts:    opts,
		domain:  d,
		staged:  make(map[uint64]*stagedGroup),
		skipped: make(map[uint64]string),
		stopCh:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.syncLoop()
	return s, nil
}

// Domain exposes the standby's underlying domain (tests and proxies).
func (s *Standby) Domain() *Domain { return s.domain }

func (s *Standby) syncLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(standbySyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
			_ = s.SyncOnce()
		}
	}
}

// SyncOnce performs one staging pass: every shipped group's new checkpoint
// and segment records are applied to its staged servant. It is idempotent
// and safe to call concurrently with the background loop.
func (s *Standby) SyncOnce() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil
	}
	gids, err := s.opts.Store.Groups()
	if err != nil {
		return err
	}
	var first error
	for _, gid := range gids {
		if err := s.syncGroupLocked(gid); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Standby) syncGroupLocked(gid uint64) error {
	snap, ok, err := s.opts.Store.Snapshot(gid)
	if err != nil || !ok {
		return err
	}
	g, exists := s.staged[gid]
	if !exists {
		if _, alreadySkipped := s.skipped[gid]; alreadySkipped {
			return nil
		}
		factory, have := s.opts.Factories[snap.Meta.TypeID]
		if !have {
			s.skipped[gid] = fmt.Sprintf("no factory for %q", snap.Meta.TypeID)
			return nil
		}
		g = &stagedGroup{
			def: replication.GroupDef{
				ID:              snap.Meta.GroupID,
				Name:            snap.Meta.Name,
				TypeID:          snap.Meta.TypeID,
				Style:           replication.Style(snap.Meta.Style),
				CheckpointEvery: snap.Meta.CheckpointEvery,
				Shard:           snap.Meta.Shard,
			},
			servant: factory(),
		}
		s.staged[gid] = g
	}

	// A newer checkpoint supersedes everything staged so far: install its
	// state and restart the covered window from its shipped dedup window.
	if cp := snap.Checkpoint; cp != nil && cp.UpToMsgID > g.lastCp && cp.UpToMsgID >= g.applied {
		ck, checkpointable := g.servant.(orb.Checkpointable)
		if !checkpointable {
			return fmt.Errorf("core: standby group %d: checkpoint shipped but servant is not Checkpointable", gid)
		}
		if err := ck.SetState(cp.State); err != nil {
			return fmt.Errorf("core: standby group %d: install checkpoint: %w", gid, err)
		}
		g.lastCp = cp.UpToMsgID
		g.applied = cp.UpToMsgID
		g.window = cp.Covered
		g.replayed = g.replayed[:0]
	}

	for _, rec := range snap.Updates {
		if rec.MsgID <= g.applied {
			continue
		}
		isInv, applied := replication.ApplyRecord(g.def, g.servant, rec)
		if !applied {
			continue
		}
		if isInv {
			g.replayed = append(g.replayed, rec)
		}
		g.applied = rec.MsgID
	}
	return nil
}

// PromoteResult reports what a promotion recovered.
type PromoteResult struct {
	// Groups maps every promoted group id to the standby node now hosting
	// it.
	Groups map[uint64]string
	// Skipped maps group ids that could not be promoted to the reason.
	Skipped map[uint64]string
}

// Promote declares the primary domain dead and takes over: the staging
// loop stops, one final staging pass drains the store, and every staged
// group is re-hosted on the standby's engines (groups round-robin across
// the standby's nodes, each with its shipped dedup window seeded via
// Engine.HostRecoveredReplica). After Promote returns, Proxy serves the
// recovered groups.
func (s *Standby) Promote() (PromoteResult, error) {
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return PromoteResult{}, errors.New("core: standby already promoted")
	}
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
	if err := s.SyncOnce(); err != nil {
		return PromoteResult{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.promoted = true
	res := PromoteResult{
		Groups:  make(map[uint64]string, len(s.staged)),
		Skipped: make(map[uint64]string, len(s.skipped)),
	}
	for gid, reason := range s.skipped {
		res.Skipped[gid] = reason
	}
	nodes := s.domain.Nodes()
	if len(nodes) == 0 {
		return res, errors.New("core: standby domain has no nodes")
	}
	// Deterministic placement order so repeated recoveries land alike.
	gids := make([]uint64, 0, len(s.staged))
	for gid := range s.staged {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for i, gid := range gids {
		g := s.staged[gid]
		target := s.domain.Node(nodes[i%len(nodes)])
		if target == nil {
			res.Skipped[gid] = "standby node down"
			continue
		}
		var state []byte
		if ck, ok := g.servant.(orb.Checkpointable); ok {
			state, _ = ck.GetState()
		}
		if err := target.Engine.HostRecoveredReplica(g.def, g.servant, state, g.window, g.replayed); err != nil {
			res.Skipped[gid] = err.Error()
			continue
		}
		res.Groups[gid] = target.Name
	}
	return res, nil
}

// WaitPromoted blocks until every promoted group's replica reports an
// operational singleton view (ready to serve), or the timeout elapses.
func (s *Standby) WaitPromoted(res PromoteResult, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for gid, nodeName := range res.Groups {
		n := s.domain.Node(nodeName)
		if n == nil {
			return fmt.Errorf("core: standby node %s vanished", nodeName)
		}
		for {
			st, hosted := n.Engine.GroupStatus(gid)
			if hosted && !st.Syncing && len(st.Members) == 1 {
				break
			}
			if !time.Now().Before(deadline) {
				return fmt.Errorf("core: promoted group %d not ready on %s", gid, nodeName)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// Proxy builds a proxy for a promoted group from a standby node. Shipped
// explicit shard pins are clamped into the standby's (possibly smaller)
// ring pool and applied to the proxy — the standby's Replication Manager
// knows nothing about recovered groups, so Domain.Proxy's automatic pin
// lookup cannot help here.
func (s *Standby) Proxy(fromNode string, gid uint64, opts ...replication.ProxyOption) (*replication.Proxy, error) {
	s.mu.Lock()
	g, ok := s.staged[gid]
	s.mu.Unlock()
	if ok && g.def.Shard > 0 {
		pin := g.def.Shard - 1
		if shards := s.domain.opts.Shards; pin >= shards {
			pin = shards - 1
		}
		opts = append([]replication.ProxyOption{replication.WithShard(pin)}, opts...)
	}
	return s.domain.Proxy(fromNode, gid, opts...)
}

// Stop shuts the standby down (staging loop and domain). Safe to call
// whether or not Promote ran.
func (s *Standby) Stop() {
	s.mu.Lock()
	alreadyPromoted := s.promoted
	s.mu.Unlock()
	if !alreadyPromoted {
		select {
		case <-s.stopCh:
		default:
			close(s.stopCh)
		}
	}
	s.wg.Wait()
	s.domain.Stop()
}
