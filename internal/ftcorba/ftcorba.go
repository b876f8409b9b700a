// Package ftcorba implements the FT-CORBA management services that
// standardized the experience the paper reports: the Replication Manager
// (combining the PropertyManager, ObjectGroupManager, and GenericFactory
// interfaces), fault-report consumption with automatic replica recovery,
// and IOGR (interoperable object group reference) publication with version
// management.
//
// One Replication Manager administers one FT domain. In the standard the
// manager is itself replicated for fault tolerance; here it is a single
// in-process object (it can be hosted as a replicated group through the
// same engine it manages — see the examples).
package ftcorba

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/ior"
	"repro/internal/orb"
	"repro/internal/replication"
)

// MembershipStyle selects who adds/removes group members.
type MembershipStyle uint8

// Membership styles.
const (
	// MembershipInfrastructure lets the Replication Manager manage
	// membership (including automatic recovery after faults).
	MembershipInfrastructure MembershipStyle = iota + 1
	// MembershipApplication leaves membership to the application.
	MembershipApplication
)

// Properties are the FT-CORBA replication properties of an object group.
type Properties struct {
	ReplicationStyle replication.Style
	MembershipStyle  MembershipStyle
	// InitialNumberReplicas is how many replicas to create (default 2).
	InitialNumberReplicas int
	// MinimumNumberReplicas triggers automatic recovery when membership
	// falls below it (default InitialNumberReplicas).
	MinimumNumberReplicas int
	// CheckpointInterval is operations between checkpoints (passive
	// styles; default 16).
	CheckpointInterval int
	// Shard explicitly places the group on one transport shard of the
	// engines' ring pool. 1-based so the zero value means "route by hash"
	// (replication.ShardFor): Shard=N pins the group to ring N-1. The
	// manager records the placement and core.Domain.Proxy propagates it to
	// clients; it is inert in single-ring domains.
	Shard int
	// ReadOnlyOps lists operations that never mutate servant state
	// (IDL readonly attribute accessors and the like). For
	// LEADER_FOLLOWER groups these are servable from any replica's local
	// state under its read lease; core.Domain.Proxy propagates the list
	// to clients as a WithLFFastPath option. Ignored for other styles.
	ReadOnlyOps []string
}

func (p *Properties) fill() {
	if p.ReplicationStyle == 0 {
		p.ReplicationStyle = replication.Active
	}
	if p.MembershipStyle == 0 {
		p.MembershipStyle = MembershipInfrastructure
	}
	if p.InitialNumberReplicas <= 0 {
		p.InitialNumberReplicas = 2
	}
	if p.MinimumNumberReplicas <= 0 {
		p.MinimumNumberReplicas = p.InitialNumberReplicas
	}
	if p.CheckpointInterval <= 0 {
		p.CheckpointInterval = 16
	}
}

// Factory creates servant instances of one type on demand (the
// GenericFactory hook). Each call must return a fresh servant with zero
// state.
type Factory func() orb.Servant

// Errors returned by the Replication Manager.
var (
	ErrNoFactory      = errors.New("ftcorba: no factory registered for type")
	ErrUnknownGroup   = errors.New("ftcorba: unknown object group")
	ErrUnknownNode    = errors.New("ftcorba: node not registered")
	ErrNotEnoughNodes = errors.New("ftcorba: not enough nodes with factories")
	ErrMemberExists   = errors.New("ftcorba: node already hosts a member")
	ErrNoSuchMember   = errors.New("ftcorba: node hosts no member of the group")
)

// nodeRec is one registered host.
type nodeRec struct {
	engine    *replication.Engine
	orbPort   uint16
	factories map[string]Factory
}

// groupRec is the manager's record of one object group.
type groupRec struct {
	def     replication.GroupDef
	props   Properties
	typeID  string
	members []string // nodes hosting replicas, sorted
	version uint32
}

// pendingRecruit is a deferred spare recruitment: a confirmed member fault
// schedules it, the RecruitGrace timer fires it, and a recovery report for
// the failed node cancels it (the recovered member is re-added instead).
type pendingRecruit struct {
	gid    uint64
	failed string
	timer  *time.Timer
}

// ReplicationManager administers object groups in one FT domain.
type ReplicationManager struct {
	domain string

	mu     sync.Mutex
	nodes  map[string]*nodeRec
	groups map[uint64]*groupRec
	nextID uint64

	defaultProps Properties
	typeProps    map[string]Properties

	// Failure-detector state mirror: suspected nodes are quarantined (never
	// chosen as spares) until the suspicion resolves; confirmed-dead nodes
	// stay excluded until they re-register or a recovery report arrives.
	suspected map[string]time.Time
	deadNodes map[string]bool
	pending   map[uint64]*pendingRecruit
	// recruitGrace delays spare recruitment after a confirmed fault so a
	// member that was evicted by an over-eager detector (and whose recovery
	// report is seconds behind the fault report) rejoins in place instead
	// of triggering a provisioning storm.
	recruitGrace time.Duration

	stopCh  chan struct{}
	wg      sync.WaitGroup
	stopped bool
}

// NewReplicationManager creates a manager for the named FT domain.
func NewReplicationManager(domain string) *ReplicationManager {
	rm := &ReplicationManager{
		domain:       domain,
		nodes:        make(map[string]*nodeRec),
		groups:       make(map[uint64]*groupRec),
		typeProps:    make(map[string]Properties),
		suspected:    make(map[string]time.Time),
		deadNodes:    make(map[string]bool),
		pending:      make(map[uint64]*pendingRecruit),
		recruitGrace: 75 * time.Millisecond,
		stopCh:       make(chan struct{}),
	}
	rm.defaultProps.fill()
	return rm
}

// SetRecruitGrace overrides the delay between a confirmed member fault and
// spare recruitment. Zero recruits immediately (the pre-hysteresis
// behavior); tests that need deterministic timing use it.
func (rm *ReplicationManager) SetRecruitGrace(d time.Duration) {
	rm.mu.Lock()
	rm.recruitGrace = d
	rm.mu.Unlock()
}

// Domain returns the FT domain name.
func (rm *ReplicationManager) Domain() string { return rm.domain }

// Stop terminates background consumers.
func (rm *ReplicationManager) Stop() {
	rm.mu.Lock()
	if rm.stopped {
		rm.mu.Unlock()
		return
	}
	rm.stopped = true
	for gid, p := range rm.pending {
		p.timer.Stop()
		delete(rm.pending, gid)
	}
	rm.mu.Unlock()
	close(rm.stopCh)
	rm.wg.Wait()
}

// RegisterNode makes a host available for replica placement. Re-registering
// an existing node replaces its engine — the crash-restart case, where the
// node returns with a fresh engine but its factory registrations (and any
// group memberships the manager assigns next) remain valid.
func (rm *ReplicationManager) RegisterNode(node string, engine *replication.Engine, orbPort uint16) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	// Registration is proof of life: a restarted node sheds any dead or
	// suspected mark it carried.
	delete(rm.deadNodes, node)
	delete(rm.suspected, node)
	if rec, ok := rm.nodes[node]; ok {
		rec.engine = engine
		rec.orbPort = orbPort
		return
	}
	rm.nodes[node] = &nodeRec{engine: engine, orbPort: orbPort, factories: make(map[string]Factory)}
}

// RegisterFactory installs a servant factory for a type on a node (the
// GenericFactory registration step).
func (rm *ReplicationManager) RegisterFactory(node, typeID string, f Factory) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	n, ok := rm.nodes[node]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, node)
	}
	n.factories[typeID] = f
	return nil
}

// --- PropertyManager -------------------------------------------------------

// SetDefaultProperties sets domain-wide defaults.
func (rm *ReplicationManager) SetDefaultProperties(p Properties) {
	p.fill()
	rm.mu.Lock()
	rm.defaultProps = p
	rm.mu.Unlock()
}

// SetTypeProperties overrides defaults for one repository id.
func (rm *ReplicationManager) SetTypeProperties(typeID string, p Properties) {
	p.fill()
	rm.mu.Lock()
	rm.typeProps[typeID] = p
	rm.mu.Unlock()
}

// PropertiesOf returns the effective properties of a group.
func (rm *ReplicationManager) PropertiesOf(gid uint64) (Properties, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g, ok := rm.groups[gid]
	if !ok {
		return Properties{}, fmt.Errorf("%w: %d", ErrUnknownGroup, gid)
	}
	return g.props, nil
}

func (rm *ReplicationManager) effectiveProps(typeID string, override *Properties) Properties {
	if override != nil {
		p := *override
		p.fill()
		return p
	}
	if p, ok := rm.typeProps[typeID]; ok {
		return p
	}
	return rm.defaultProps
}

// --- GenericFactory / ObjectGroupManager -----------------------------------

// CreateObjectGroup creates a replicated object of the given type:
// InitialNumberReplicas replicas are placed on distinct nodes that have a
// factory for the type, and the group's IOGR is returned.
// Pass nil props to use the type/domain defaults.
func (rm *ReplicationManager) CreateObjectGroup(name, typeID string, props *Properties) (*ior.Ref, uint64, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	p := rm.effectiveProps(typeID, props)

	candidates := rm.nodesWithFactoryLocked(typeID, nil)
	if len(candidates) < p.InitialNumberReplicas {
		return nil, 0, fmt.Errorf("%w: need %d, have %d for %s",
			ErrNotEnoughNodes, p.InitialNumberReplicas, len(candidates), typeID)
	}
	chosen := candidates[:p.InitialNumberReplicas]

	rm.nextID++
	gid := rm.nextID
	def := replication.GroupDef{
		ID:              gid,
		Name:            name,
		TypeID:          typeID,
		Style:           p.ReplicationStyle,
		CheckpointEvery: p.CheckpointInterval,
		Shard:           p.Shard,
		ReadOnlyOps:     append([]string(nil), p.ReadOnlyOps...),
	}
	for _, node := range chosen {
		n := rm.nodes[node]
		if err := n.engine.HostReplica(def, n.factories[typeID](), true); err != nil {
			return nil, 0, fmt.Errorf("ftcorba: host replica on %s: %w", node, err)
		}
	}
	g := &groupRec{def: def, props: p, typeID: typeID, members: chosen, version: 1}
	rm.groups[gid] = g
	return rm.iogrLocked(g), gid, nil
}

// nodesWithFactoryLocked lists nodes having a factory for typeID,
// excluding those in skip, sorted for determinism.
func (rm *ReplicationManager) nodesWithFactoryLocked(typeID string, skip []string) []string {
	var out []string
	for name, n := range rm.nodes {
		if _, ok := n.factories[typeID]; !ok {
			continue
		}
		skipped := false
		for _, s := range skip {
			if s == name {
				skipped = true
				break
			}
		}
		if !skipped {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// AddMember places an additional replica on the node (ObjectGroupManager::
// add_member); the new replica is synchronized by state transfer.
func (rm *ReplicationManager) AddMember(gid uint64, node string) (*ior.Ref, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g, ok := rm.groups[gid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownGroup, gid)
	}
	n, ok := rm.nodes[node]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, node)
	}
	f, ok := n.factories[g.typeID]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoFactory, g.typeID, node)
	}
	for _, m := range g.members {
		if m == node {
			return nil, fmt.Errorf("%w: %s", ErrMemberExists, node)
		}
	}
	// A replica that is still hosted means the manager's record and the
	// engine diverged — typically a fault-detector false positive evicted
	// the member while the replica lived on. Re-adding then just
	// reconciles the membership record; the replica needs no state
	// transfer because it never left the group's view.
	if err := n.engine.HostReplica(g.def, f(), false); err != nil &&
		!errors.Is(err, replication.ErrAlreadyHosted) {
		return nil, fmt.Errorf("ftcorba: host replica: %w", err)
	}
	g.members = append(g.members, node)
	sort.Strings(g.members)
	g.version++
	return rm.iogrLocked(g), nil
}

// RemoveMember withdraws the replica on the node (ObjectGroupManager::
// remove_member).
func (rm *ReplicationManager) RemoveMember(gid uint64, node string) (*ior.Ref, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g, ok := rm.groups[gid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownGroup, gid)
	}
	idx := -1
	for i, m := range g.members {
		if m == node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchMember, node)
	}
	if n, ok := rm.nodes[node]; ok {
		n.engine.RemoveReplica(gid)
	}
	g.members = append(g.members[:idx], g.members[idx+1:]...)
	g.version++
	return rm.iogrLocked(g), nil
}

// ShardOf reports a group's explicit transport-shard placement (0-based),
// or ok=false when the group routes by hash (or is unknown) — callers then
// rely on the engines' deterministic ShardFor route.
func (rm *ReplicationManager) ShardOf(gid uint64) (shard int, ok bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g, found := rm.groups[gid]
	if !found || g.def.Shard <= 0 {
		return 0, false
	}
	return g.def.Shard - 1, true
}

// LFReadOps reports a LEADER_FOLLOWER group's lease-servable read-only
// operations. ok is false when the group is unknown or uses another
// replication style — callers then build a plain ordered-path proxy.
func (rm *ReplicationManager) LFReadOps(gid uint64) (ops []string, ok bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g, found := rm.groups[gid]
	if !found || !g.def.Style.IsLeaderFollower() {
		return nil, false
	}
	return append([]string(nil), g.def.ReadOnlyOps...), true
}

// Members returns the group's current hosting nodes.
func (rm *ReplicationManager) Members(gid uint64) ([]string, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g, ok := rm.groups[gid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownGroup, gid)
	}
	return append([]string(nil), g.members...), nil
}

// IOGR returns the group's current reference (version-stamped).
func (rm *ReplicationManager) IOGR(gid uint64) (*ior.Ref, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g, ok := rm.groups[gid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownGroup, gid)
	}
	return rm.iogrLocked(g), nil
}

// Version returns the group's IOGR version.
func (rm *ReplicationManager) Version(gid uint64) (uint32, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g, ok := rm.groups[gid]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownGroup, gid)
	}
	return g.version, nil
}

// iogrLocked builds the group's IOGR: one profile per member, primary
// flagged (senior member, matching the engine's primary rule).
func (rm *ReplicationManager) iogrLocked(g *groupRec) *ior.Ref {
	members := make([]ior.GroupMember, 0, len(g.members))
	for i, node := range g.members {
		port := uint16(0)
		if n, ok := rm.nodes[node]; ok {
			port = n.orbPort
		}
		members = append(members, ior.GroupMember{
			Host:      node,
			Port:      port,
			ObjectKey: []byte(fmt.Sprintf("og/%d", g.def.ID)),
			Primary:   i == 0,
		})
	}
	return ior.NewGroup(g.typeID, ior.FTGroup{
		FTDomainID: rm.domain,
		GroupID:    g.def.ID,
		Version:    g.version,
	}, members)
}

// --- Fault consumption and automatic recovery -------------------------------

// ConsumeFaults subscribes the manager to a fault notifier: member-crash
// reports shrink the affected groups, and (for infrastructure-controlled
// membership) replicas are re-created on spare nodes to restore
// MinimumNumberReplicas — the FT-CORBA automatic recovery loop.
func (rm *ReplicationManager) ConsumeFaults(n *fault.Notifier) {
	ch, cancel := n.Subscribe(nil)
	rm.wg.Add(1)
	go func() {
		defer rm.wg.Done()
		defer cancel()
		for {
			select {
			case <-rm.stopCh:
				return
			case r, ok := <-ch:
				if !ok {
					return
				}
				rm.handleFault(r)
			}
		}
	}()
}

func (rm *ReplicationManager) handleFault(r fault.Report) {
	switch r.Event {
	case fault.EventSuspect:
		// Quarantine: a suspected node is never recruited as a spare, but
		// its existing memberships stay — suspicion is not eviction.
		rm.mu.Lock()
		if _, ok := rm.suspected[r.Node]; !ok {
			when := r.Detected
			if when.IsZero() {
				when = time.Now()
			}
			rm.suspected[r.Node] = when
		}
		rm.mu.Unlock()
		return
	case fault.EventRecover:
		rm.nodeRecovered(r.Node)
		return
	}
	switch r.Kind {
	case fault.ObjectCrash:
		rm.memberFailed(r.GroupID, r.Node)
	case fault.NodeCrash, fault.ProcessCrash:
		// Every group with a member on the node lost that member.
		rm.mu.Lock()
		rm.deadNodes[r.Node] = true
		delete(rm.suspected, r.Node)
		var affected []uint64
		for gid, g := range rm.groups {
			for _, m := range g.members {
				if m == r.Node {
					affected = append(affected, gid)
					break
				}
			}
		}
		rm.mu.Unlock()
		for _, gid := range affected {
			rm.memberFailed(gid, r.Node)
		}
	}
}

// nodeRecovered handles a recovery report: the node's quarantine marks are
// cleared, and any recruit still pending for a group that lost this very
// node is canceled — the recovered member is re-added in place, which is
// exactly the flap the recruit grace exists to absorb.
func (rm *ReplicationManager) nodeRecovered(node string) {
	rm.mu.Lock()
	delete(rm.suspected, node)
	delete(rm.deadNodes, node)
	var readd []uint64
	for gid, p := range rm.pending {
		if p.failed == node {
			p.timer.Stop()
			delete(rm.pending, gid)
			readd = append(readd, gid)
		}
	}
	rm.mu.Unlock()
	for _, gid := range readd {
		_, _ = rm.AddMember(gid, node)
	}
}

func (rm *ReplicationManager) memberFailed(gid uint64, node string) {
	rm.mu.Lock()
	g, ok := rm.groups[gid]
	if !ok {
		rm.mu.Unlock()
		return
	}
	idx := -1
	for i, m := range g.members {
		if m == node {
			idx = i
			break
		}
	}
	if idx < 0 {
		rm.mu.Unlock()
		return
	}
	g.members = append(g.members[:idx], g.members[idx+1:]...)
	g.version++
	needRecovery := g.props.MembershipStyle == MembershipInfrastructure &&
		len(g.members) < g.props.MinimumNumberReplicas
	if needRecovery && !rm.stopped && rm.pending[gid] == nil {
		p := &pendingRecruit{gid: gid, failed: node}
		p.timer = time.AfterFunc(rm.recruitGrace, func() { rm.fireRecruit(p) })
		rm.pending[gid] = p
	}
	rm.mu.Unlock()
}

// fireRecruit runs when a pending recruit's grace expires without the
// failed member recovering: re-check the group still needs a replica and
// place one on the first healthy spare.
func (rm *ReplicationManager) fireRecruit(p *pendingRecruit) {
	rm.mu.Lock()
	if rm.pending[p.gid] != p {
		rm.mu.Unlock()
		return // canceled by a recovery, or superseded
	}
	delete(rm.pending, p.gid)
	g, ok := rm.groups[p.gid]
	if !ok || rm.stopped ||
		g.props.MembershipStyle != MembershipInfrastructure ||
		len(g.members) >= g.props.MinimumNumberReplicas {
		rm.mu.Unlock()
		return
	}
	spare := rm.selectSpareLocked(g, p.failed)
	rm.mu.Unlock()
	if spare != "" {
		// Best-effort: the spare may itself be down; the next fault report
		// will retry elsewhere.
		_, _ = rm.AddMember(p.gid, spare)
	}
}

// selectSpareLocked picks the first registered node that has a factory for
// the group's type, hosts no member, and is neither confirmed dead nor
// currently suspected by the failure detector. The old code took
// candidates[0] unconditionally, which happily recruited a node whose
// crash the manager had itself just processed.
func (rm *ReplicationManager) selectSpareLocked(g *groupRec, failed string) string {
	candidates := rm.nodesWithFactoryLocked(g.typeID, append([]string{failed}, g.members...))
	for _, c := range candidates {
		if rm.deadNodes[c] {
			continue
		}
		if _, sus := rm.suspected[c]; sus {
			continue
		}
		return c
	}
	return ""
}

// GroupIDs lists all managed group ids, sorted.
func (rm *ReplicationManager) GroupIDs() []uint64 {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make([]uint64, 0, len(rm.groups))
	for gid := range rm.groups {
		out = append(out, gid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
