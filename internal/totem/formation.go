package totem

import (
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/fault"
)

// Formation and EVS recovery: per-peer liveness from the heartbeats, the
// coordinator's proposal, the members' accepts carrying their old-ring
// state, and the install that delivers each member's missing old-ring
// suffix before the new view.

// handleHello feeds a peer's heartbeat to its suspicion machine and learns
// the highest ring epoch the peer has seen.
func (r *Ring) handleHello(h *hello, now time.Time) {
	if h.From != r.cfg.Node {
		s := r.peerFD[h.From]
		if s == nil {
			s = fault.NewSuspicion(fault.SuspicionConfig{
				MinWindow:    failTimeoutBeats * r.cfg.HeartbeatInterval,
				MaxWindow:    r.cfg.MaxFailTimeout,
				ConfirmGrace: r.cfg.ConfirmGrace,
			})
			r.peerFD[h.From] = s
		}
		switch s.Observe(now) {
		case fault.TransRetract, fault.TransRecover:
			r.pushPeerEvent(h.From, fault.EventRecover, now)
		}
	}
	if h.MaxEpoch > r.maxEpoch {
		r.maxEpoch = h.MaxEpoch
	}
}

// evalPeers advances every peer's suspicion machine to now. Raised
// suspicions are reported via Faults so the replication tier can
// quarantine the peer; a confirmed death emits no report from here — it
// only changes aliveSet, and the resulting membership eviction is what the
// replication engine reports as the confirmed NodeCrash fault.
func (r *Ring) evalPeers(now time.Time) {
	for peer, s := range r.peerFD {
		if s.Eval(now) == fault.TransSuspect {
			r.pushPeerEvent(peer, fault.EventSuspect, now)
		}
	}
}

// pushPeerEvent reports a peer-liveness transition to the fault notifier.
func (r *Ring) pushPeerEvent(peer string, ev fault.Event, now time.Time) {
	if r.cfg.Faults == nil {
		return
	}
	r.cfg.Faults.Push(fault.Report{
		Kind:     fault.NodeCrash,
		Event:    ev,
		Node:     peer,
		Member:   peer,
		Detected: now,
	})
}

// aliveSet returns the sorted nodes this one hears, itself included, in
// ring-owned storage valid until the next call.
func (r *Ring) aliveSet() []string {
	// A peer stays alive through the whole suspect phase — only a
	// confirmed death (phi past the fail threshold AND the ConfirmGrace
	// dwell elapsed) removes it and triggers reformation.
	alive := append(r.alive[:0], r.cfg.Node)
	for n, s := range r.peerFD {
		if s.State() != fault.StateDead {
			alive = append(alive, n)
		}
	}
	slices.Sort(alive)
	r.alive = alive
	return alive
}

// enterForming leaves the operational ring: the token this node held is
// dropped with everything kept about it.
func (r *Ring) enterForming(now time.Time) {
	r.state = stForming
	r.formingFrom = now
	r.tokenHold = tokenHold{}
}

func (r *Ring) proposeRing(members []string, now time.Time) {
	r.maxEpoch++
	r.formingRing = RingID{Epoch: r.maxEpoch, Coord: r.cfg.Node}
	r.formMembers = slices.Clone(members)
	r.accepts = make(map[string]*accept, len(members))
	r.state = stAwaitAccepts
	r.formingFrom = now
	p := &propose{Ring: r.formingRing, Members: r.formMembers}
	for _, m := range r.formMembers {
		r.send(m, p, now)
	}
}

// makeAccept snapshots this node's old-ring state for the coordinator.
func (r *Ring) makeAccept(ringID RingID) *accept {
	stored := make([]storedMsg, 0, len(r.store))
	for _, m := range r.store {
		stored = append(stored, m)
	}
	sort.Slice(stored, func(i, j int) bool { return stored[i].Seq < stored[j].Seq })
	r.mu.Lock()
	groups := make([]string, 0, len(r.subs))
	for g := range r.subs {
		groups = append(groups, g)
	}
	r.mu.Unlock()
	slices.Sort(groups)
	return &accept{
		Ring:      ringID,
		From:      r.cfg.Node,
		OldRing:   r.ring,
		Delivered: r.delivered,
		Stored:    stored,
		Groups:    groups,
	}
}

func (r *Ring) handlePropose(p *propose, now time.Time) {
	if p.Ring.Epoch > r.maxEpoch {
		r.maxEpoch = p.Ring.Epoch
	}
	// Ignore proposals for rings not newer than the installed one.
	if !r.ring.Less(p.Ring) {
		return
	}
	// If we are coordinating a competing formation with a smaller id,
	// abandon it in favor of the larger.
	if r.state == stAwaitAccepts && p.Ring.Less(r.formingRing) {
		return
	}
	if r.state == stOperational {
		r.enterForming(now)
	}
	r.send(p.Ring.Coord, r.makeAccept(p.Ring), now)
}

func (r *Ring) handleAccept(a *accept, now time.Time) {
	if r.state != stAwaitAccepts || a.Ring != r.formingRing {
		return
	}
	r.accepts[a.From] = a
	for _, m := range r.formMembers {
		if _, ok := r.accepts[m]; !ok {
			return
		}
	}
	r.finishFormation(now)
}

func (r *Ring) finishFormation(now time.Time) {
	// Union the old-ring states per old ring for EVS recovery.
	byRing := make(map[RingID]map[uint64]storedMsg)
	subs := make([]groupSub, 0)
	for _, a := range r.accepts {
		for _, g := range a.Groups {
			subs = append(subs, groupSub{Node: a.From, Group: g})
		}
		if a.OldRing.IsZero() {
			continue
		}
		set := byRing[a.OldRing]
		if set == nil {
			set = make(map[uint64]storedMsg)
			byRing[a.OldRing] = set
		}
		for _, m := range a.Stored {
			if _, ok := set[m.Seq]; !ok {
				set[m.Seq] = m
			}
		}
	}
	recovery := make([]recoverySet, 0, len(byRing))
	for rid, set := range byRing {
		msgs := make([]storedMsg, 0, len(set))
		for _, m := range set {
			msgs = append(msgs, m)
		}
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].Seq < msgs[j].Seq })
		recovery = append(recovery, recoverySet{OldRing: rid, Msgs: msgs})
	}
	sort.Slice(recovery, func(i, j int) bool { return recovery[i].OldRing.Less(recovery[j].OldRing) })
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].Node != subs[j].Node {
			return subs[i].Node < subs[j].Node
		}
		return subs[i].Group < subs[j].Group
	})

	ins := &install{
		Ring:     r.formingRing,
		Members:  r.formMembers,
		Recovery: recovery,
		Subs:     subs,
	}
	raw, err := encodePacket(ins)
	if err != nil {
		r.reportInvariant(err.Error())
		return
	}
	for _, m := range r.formMembers {
		if m != r.cfg.Node {
			r.sendRaw(m, raw)
		}
	}
	r.handleInstall(ins, now)
	if r.ring == ins.Ring && len(r.members) > 1 {
		r.installRaw = raw
	}
}

func (r *Ring) handleInstall(ins *install, now time.Time) {
	if !r.ring.Less(ins.Ring) {
		return
	}
	if ins.Ring.Epoch > r.maxEpoch {
		r.maxEpoch = ins.Ring.Epoch
	}

	// EVS recovery: deliver the suffix of old-ring messages we are
	// missing, in contiguous sequence order, before the new view. The
	// union stops being useful at the first hole — a message no new
	// member still stores (pruned after full dissemination in a component
	// this node was cut off from) is unrecoverable here, and skipping past
	// it would silently diverge this node from members that delivered it.
	// Delivery stops at the hole; the layers above re-synchronize such a
	// member by state transfer.
	for _, rs := range ins.Recovery {
		if rs.OldRing != r.ring || r.ring.IsZero() {
			continue
		}
		for _, m := range rs.Msgs {
			if m.Seq <= r.delivered {
				continue
			}
			if m.Seq != r.delivered+1 {
				break
			}
			r.delivered = m.Seq
			r.deliverMsg(r.ring, m)
		}
	}

	r.ring = ins.Ring
	r.members = slices.Clone(ins.Members)
	r.state = stOperational
	r.store = make(map[uint64]storedMsg)
	r.delivered = 0
	r.pruned = 0
	r.lastRound = 0
	r.lastToken = now
	r.tokenHold = tokenHold{}

	// Rebuild group membership from the collected subscriptions.
	r.groupMembers = make(map[string]map[string]bool)
	for _, s := range ins.Subs {
		set := r.groupMembers[s.Group]
		if set == nil {
			set = make(map[string]bool)
			r.groupMembers[s.Group] = set
		}
		set[s.Node] = true
	}

	r.statForms.Add(1)
	r.publishView()

	if ins.Ring.Coord == r.cfg.Node { // the coordinator starts the first round
		r.handleToken(&token{Ring: r.ring, Aru: math.MaxUint64}, now)
	}
}

// publishView publishes the installed ring to the snapshot accessors and
// the ordered stream: the view change, then every group's view in group
// order. Each member list is built once and shared by the snapshot and the
// event that announces it.
func (r *Ring) publishView() {
	groups := make([]string, 0, len(r.groupMembers))
	for g := range r.groupMembers {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	pub := make(map[string][]string, len(groups))
	for _, g := range groups {
		pub[g] = r.groupMemberList(g)
	}
	r.mu.Lock()
	r.pubRing, r.pubMembers, r.pubGroups = r.ring, r.members, pub
	r.mu.Unlock()
	r.events.Push(Delivery{Event: ViewChange{Ring: r.ring, Members: r.members}})
	for _, g := range groups {
		r.events.Push(Delivery{Event: GroupView{Ring: r.ring, Group: g, Members: pub[g]}})
	}
}
