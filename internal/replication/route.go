package replication

// Delivery routing: what the rings hand the engine — the ordered stream,
// views and the direct lane — goes to the hosted replicas' executors and
// to the client calls waiting for replies.

import (
	"bytes"

	"repro/internal/fault"
	"repro/internal/totem"
)

// pendingCall is a client call waiting for its reply. Only a voting call
// (votesNeeded > 1) collects votes, keyed by replying node. A single-reply
// record is recycled once its caller has received the reply (recycleCall).
type pendingCall struct {
	votesNeeded int
	votes       map[string]*msgReply
	ch          chan *msgReply
}

// onDirect is the rings' Consumer.Direct: submits route to the hosted
// replica's executor, replies complete the waiting client call. The lane
// is unordered and unreliable by design — anything confusing is dropped
// and the ordered path picks up the slack. It runs on a protocol loop
// (or a loopback sender's goroutine) under deliverer's rules.
func (e *Engine) onDirect(from, group string, payload []byte) {
	if e.halted() {
		return
	}
	m, err := decodeWire(payload)
	if err != nil {
		return
	}
	switch v := m.(type) {
	case *msgLfSubmit:
		if r := e.replicaFor(v.GroupID); r != nil {
			r.q.Push(task{m: v})
		}
	case *msgReply:
		e.completeCall(v)
	}
}

func (e *Engine) ensureReplyJoined(gid uint64) {
	e.mu.RLock()
	joined := e.replyJoined[gid]
	e.mu.RUnlock()
	if joined {
		return
	}
	e.mu.Lock()
	joined = e.replyJoined[gid]
	if !joined {
		e.replyJoined[gid] = true
	}
	stopped := e.stopped
	e.mu.Unlock()
	if !joined && !stopped {
		_ = e.ringFor(gid).JoinGroup(namesOf(gid).rep)
	}
}

// deliverer returns the Consumer.Deliver of the shard's ring: it routes the
// ring's ordered stream to hosted replicas and pending client calls.
// Per-group order holds because a group's traffic arrives on exactly one
// ring and its replica executes from a single FIFO queue.
//
// It runs on the ring's protocol loop, which holds the token, so it (and
// onDirect) must never block and never multicast or join: Multicast may
// wait for the very loop that is calling. Servants run on the executors,
// behind never-blocking taskQueues. The locks it takes, Engine.mu and
// replica.mu (markAnswered), guard only in-memory bookkeeping: no critical
// section on either waits on a channel, a ring, a servant, the WAL or the
// DR store. completeCall's send cannot block (the channel has room for the
// call's one reply), nor can fault.Notifier.Push. After Stop it drops
// everything. The ring's invocations and replies decode into an arena of
// its own, which only this loop touches.
func (e *Engine) deliverer(shard int) func(totem.Delivery) {
	a := new(arena)
	return func(d totem.Delivery) {
		if e.halted() {
			return
		}
		switch v := d.Event.(type) {
		case nil:
			e.onDeliver(&d.Deliver, a)
		case totem.GroupView:
			e.onGroupView(v)
		case totem.ViewChange:
			// All shards share one fate domain (a node crash silences
			// every ring it runs), so shard 0 alone feeds node-level
			// fault reports — R near-simultaneous ViewChanges would
			// otherwise push R duplicate crash reports per dead node.
			if shard == 0 {
				e.onRingView(v)
			}
		}
	}
}

// halted reports whether Stop has begun.
func (e *Engine) halted() bool {
	select {
	case <-e.stopCh:
		return true
	default:
		return false
	}
}

func (e *Engine) onDeliver(d *totem.Deliver, a *arena) {
	m, err := decodeWireIn(d.Payload, a)
	if err != nil {
		return // foreign traffic on our groups: drop
	}
	var gid uint64
	switch v := m.(type) {
	case *msgInvocation:
		gid = v.GroupID
	case *msgReply:
		e.completeCall(v)
		if r := e.replicaFor(v.GroupID); r != nil {
			r.markAnswered(v)
			if r.rules.oneExecutes() {
				r.q.Push(task{msgID: d.MsgID, m: v})
			}
		}
		return
	case *msgCheckpoint:
		gid = v.GroupID
	case *msgStateReq:
		gid = v.GroupID
	case *msgLfOrder:
		gid = v.GroupID
	case *msgLfLease:
		gid = v.GroupID
	default:
		return
	}
	if r := e.replicaFor(gid); r != nil {
		r.q.Push(task{msgID: d.MsgID, m: m})
	}
}

func (e *Engine) onGroupView(gv totem.GroupView) {
	e.mu.RLock()
	target := e.byInv[gv.Group]
	e.mu.RUnlock()
	if target != nil {
		target.q.Push(task{m: &taskView{members: gv.Members, epoch: gv.Ring.Epoch}})
	}
}

// onRingView reports node-level faults derived from ring membership.
func (e *Engine) onRingView(vc totem.ViewChange) {
	e.mu.Lock()
	old := e.ringMembers
	e.ringMembers = append([]string(nil), vc.Members...)
	notifier := e.cfg.Notifier
	e.mu.Unlock()
	if notifier == nil {
		return
	}
	cur := make(map[string]bool, len(vc.Members))
	for _, m := range vc.Members {
		cur[m] = true
	}
	for _, m := range old {
		if !cur[m] {
			notifier.Push(fault.Report{Kind: fault.NodeCrash, Node: m, Member: m})
		}
	}
}

// completeCall routes a reply to the waiting client call. A voting call of
// n votes completes once ⌊n/2⌋+1 replies agree, so a crashed member does
// not hold it up, or with the most common outcome once all n replied.
func (e *Engine) completeCall(m *msgReply) {
	e.mu.Lock()
	p, ok := e.pending[m.Key]
	if !ok {
		e.mu.Unlock()
		e.stat.dupReplies.Add(1)
		return
	}
	winner := m
	if p.votesNeeded > 1 {
		if _, seen := p.votes[m.Node]; seen {
			e.mu.Unlock()
			e.stat.dupReplies.Add(1)
			return
		}
		p.votes[m.Node] = m
		var agree int
		winner, agree = majorityReply(p.votes)
		if agree <= p.votesNeeded/2 && len(p.votes) < p.votesNeeded {
			e.mu.Unlock()
			return
		}
	}
	delete(e.pending, m.Key)
	e.mu.Unlock()
	p.ch <- winner
}

// majorityReply picks the most common outcome among votes and how many
// votes it has: replies agree when their status and body bytes are equal.
// Only voting calls use it; the single-vote styles take the reply directly.
func majorityReply(votes map[string]*msgReply) (*msgReply, int) {
	var best *msgReply
	bestCount := 0
	for _, v := range votes {
		count := 0
		for _, o := range votes {
			if o.Status == v.Status && bytes.Equal(o.Body, v.Body) {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = v, count
		}
	}
	return best, bestCount
}

func (e *Engine) registerCall(key opKey, votes int) (*pendingCall, error) {
	votes = max(votes, 1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return nil, ErrEngineStopped
	}
	var p *pendingCall
	if n := len(e.freeCalls); votes == 1 && n > 0 {
		p = e.freeCalls[n-1]
		e.freeCalls = e.freeCalls[:n-1]
	} else {
		p = &pendingCall{votesNeeded: votes, ch: make(chan *msgReply, 1)}
		if votes > 1 {
			p.votes = make(map[string]*msgReply, votes)
		}
	}
	e.pending[key] = p
	return p, nil
}

// recycleCall puts a single-reply call record on the free list once its
// caller has received the call's one reply. Nothing else can reach it
// then: completeCall removed it from pending before sending, and Stop
// closes only what is pending. A call that timed out or was stopped is
// never recycled, since a reply may still land in its channel, nor is a
// voting call, whose votes keep the replies.
func (e *Engine) recycleCall(p *pendingCall) {
	if p.votesNeeded != 1 {
		return
	}
	e.mu.Lock()
	e.freeCalls = append(e.freeCalls, p)
	e.mu.Unlock()
}

func (e *Engine) unregisterCall(key opKey) {
	e.mu.Lock()
	delete(e.pending, key)
	e.mu.Unlock()
}
