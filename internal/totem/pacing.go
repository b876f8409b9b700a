package totem

import "time"

// Token pacing: demand-driven circulation with no timer of its own.
//
// While the ring has work the token rotates back to back. Once the
// coordinator has seen parkRounds consecutive workless rounds it parks the
// token — keeps its retained copy and forwards nothing — so an idle ring
// costs no datagrams beyond the heartbeat. A parked token resumes on local
// work (handleWake), on a member's nudge, or on the heartbeat tick: that
// keepalive rotation refreshes every member's token-loss timer, which
// cannot tell deliberate silence from a lost token. A singleton ring parks
// the same way; its "rotation" re-enqueues the token to itself.
//
// A member cannot see the token parked at the coordinator, but it can see
// the ring go quiet as the token passes through: the coordinator parks only
// after a workless round that visited every member. So a member with fresh
// work nudges the coordinator once it has seen a quiet visit, and stays
// silent on a visibly busy ring, where the rotating token collects the work
// anyway. A member whose nudge was lost retries on the heartbeat while it
// holds queued work.

// parkRounds is how many consecutive workless rounds the coordinator
// forwards before parking the token. Two make the first idle rotation after
// traffic collect whatever was queued while the last message was being
// delivered, without paying a wake or a nudge.
const parkRounds = 2

// pacer is one endpoint's token-pacing state. It is owned by the protocol
// goroutine and reset whenever the endpoint leaves an operational ring.
type pacer struct {
	quietRounds int    // consecutive workless token visits seen here
	lastSeqSeen uint64 // token Seq at the previous visit (progress detection)
	parked      bool   // the token is held here, at the idle coordinator
	// skipPark forces the next would-be parking visit to rotate instead: a
	// member announced work the token cannot show yet (its nudge raced the
	// parking round), or the visit is the re-handled parked token, which
	// sees the same idle ring the parking visit saw.
	skipPark bool
}

// visit records one token visit and reports whether the coordinator should
// park the token rather than forward it. worked reports evidence of work
// the token carries: a batch sent here, a retransmission served or
// requested, or a delivery gap anywhere on the ring last round (its aru
// fell short of Seq). Sequence progress since the previous visit counts
// too — delivery outruns the token on a fast fabric, so by the time the
// token returns, another member's multicast is delivered everywhere and
// only the moved Seq shows that the round carried it. A member that left
// messages queued sent a batch, so its backlog always shows as progress.
func (p *pacer) visit(seq uint64, worked, coord bool) bool {
	if worked || seq != p.lastSeqSeen {
		p.quietRounds = 0
		p.skipPark = false
	} else {
		p.quietRounds++
	}
	p.lastSeqSeen = seq
	if !coord || p.quietRounds < parkRounds {
		return false
	}
	if p.skipPark {
		p.skipPark = false
		return false
	}
	p.parked = true
	return true
}

// unpark resumes a parked token with one forced rotation and reports
// whether the token was parked here. The retained token is re-handled, so
// it opens a new round whose LastAru is the coordinator's own delivery
// point. That is safe only because of the parking rule: the round that
// closed at the parking visit had an aru equal to Seq, so every member had
// delivered everything, and no message can be sent while the token is
// parked.
func (r *Ring) unpark(now time.Time) bool {
	if !r.pace.parked {
		return false
	}
	r.pace.parked = false
	r.pace.skipPark = true
	r.rehandleRetained(now)
	return true
}

// handleNudge serves a member's request to resume the token. When the token
// is not parked the nudge usually raced the parking round it means to
// prevent, so the next would-be parking visit rotates instead.
func (r *Ring) handleNudge(now time.Time) {
	if !r.unpark(now) {
		r.pace.skipPark = true
	}
}

// paceTick is the heartbeat's share of pacing: the coordinator's keepalive
// rotation, and a member's nudge retry while it holds queued work and no
// token has visited for half a heartbeat. (A delivery gap needs no retry: a
// ring with a gap anywhere does not park.)
func (r *Ring) paceTick(now time.Time) {
	if r.unpark(now) || r.ring.Coord == r.cfg.Node ||
		now.Sub(r.lastToken) <= r.cfg.HeartbeatInterval/2 {
		return
	}
	r.mu.Lock()
	pending := len(r.sendQ) > 0
	r.mu.Unlock()
	if pending {
		r.sendNudge(now)
	}
}

func (r *Ring) sendNudge(now time.Time) {
	r.nudgeOut = nudge{Ring: r.ring, From: r.cfg.Node}
	r.send(r.ring.Coord, &r.nudgeOut, now)
}
