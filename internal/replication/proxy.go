package replication

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/nondet"
	"repro/internal/orb"
)

// timerPool recycles the two timers every twoway invocation arms (call
// deadline, retransmission backoff). On the fast path neither ever fires
// — the reply lands in microseconds — so without pooling the timers are
// pure per-call garbage plus two runtime timer insertions.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops t, drains a pending fire, and recycles it. Callers must
// have no outstanding receive on t.C.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// CallCtx is attached to orb.Invocation.Caller while a replica executes, so
// servants can perform deterministic nested invocations: every replica of
// the calling group derives the identical operation identifier, letting the
// target group suppress the duplicates.
type CallCtx struct {
	eng   *Engine
	gid   uint64
	msgID uint64
	det   *nondet.Context
}

// ProxyOption customizes a group proxy.
type ProxyOption func(*Proxy)

// WithVotes makes the proxy vote over n replies and return once a majority
// of them agree (ACTIVE_WITH_VOTING on the client side).
func WithVotes(n int) ProxyOption {
	return func(p *Proxy) {
		if n > 0 {
			p.votes = n
		}
	}
}

// WithShard pins the target group to the given transport shard (0-based)
// instead of the deterministic hash route. Clients need this only for
// groups created with an explicit ftcorba.Properties.Shard placement —
// core.Domain.Proxy applies it automatically from the Replication
// Manager's record. The pin is recorded engine-wide so retransmissions and
// the reply subscription use the same ring.
func WithShard(shard int) ProxyOption {
	return func(p *Proxy) {
		if shard >= 0 {
			p.shard = shard + 1
		}
	}
}

// WithLFFastPath enables the LEADER_FOLLOWER direct lane on this proxy:
// writes go straight to the group leader (one unicast + one unicast reply,
// no totem entry on the client's critical path), and the listed read-only
// operations are served from any replica's local state under its read
// lease. On timeout or redirect the proxy falls back to the ordered
// multicast path, so liveness never depends on the fast path.
func WithLFFastPath(readOps ...string) ProxyOption {
	return func(p *Proxy) {
		p.lf = true
		p.lfReadOps = make(map[string]bool, len(readOps))
		for _, op := range readOps {
			p.lfReadOps[op] = true
		}
	}
}

// WithLFAttemptTimeout overrides how long a direct-lane attempt waits
// before falling back to the ordered path (default 25ms).
func WithLFAttemptTimeout(d time.Duration) ProxyOption {
	return func(p *Proxy) {
		if d > 0 {
			p.lfAttempt = d
		}
	}
}

// WithTimeout overrides the engine's call timeout for this proxy.
func WithTimeout(d time.Duration) ProxyOption {
	return func(p *Proxy) {
		if d > 0 {
			p.timeout = d
		}
	}
}

// WithRetryInterval overrides the base retransmission interval (the
// backoff starting point).
func WithRetryInterval(d time.Duration) ProxyOption {
	return func(p *Proxy) {
		if d > 0 {
			p.retry = d
			if p.maxRetry < d {
				p.maxRetry = 8 * d
			}
		}
	}
}

// Proxy issues invocations to one object group. It is safe for concurrent
// use.
type Proxy struct {
	eng      *Engine
	gid      uint64
	names    groupNames
	votes    int
	shard    int // 1-based explicit shard pin; 0 = engine routing
	timeout  time.Duration
	retry    time.Duration // base retransmission interval
	maxRetry time.Duration // backoff cap
	ctx      *CallCtx      // non-nil for nested (deterministic) proxies

	// Leader-follower fast path (WithLFFastPath).
	lf        bool
	lfReadOps map[string]bool
	lfAttempt time.Duration
	lfSeq     atomic.Uint64 // session token: highest leader seq observed
	lfRR      atomic.Uint32 // read-target rotor
}

// Proxy creates a root (client-side) proxy for the group.
func (e *Engine) Proxy(ref GroupRef, opts ...ProxyOption) *Proxy {
	p := &Proxy{
		eng:       e,
		gid:       ref.ID,
		names:     namesOf(ref.ID),
		votes:     1,
		timeout:   e.cfg.CallTimeout,
		retry:     e.cfg.RetryInterval,
		maxRetry:  8 * e.cfg.RetryInterval,
		lfAttempt: 25 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(p)
	}
	if p.shard > 0 {
		e.PinShard(p.gid, p.shard-1)
	}
	return p
}

// backoffAfter returns the wait before the next retransmission: the base
// interval doubled per attempt, capped, with ±25% jitter so a herd of
// retrying clients does not resynchronize on the recovering group.
func (p *Proxy) backoffAfter(attempt int) time.Duration {
	d := p.retry << uint(attempt)
	if d <= 0 || d > p.maxRetry {
		d = p.maxRetry
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + jitter
}

// Nested creates a proxy for a nested invocation from inside a replica's
// Dispatch. All replicas of the calling group produce the same operation
// identifiers, so the target group executes the operation exactly once.
// It panics if inv did not come through the replication engine.
func Nested(inv *orb.Invocation, ref GroupRef, opts ...ProxyOption) *Proxy {
	ctx, ok := inv.Caller.(*CallCtx)
	if !ok {
		panic("replication: Nested called outside a replicated dispatch")
	}
	p := ctx.eng.Proxy(ref, opts...)
	p.ctx = ctx
	return p
}

// Invoke performs a twoway invocation and returns the decoded outcome.
func (p *Proxy) Invoke(op string, args ...cdr.Value) ([]cdr.Value, error) {
	return p.call(op, args, false)
}

// InvokeOneway multicasts an invocation without waiting for a reply.
func (p *Proxy) InvokeOneway(op string, args ...cdr.Value) error {
	_, err := p.call(op, args, true)
	return err
}

func (p *Proxy) nextKey() opKey {
	if p.ctx != nil {
		return opKey{
			ClientID:  fmt.Sprintf("g:%d", p.ctx.gid),
			ParentSeq: p.ctx.msgID,
			OpSeq:     p.ctx.det.Seq("nested-op"),
		}
	}
	return opKey{ClientID: p.eng.clientID, OpSeq: p.eng.roots.open()}
}

// openOps numbers an engine's root operations and tracks which are still
// open, so every invocation can carry the engine's low-water mark: the
// highest OpSeq at or below which every root operation has returned.
type openOps struct {
	mu     sync.Mutex
	next   uint64 // next OpSeq to issue
	low    uint64 // smallest OpSeq still open (next when none is)
	closed []bool // ring over [low, next), indexed by OpSeq modulo its length
	mark   atomic.Uint64
}

func newOpenOps() openOps {
	return openOps{next: 1, low: 1, closed: make([]bool, 64)}
}

// open issues the next OpSeq.
func (o *openOps) open() uint64 {
	o.mu.Lock()
	if o.next-o.low == uint64(len(o.closed)) {
		grown := make([]bool, 2*len(o.closed))
		for s := o.low; s < o.next; s++ {
			grown[s%uint64(len(grown))] = o.closed[s%uint64(len(o.closed))]
		}
		o.closed = grown
	}
	seq := o.next
	o.next++
	o.closed[seq%uint64(len(o.closed))] = false
	o.mu.Unlock()
	return seq
}

// close marks seq returned and advances the low-water mark past every
// leading closed operation.
func (o *openOps) close(seq uint64) {
	o.mu.Lock()
	n := uint64(len(o.closed))
	o.closed[seq%n] = true
	for o.low < o.next && o.closed[o.low%n] {
		o.low++
	}
	o.mark.Store(o.low - 1)
	o.mu.Unlock()
}

// done is the low-water mark a new invocation carries.
func (o *openOps) done() uint64 { return o.mark.Load() }

// lfBump advances the proxy's session token to seq (monotone).
func (p *Proxy) lfBump(seq uint64) {
	for {
		cur := p.lfSeq.Load()
		if seq <= cur || p.lfSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// lfCall attempts the LEADER_FOLLOWER direct lane: a unicast submit to
// the chosen replica and a unicast reply back, bypassing totem on the
// client's critical path entirely. Reads rotate across all replicas
// (served under their leases), writes go to the leader. One redirect is
// honored; any other failure returns ok=false and the caller falls
// back to the ordered path with the same operation key. args is the
// encoded argument body.
func (p *Proxy) lfCall(key opKey, done uint64, op string, args []byte) ([]cdr.Value, error, bool) {
	ring := p.eng.ringFor(p.gid)
	members := ring.GroupMembers(p.names.inv)
	if len(members) == 0 {
		return nil, nil, false
	}
	read := p.lfReadOps[op]
	target := members[0]
	if read {
		target = members[int(p.lfRR.Add(1))%len(members)]
	}
	sub := &msgLfSubmit{
		GroupID:   p.gid,
		Key:       key,
		Operation: op,
		Args:      args,
		ReadOnly:  read,
		MinSeq:    p.lfSeq.Load(),
		From:      p.eng.cfg.Node,
		Done:      done,
	}
	payload, err := encodeWire(sub)
	if err != nil {
		return nil, nil, false
	}

	for attempt := 0; attempt < 2; attempt++ {
		pc, rerr := p.eng.registerCall(key, 1)
		if rerr != nil {
			return nil, rerr, true
		}
		if serr := ring.SendDirect(target, p.names.inv, payload); serr != nil {
			p.eng.unregisterCall(key)
			return nil, nil, false
		}
		timer := getTimer(p.lfAttempt)
		select {
		case rep, ok := <-pc.ch:
			putTimer(timer)
			if !ok {
				return nil, ErrEngineStopped, true
			}
			p.eng.recycleCall(pc)
			if rep.Status == replyRedirect {
				next := string(rep.Body)
				if next == "" || next == target {
					return nil, nil, false
				}
				target = next
				continue
			}
			p.lfBump(rep.ExecMsgID)
			out, derr := wireToOutcome(rep.Status, rep.Body)
			return out, derr, true
		case <-timer.C:
			putTimer(timer)
			p.eng.unregisterCall(key)
			return nil, nil, false
		case <-p.eng.stopCh:
			putTimer(timer)
			p.eng.unregisterCall(key)
			return nil, ErrEngineStopped, true
		}
	}
	return nil, nil, false
}

func (p *Proxy) call(op string, args []cdr.Value, oneway bool) ([]cdr.Value, error) {
	key := p.nextKey()
	var done uint64
	if p.ctx == nil {
		// A root operation stays open, holding back the low-water mark,
		// until this call has sent its last copy: the group can then
		// retire its record as soon as a later invocation arrives.
		defer p.eng.roots.close(key.OpSeq)
		done = p.eng.roots.done()
	}
	// The arguments are encoded once, straight into the wire payload;
	// argBody is their encoding inside it, for the direct-lane submit.
	payload, argBody := encodeInvocation(&msgInvocation{
		GroupID:   p.gid,
		Key:       key,
		Operation: op,
		Oneway:    oneway,
		Done:      done,
	}, args)

	if oneway {
		return nil, p.eng.ringFor(p.gid).Multicast(p.names.inv, payload)
	}

	if p.lf && p.votes == 1 {
		if out, lfErr, ok := p.lfCall(key, done, op, argBody); ok {
			return out, lfErr
		}
		// Fast path declined (timeout, redirect exhaustion, no view yet):
		// fall through to the ordered path with the same operation key, so
		// a submit that did reach the leader dedups instead of re-running.
	}

	// Subscribe to the group's reply stream before sending, so the reply
	// cannot race the subscription.
	p.eng.ensureReplyJoined(p.gid)

	pc, err := p.eng.registerCall(key, p.votes)
	if err != nil {
		return nil, err
	}
	rep, err := p.await(pc, op, payload)
	if err != nil {
		p.eng.unregisterCall(key)
		return nil, err
	}
	p.eng.recycleCall(pc)
	if p.lf {
		// Ordered-path replies on LF groups carry lfMsgID(epoch, seq);
		// keep the session token moving so follower reads stay
		// read-your-writes after a fallback write.
		p.lfBump(rep.ExecMsgID & lfSeqMask)
	}
	return wireToOutcome(rep.Status, rep.Body)
}

// await multicasts the invocation payload and waits for the reply pc
// receives, retransmitting with backoff until the call's deadline.
func (p *Proxy) await(pc *pendingCall, op string, payload []byte) (*msgReply, error) {
	if err := p.eng.ringFor(p.gid).Multicast(p.names.inv, payload); err != nil {
		return nil, err
	}
	deadline := getTimer(p.timeout)
	defer putTimer(deadline)
	retry := getTimer(p.backoffAfter(0))
	defer putTimer(retry)
	for attempt := 0; ; {
		select {
		case rep, ok := <-pc.ch:
			if !ok {
				return nil, ErrEngineStopped
			}
			return rep, nil
		case <-retry.C:
			// Retransmit with the same operation identifier: the group
			// suppresses the duplicate and re-sends the logged reply if the
			// operation already executed (FT-CORBA request retention).
			// Retransmissions back off exponentially (with jitter, bounded
			// by 8 × RetryInterval) so a partitioned or failing-over group is
			// not hammered at a fixed rate by every blocked client.
			p.eng.stat.retries.Add(1)
			if err := p.eng.ringFor(p.gid).Multicast(p.names.inv, payload); err != nil {
				return nil, err
			}
			attempt++
			retry.Reset(p.backoffAfter(attempt))
		case <-deadline.C:
			return nil, fmt.Errorf("%w: %s on group %d", ErrCallTimeout, op, p.gid)
		case <-p.eng.stopCh:
			return nil, ErrEngineStopped
		}
	}
}
