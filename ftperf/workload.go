package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/replication"
)

// workload is one traffic mix against one deployment.
type workload struct {
	name      string
	style     replication.Style
	servers   int // server nodes n1..nN; a separate "client" node issues every call
	replicas  int // replicas per group
	groups    int
	clients   int           // closed-loop client goroutines
	think     time.Duration // mean pause between a reply and the next call
	readFrac  float64
	payload   int  // write argument bytes
	stateSize int  // servant state bytes
	leased    bool // declare the read as ReadOnlyOps (LEADER_FOLLOWER leased reads)
	// crashEvery, when set, crashes and restores a primary at this
	// spacing through the measured window. Otherwise the run ends with a
	// short follower-crash probe after the window.
	crashEvery time.Duration
}

var workloads = map[string]workload{
	"active3_busy": {
		name: "active3_busy", style: replication.Active, servers: 3, replicas: 3, groups: 16,
		clients: 2, readFrac: 0.2, payload: 256, stateSize: 256,
	},
	"lf3_sparse": {
		name: "lf3_sparse", style: replication.LeaderFollower, servers: 3, replicas: 3, groups: 16,
		clients: 2, think: time.Millisecond, readFrac: 0.9, payload: 256, stateSize: 256, leased: true,
	},
	"warm3_failover": {
		name: "warm3_failover", style: replication.WarmPassive, servers: 4, replicas: 3, groups: 16,
		clients: 1, readFrac: 0.1, payload: 256, stateSize: 16 << 10, crashEvery: time.Second,
	},
}

// warmupRounds is how many write+read pairs each client sends to every
// group during set-up, so leases are granted and pools are filled before
// measuring.
const warmupRounds = 4

const clientNode = "client"

// env is one provisioned deployment with its clients.
type env struct {
	w       workload
	d       *core.Domain
	servers []string
	gids    []uint64
	hosts   [][]string // initial hosts per group
	reg     *registry
	tr      *atomic.Pointer[tracer]
	clients []*client
	stats   *statsTracker
	// falseEvictions counts group members the Replication Manager dropped
	// although their node was never crashed.
	falseEvictions atomic.Int64
}

// newEnv starts a domain, forms the ring, provisions every group, builds
// the clients' proxies and runs the warm-up.
func newEnv(w workload, seed int64) (*env, error) {
	e := &env{w: w, reg: newRegistry(), tr: new(atomic.Pointer[tracer])}
	for i := 1; i <= w.servers; i++ {
		e.servers = append(e.servers, fmt.Sprintf("n%d", i))
	}
	names := append(append([]string(nil), e.servers...), clientNode)
	d, err := core.NewDomain(core.Options{Nodes: names, Net: netsim.Config{Seed: seed}})
	if err != nil {
		return nil, fmt.Errorf("domain: %w", err)
	}
	e.d = d
	e.stats = newStatsTracker(d)
	if err := e.provision(); err != nil {
		d.Stop()
		return nil, err
	}
	return e, nil
}

func (e *env) provision() error {
	w := e.w
	if err := e.d.WaitReady(10 * time.Second); err != nil {
		return err
	}
	var readOnly []string
	if w.leased {
		readOnly = []string{opRead}
	}
	for g := 0; g < w.groups; g++ {
		// One type per group, with factories only on the group's hosts,
		// places the group's replicas and lets every factory call be
		// filed under its group.
		typeID := fmt.Sprintf("IDL:ftperf/Counter%d:1.0", g)
		var hosts []string
		for i := 0; i < w.replicas; i++ {
			hosts = append(hosts, e.servers[(g+i)%w.servers])
		}
		for _, node := range hosts {
			node, g := node, g
			f := func() orb.Servant {
				c := newCounter(typeID, w.stateSize, e.tr)
				e.reg.put(node, g, c)
				return c
			}
			if err := e.d.RegisterFactory(typeID, f, node); err != nil {
				return err
			}
		}
		_, gid, err := e.d.Create(fmt.Sprintf("counter-%d", g), typeID, &ftcorba.Properties{
			ReplicationStyle:      w.style,
			InitialNumberReplicas: w.replicas,
			MembershipStyle:       ftcorba.MembershipApplication,
			ReadOnlyOps:           readOnly,
		})
		if err != nil {
			return fmt.Errorf("create group %d: %w", g, err)
		}
		e.gids = append(e.gids, gid)
		e.hosts = append(e.hosts, hosts)
	}
	if _, err := e.heal(""); err != nil {
		return err
	}
	for i := 0; i < w.clients; i++ {
		c := &client{id: i, e: e}
		for _, gid := range e.gids {
			p, err := e.d.Proxy(clientNode, gid)
			if err != nil {
				return err
			}
			c.proxies = append(c.proxies, p)
		}
		c.sess = newSession(i, w.groups)
		c.failedWrites = make([]int, w.groups)
		c.log = make([]op, 0, 1<<16)
		e.clients = append(e.clients, c)
	}
	// Warm-up: every client writes and reads every group, in order.
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			payload := make([]byte, w.payload)
			for r := 0; r < warmupRounds; r++ {
				for g := range e.gids {
					if !c.do(g, true, payload) || !c.do(g, false, nil) {
						errs[i] = fmt.Errorf("warm-up call to group %d failed: %w", g, c.lastErr)
						return
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// op is one completed (or failed) call as the client saw it.
type op struct {
	start, end int64 // ns since the run's epoch
	write, ok  bool
}

// epoch is the zero of every op timestamp.
var epoch = time.Now()

func stamp(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }

// client is one closed-loop caller with its own proxies (its own
// session), its operation log and its session-consistency record.
type client struct {
	id      int
	e       *env
	proxies []*replication.Proxy
	seq     uint64
	log     []op
	lastErr error

	sess         *session
	acks         []ack
	failedWrites []int // per group
}

// ack is one acknowledged write: its group, request id and the count it
// returned.
type ack struct {
	group  int
	id     uint64
	result uint64
}

// do issues one call and records it; it reports success.
func (c *client) do(group int, write bool, payload []byte) bool {
	c.seq++
	id := uint64(c.id+1)<<40 | c.seq
	tr := c.e.tr.Load()
	start := time.Now()
	if tr != nil {
		tr.begin(id, write, start)
	}
	var out []cdr.Value
	var err error
	if write {
		out, err = c.proxies[group].Invoke(opWrite, cdr.ULongLong(id), cdr.OctetSeq(payload))
	} else {
		out, err = c.proxies[group].Invoke(opRead, cdr.ULongLong(id))
	}
	end := time.Now()
	ok := err == nil && len(out) == 1
	if tr != nil {
		tr.end(id, end, ok)
	}
	c.log = append(c.log, op{start: stamp(start), end: stamp(end), write: write, ok: ok})
	if !ok {
		if err == nil {
			err = fmt.Errorf("reply has %d values", len(out))
		}
		c.lastErr = err
		if write {
			c.failedWrites[group]++
		}
		return false
	}
	n := out[0].AsULongLong()
	if write {
		c.acks = append(c.acks, ack{group: group, id: id, result: n})
		c.sess.wrote(group, n)
	} else {
		c.sess.read(group, n)
	}
	return true
}

// loop runs the closed loop until stop closes. Its inputs come from the
// seed alone: the op mix, the target groups and the payloads.
func (c *client) loop(seed int64, stop <-chan struct{}) {
	w := c.e.w
	rng := rand.New(rand.NewSource(seed*7919 + int64(c.id)))
	payloads := make([][]byte, 32)
	for i := range payloads {
		payloads[i] = make([]byte, w.payload)
		rng.Read(payloads[i])
	}
	var owed time.Duration // how far earlier pauses overslept
	for {
		select {
		case <-stop:
			return
		default:
		}
		write := rng.Float64() >= w.readFrac
		c.do(rng.Intn(w.groups), write, payloads[rng.Intn(len(payloads))])
		if w.think > 0 {
			// Each pause runs to a deadline that is shortened by what the
			// earlier pauses overslept, so the mean pause is w.think
			// however late the host's timer wakes the client, and the
			// call rate follows the calls' latency rather than the timer.
			due := time.Now().Add(w.think - owed)
			time.Sleep(time.Until(due))
			owed = min(time.Since(due), maxOwed*w.think)
		}
	}
}

// maxOwed caps the oversleep a client makes up for, in pauses, so a long
// stall is followed by a short burst of calls rather than a long one.
const maxOwed = 10

// statsTracker sums the program's own counters (totem.Ring.Stats and
// replication.Engine.Stats) over every node incarnation: a crashed
// node's last counters are kept, its successor starts from zero.
type statsTracker struct {
	d       *core.Domain
	mu      sync.Mutex
	retired counters
}

type counters struct {
	sent, retransmit, formations        uint64
	dups, retries, lfReads, checkpoints uint64
}

func newStatsTracker(d *core.Domain) *statsTracker { return &statsTracker{d: d} }

func nodeCounters(n *core.Node) counters {
	var c counters
	for _, r := range n.Rings {
		s := r.Stats()
		c.sent += s.Sent
		c.retransmit += s.Retransmit
		c.formations += s.Formations
	}
	s := n.Engine.Stats()
	c.dups = s.DupInvocations
	c.retries = s.Retries
	c.lfReads = s.LfReads
	c.checkpoints = s.Checkpoints
	return c
}

func (c counters) plus(o counters) counters {
	return counters{
		sent: c.sent + o.sent, retransmit: c.retransmit + o.retransmit, formations: c.formations + o.formations,
		dups: c.dups + o.dups, retries: c.retries + o.retries,
		lfReads: c.lfReads + o.lfReads, checkpoints: c.checkpoints + o.checkpoints,
	}
}

func (c counters) minus(o counters) counters {
	return counters{
		sent: c.sent - o.sent, retransmit: c.retransmit - o.retransmit, formations: c.formations - o.formations,
		dups: c.dups - o.dups, retries: c.retries - o.retries,
		lfReads: c.lfReads - o.lfReads, checkpoints: c.checkpoints - o.checkpoints,
	}
}

// total is the sum over retired incarnations and live nodes.
func (s *statsTracker) total() counters {
	s.mu.Lock()
	t := s.retired
	s.mu.Unlock()
	for _, name := range s.d.Nodes() {
		if n := s.d.Node(name); n != nil {
			t = t.plus(nodeCounters(n))
		}
	}
	return t
}

// retire keeps a node's counters before it is crashed.
func (s *statsTracker) retire(name string) {
	if n := s.d.Node(name); n != nil {
		c := nodeCounters(n)
		s.mu.Lock()
		s.retired = s.retired.plus(c)
		s.mu.Unlock()
	}
}

// installTracer switches tracing on (t != nil) or off for the whole env.
func (e *env) installTracer(t *tracer) {
	e.tr.Store(t)
	if t == nil {
		e.d.Fabric.SetDropFilter(nil)
	} else {
		e.d.Fabric.SetDropFilter(t.countDatagram)
	}
}
