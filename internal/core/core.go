// Package core assembles the full fault-tolerant CORBA stack into an FT
// domain: a simulated network fabric, one Totem ring endpoint + replication
// engine (+ optionally an ORB) per node, a fault notifier, and a
// Replication Manager administering object groups.
//
// It is the one-call construction path used by the examples, the demo
// binaries, and the experiment harness; the root package re-exports its
// API.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/drstore"
	"repro/internal/fault"
	"repro/internal/ftcorba"
	"repro/internal/ior"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/replication"
	"repro/internal/totem"
	"repro/internal/transport"
)

// Options configures a Domain.
type Options struct {
	// Domain is the FT domain name (default "ft-domain").
	Domain string
	// Nodes are the host names to create (default n1..n3).
	Nodes []string
	// Net configures the simulated network.
	Net netsim.Config
	// Transport, when set, carries the Totem ring traffic instead of the
	// simulated fabric (e.g. a udp.Cluster for real loopback sockets). It
	// must be able to open ports for every node name in Nodes. The fabric
	// still exists for the ORB/IIOP side, and the fault-injection methods
	// (Partition, Heal, CrashNode's network isolation) only affect fabric
	// traffic — chaos experiments need the default netsim transport.
	Transport transport.Transport
	// Heartbeat is the Totem gossip interval; all protocol timeouts derive
	// from it (default 5ms — laptop-scale; raise for slow machines).
	Heartbeat time.Duration
	// Shards is the number of independent Totem rings each node runs
	// (default 1 — today's single-ring wire behaviour, byte for byte).
	// With R>1, shard i occupies port baseRingPort+i on every node and
	// each object group's traffic lives entirely on one shard, so
	// independent groups stop sharing a token rotation.
	Shards int
	// ORBPort, when nonzero, additionally starts a plain ORB per node on
	// this port (used by the interception and service approaches).
	ORBPort uint16
	// CallTimeout bounds replicated invocations (default 10s).
	CallTimeout time.Duration
	// RetryInterval is the invocation retransmission period (default 1s).
	RetryInterval time.Duration
	// DRStore, when set, is the disaster-recovery shipping target wired
	// into every node's replication engine: senior members ship group
	// definitions, checkpoints, and update records there so a Standby
	// built over the same store can take over after this domain dies.
	DRStore drstore.Store
}

func (o *Options) fill() {
	if o.Domain == "" {
		o.Domain = "ft-domain"
	}
	if len(o.Nodes) == 0 {
		o.Nodes = []string{"n1", "n2", "n3"}
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 5 * time.Millisecond
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = time.Second
	}
}

// BaseRingPort is the logical transport port of ring shard 0; shard i
// listens on BaseRingPort+i (totem.ShardPort). Exported so out-of-process
// deployments and real-socket backends can reserve the same logical
// window without depending on this package's construction path.
const BaseRingPort = 4000

// Node bundles one host's protocol endpoints.
type Node struct {
	Name   string
	Ring   *totem.Ring   // shard 0 (kept for single-ring callers)
	Rings  []*totem.Ring // the full transport pool, Rings[0] == Ring
	Engine *replication.Engine
	ORB    *orb.ORB // nil unless Options.ORBPort was set
}

// Domain is a running FT domain.
type Domain struct {
	opts     Options
	Fabric   *netsim.Fabric
	Notifier *fault.Notifier
	RM       *ftcorba.ReplicationManager
	nodes    map[string]*Node
	order    []string
	stopped  bool
}

// NewDomain builds and starts a domain.
func NewDomain(opts Options) (*Domain, error) {
	opts.fill()
	d := &Domain{
		opts:     opts,
		Fabric:   netsim.NewFabric(opts.Net),
		Notifier: &fault.Notifier{},
		RM:       ftcorba.NewReplicationManager(opts.Domain),
		nodes:    make(map[string]*Node),
		order:    append([]string(nil), opts.Nodes...),
	}
	for _, n := range opts.Nodes {
		d.Fabric.AddNode(n)
	}
	for _, name := range opts.Nodes {
		node, err := d.startNode(name)
		if err != nil {
			d.Stop()
			return nil, err
		}
		d.nodes[name] = node
	}
	d.RM.ConsumeFaults(d.Notifier)
	return d, nil
}

func (d *Domain) startNode(name string) (*Node, error) {
	var tp transport.Transport = d.Fabric
	if d.opts.Transport != nil {
		tp = d.opts.Transport
	}
	rings, err := totem.NewRingPool(tp, totem.Config{
		Node:              name,
		Universe:          d.opts.Nodes,
		Port:              BaseRingPort,
		HeartbeatInterval: d.opts.Heartbeat,
		Faults:            d.Notifier,
	}, d.opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("core: ring pool on %s: %w", name, err)
	}
	engine, err := replication.NewEngine(replication.Config{
		Node:          name,
		Rings:         rings,
		Notifier:      d.Notifier,
		CallTimeout:   d.opts.CallTimeout,
		RetryInterval: d.opts.RetryInterval,
		DR:            d.opts.DRStore,
	})
	if err != nil {
		totem.StopPool(rings)
		return nil, fmt.Errorf("core: engine on %s: %w", name, err)
	}
	engine.Start()
	node := &Node{Name: name, Ring: rings[0], Rings: rings, Engine: engine}
	if d.opts.ORBPort != 0 {
		node.ORB, err = orb.New(orb.Config{
			Node:     name,
			Fabric:   d.Fabric,
			Port:     d.opts.ORBPort,
			FTDomain: d.opts.Domain,
		})
		if err != nil {
			engine.Stop()
			totem.StopPool(rings)
			return nil, fmt.Errorf("core: orb on %s: %w", name, err)
		}
	}
	d.RM.RegisterNode(name, engine, d.opts.ORBPort)
	return node, nil
}

// Node returns the named node (nil if unknown or crashed-and-removed).
func (d *Domain) Node(name string) *Node { return d.nodes[name] }

// Nodes lists node names in creation order.
func (d *Domain) Nodes() []string { return append([]string(nil), d.order...) }

// Stop shuts the whole domain down.
func (d *Domain) Stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.RM.Stop()
	for _, n := range d.nodes {
		if n.ORB != nil {
			n.ORB.Shutdown()
		}
		n.Engine.Stop()
		totem.StopPool(n.Rings)
	}
}

// CrashNode fail-stops a node: network isolation plus local stack
// shutdown. The node cannot be restarted (create a fresh domain member via
// the Replication Manager's recovery instead).
func (d *Domain) CrashNode(name string) {
	n, ok := d.nodes[name]
	if !ok {
		return
	}
	d.Fabric.CrashNode(name)
	if n.ORB != nil {
		n.ORB.Shutdown()
	}
	n.Engine.Stop()
	totem.StopPool(n.Rings)
	delete(d.nodes, name)
}

// RestartNode brings a crashed node back: network reattachment, a fresh
// protocol stack, and re-registration with the Replication Manager (which
// replaces the dead incarnation's engine but keeps the node's servant
// factories, so the manager can recruit it again).
func (d *Domain) RestartNode(name string) error {
	if _, ok := d.nodes[name]; ok {
		return fmt.Errorf("core: node %s is already running", name)
	}
	known := false
	for _, n := range d.order {
		if n == name {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("core: unknown node %s", name)
	}
	d.Fabric.RestartNode(name)
	node, err := d.startNode(name)
	if err != nil {
		return err
	}
	d.nodes[name] = node
	return nil
}

// Partition splits the network (see netsim.Fabric.Partition).
func (d *Domain) Partition(groups ...[]string) { d.Fabric.Partition(groups...) }

// Heal removes all partitions.
func (d *Domain) Heal() { d.Fabric.Heal() }

// RegisterFactory installs a servant factory for a type on the given nodes
// (all nodes when none specified).
func (d *Domain) RegisterFactory(typeID string, f ftcorba.Factory, on ...string) error {
	if len(on) == 0 {
		on = d.order
	}
	for _, node := range on {
		if err := d.RM.RegisterFactory(node, typeID, f); err != nil {
			return err
		}
	}
	return nil
}

// Create creates a replicated object group via the Replication Manager.
func (d *Domain) Create(name, typeID string, props *ftcorba.Properties) (*ior.Ref, uint64, error) {
	return d.RM.CreateObjectGroup(name, typeID, props)
}

// ErrUnknownClientNode is returned by Proxy for an unregistered node.
var ErrUnknownClientNode = errors.New("core: unknown client node")

// Proxy builds a group proxy issuing invocations from the given node. When
// the Replication Manager records an explicit shard placement for the
// group, the proxy is pinned to it so clients and replicas agree on the
// transport ring (hash-routed groups need no pin: every engine computes
// the same route). A proxy for an ACTIVE_WITH_VOTING group votes over the
// members the Replication Manager records: a call returns once a majority
// of them agree, so a divergent replica is outvoted and a crashed one does
// not hold calls up.
func (d *Domain) Proxy(fromNode string, gid uint64, opts ...replication.ProxyOption) (*replication.Proxy, error) {
	n, ok := d.nodes[fromNode]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClientNode, fromNode)
	}
	if shard, pinned := d.RM.ShardOf(gid); pinned {
		opts = append([]replication.ProxyOption{replication.WithShard(shard)}, opts...)
	}
	// LEADER_FOLLOWER groups get the direct lane automatically: writes
	// unicast to the leader, the recorded read-only operations are served
	// from replica-local state under read leases. Caller options follow, so
	// an explicit WithLFAttemptTimeout (etc.) still applies.
	if ops, lf := d.RM.LFReadOps(gid); lf {
		opts = append([]replication.ProxyOption{replication.WithLFFastPath(ops...)}, opts...)
	}
	// A majority outvotes a divergent replica only among three or more;
	// two replicas would make every call wait for both.
	if p, err := d.RM.PropertiesOf(gid); err == nil && p.ReplicationStyle == replication.ActiveWithVoting {
		if members, err := d.RM.Members(gid); err == nil && len(members) >= 3 {
			opts = append([]replication.ProxyOption{replication.WithVotes(len(members))}, opts...)
		}
	}
	return n.Engine.Proxy(replication.GroupRef{ID: gid}, opts...), nil
}

// WaitReady blocks until every node agrees on one ring containing all live
// nodes, or the timeout elapses.
func (d *Domain) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if d.ringsAgree() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("core: domain did not stabilize")
}

func (d *Domain) ringsAgree() bool {
	// Every shard must independently stabilize: for each shard index all
	// nodes agree on one ring id containing every live node.
	for shard := 0; shard < d.opts.Shards; shard++ {
		var ref totem.RingID
		first := true
		for _, n := range d.nodes {
			id, members := n.Rings[shard].CurrentRing()
			if id.IsZero() || len(members) != len(d.nodes) {
				return false
			}
			if first {
				ref = id
				first = false
			} else if id != ref {
				return false
			}
		}
	}
	return true
}

// WaitGroupReady blocks until every hosting member of the group reports a
// synchronized view with the expected member count.
func (d *Domain) WaitGroupReady(gid uint64, replicas int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if d.groupReady(gid, replicas) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("core: group %d did not reach %d ready replicas", gid, replicas)
}

func (d *Domain) groupReady(gid uint64, replicas int) bool {
	members, err := d.RM.Members(gid)
	if err != nil || len(members) != replicas {
		return false
	}
	for _, m := range members {
		n, ok := d.nodes[m]
		if !ok {
			return false
		}
		st, hosted := n.Engine.GroupStatus(gid)
		if !hosted || st.Syncing || len(st.Members) != replicas {
			return false
		}
	}
	return true
}
