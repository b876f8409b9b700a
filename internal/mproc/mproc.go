// Package mproc runs the replication stack across real OS processes: a
// parent orchestrator spawns one child process per replica node, each
// child re-executes the parent binary with -role node and builds its own
// totem ring pool + replication engine over loopback UDP, and the parent
// itself participates as the client node of the same universe. This is
// the deployment shape of the source paper's system — replicas as
// processes on a real transport — where everything before this package
// ran as goroutines inside one simulation.
//
// Configuration travels to children as JSON in the ConfigEnv environment
// variable (no files, no flags to quote). Readiness is a handshake on
// stdout: a child prints ReadyLine exactly once, after its rings contain
// the full universe and its hosted groups report complete views.
// Shutdown is stdin EOF: when the parent closes the pipe (or dies, which
// closes it too), children stop their stacks and exit — no orphaned
// processes outliving a crashed orchestrator.
package mproc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/orb"
	"repro/internal/replication"
	"repro/internal/totem"
	"repro/internal/transport/udp"
)

// ConfigEnv is the environment variable carrying a child's JSON Config.
const ConfigEnv = "FTBENCH_NODE_CONFIG"

// ReadyLine is the stdout handshake a child prints when its stack is up.
const ReadyLine = "MPROC-READY"

// GroupSpec statically places one object group: with no Replication
// Manager spanning the processes, every process derives the same group
// table from its Config instead of asking an RM.
type GroupSpec struct {
	ID     uint64
	Name   string
	TypeID string
	// Shard pins the group to a transport shard (1-based, like
	// replication.GroupDef.Shard); 0 uses the deterministic hash route.
	Shard int
	// Hosts are the node names hosting a replica.
	Hosts []string
}

// Config is one process's complete view of the deployment. Every process
// (children and the parent's client node) gets the same Universe, Peers,
// and Groups; only Node differs.
type Config struct {
	Node     string
	Universe []string
	Peers    map[string]udp.Peer
	// Shards is the ring-pool width R; BasePort is the logical port of
	// shard 0 (shard i listens on transport.ShardPort(BasePort, i)).
	Shards   int
	BasePort uint16
	// Heartbeat is the totem gossip interval (JSON: nanoseconds).
	Heartbeat     time.Duration
	CallTimeout   time.Duration
	RetryInterval time.Duration
	Groups        []GroupSpec
}

// Node is one running process's stack: rings over UDP plus the engine.
type Node struct {
	Engine *replication.Engine
	Rings  []*totem.Ring
	cfg    Config
}

// StartNode builds and starts the stack described by cfg in this
// process. servants maps TypeIDs to servant factories for the groups this
// node hosts (may be nil for a pure client node hosting none).
func StartNode(cfg Config, servants map[string]func() orb.Servant) (*Node, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	tp, err := udp.New(cfg.Node, cfg.Peers)
	if err != nil {
		return nil, err
	}
	rings, err := totem.NewRingPool(tp, totem.Config{
		Node:              cfg.Node,
		Universe:          cfg.Universe,
		Port:              cfg.BasePort,
		HeartbeatInterval: cfg.Heartbeat,
	}, cfg.Shards)
	if err != nil {
		return nil, err
	}
	engine, err := replication.NewEngine(replication.Config{
		Node:          cfg.Node,
		Rings:         rings,
		CallTimeout:   cfg.CallTimeout,
		RetryInterval: cfg.RetryInterval,
	})
	if err != nil {
		totem.StopPool(rings)
		return nil, err
	}
	engine.Start()
	n := &Node{Engine: engine, Rings: rings, cfg: cfg}
	for _, g := range cfg.Groups {
		if !contains(g.Hosts, cfg.Node) {
			continue
		}
		factory, ok := servants[g.TypeID]
		if !ok {
			n.Stop()
			return nil, fmt.Errorf("mproc: no servant factory for %s (group %q)", g.TypeID, g.Name)
		}
		def := replication.GroupDef{
			ID:     g.ID,
			Name:   g.Name,
			TypeID: g.TypeID,
			Style:  replication.Active,
			Shard:  g.Shard,
		}
		// initial=true: all processes host their replicas at startup with
		// identical zero state, before any client traffic exists.
		if err := n.Engine.HostReplica(def, factory(), true); err != nil {
			n.Stop()
			return nil, fmt.Errorf("mproc: host group %q: %w", g.Name, err)
		}
	}
	return n, nil
}

// WaitReady blocks until every ring shard has formed a ring containing
// the full universe and every locally hosted group reports a complete,
// synchronized view.
func (n *Node) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if n.ready() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mproc: node %s did not stabilize within %v", n.cfg.Node, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (n *Node) ready() bool {
	for _, r := range n.Rings {
		id, members := r.CurrentRing()
		if id.IsZero() || len(members) != len(n.cfg.Universe) {
			return false
		}
	}
	for _, g := range n.cfg.Groups {
		if !contains(g.Hosts, n.cfg.Node) {
			continue
		}
		st, hosted := n.Engine.GroupStatus(g.ID)
		if !hosted || st.Syncing || len(st.Members) != len(g.Hosts) {
			return false
		}
	}
	return true
}

// Stop shuts the stack down (engine first, then rings, like core).
func (n *Node) Stop() {
	n.Engine.Stop()
	totem.StopPool(n.Rings)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// --- child side ----------------------------------------------------------

// ChildMain is the whole lifecycle of an `-role node` child process: read
// Config from the environment, start the stack, handshake readiness on
// stdout, then serve until stdin reaches EOF. It returns the process exit
// code.
func ChildMain(servants map[string]func() orb.Servant) int {
	// A replica child is a dedicated process with a small, bounded live
	// heap (group state + retransmission windows); the default GC target
	// makes it collect many times per second under multicast load. Trade
	// a few MB of heap for most of that CPU back — unless the operator
	// set GOGC explicitly, which the runtime already honored.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
	raw := os.Getenv(ConfigEnv)
	if raw == "" {
		fmt.Fprintf(os.Stderr, "mproc: %s not set\n", ConfigEnv)
		return 2
	}
	var cfg Config
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mproc: bad %s: %v\n", ConfigEnv, err)
		return 2
	}
	n, err := StartNode(cfg, servants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mproc: %s: %v\n", cfg.Node, err)
		return 1
	}
	defer n.Stop()
	if err := n.WaitReady(30 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "mproc: %v\n", err)
		return 1
	}
	fmt.Println(ReadyLine)
	// Serve until the parent closes our stdin (clean stop) or dies (the
	// pipe closes with it).
	io.Copy(io.Discard, os.Stdin)
	return 0
}

// --- parent side ---------------------------------------------------------

// Child is one spawned replica process.
type Child struct {
	Node  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	ready <-chan error
}

// Spawn re-executes the current binary as `-role node` for the given node
// name, with cfg (Node overridden) in the environment. The child's stderr
// passes through; its stdout is scanned for the readiness handshake.
func Spawn(cfg Config, node string) (*Child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg.Node = node
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-role", "node")
	cmd.Env = append(os.Environ(), ConfigEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == ReadyLine {
				ready <- nil
				// Keep draining so the child never blocks on stdout.
				for sc.Scan() {
				}
				return
			}
		}
		ready <- fmt.Errorf("mproc: child %s exited before %s", node, ReadyLine)
	}()
	return &Child{Node: node, cmd: cmd, stdin: stdin, ready: ready}, nil
}

// AwaitReady blocks until the child's readiness handshake or the timeout.
func (c *Child) AwaitReady(timeout time.Duration) error {
	select {
	case err := <-c.ready:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("mproc: child %s not ready within %v", c.Node, timeout)
	}
}

// Stop asks the child to exit (stdin EOF) and waits, killing it if it
// ignores the request.
func (c *Child) Stop() {
	c.stdin.Close()
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
}

// StopAll stops children in parallel-safe sequence (stdin EOFs first so
// they wind down concurrently, then waits).
func StopAll(children []*Child) {
	for _, c := range children {
		c.stdin.Close()
	}
	for _, c := range children {
		c.Stop()
	}
}
