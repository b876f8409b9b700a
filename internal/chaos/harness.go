package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/drstore"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/totem"
	"repro/internal/wal"
)

const ringPort = 4000

// Options parameterizes a harness.
type Options struct {
	// Style is the group's replication style.
	Style replication.Style
	// Seed derives the fabric's randomness and the schedule generator.
	Seed int64
	// Replicas is the number of replica nodes (default 3). One extra
	// never-faulted node hosts the client.
	Replicas int
	// FileLogs backs every replica's WAL with a file in a test temp dir
	// (crash-restart recovery then survives process state loss); default is
	// one persistent in-memory log per node.
	FileLogs bool
	// CheckpointEvery overrides the group's checkpoint period.
	CheckpointEvery int
	// Shards is the number of transport rings per node (default 1). The
	// group hash-routes onto one of them; the others run alongside so pool
	// lifecycle (crash, restart, teardown) is exercised under faults.
	Shards int
	// DR attaches a shared in-memory disaster-recovery store that every
	// replica engine ships into, enabling the EpDomainFailover episode
	// (whole-domain outage + warm-standby promotion). Schedules containing
	// that episode must come from GenerateDR.
	DR bool
}

// ObsMsg is one recorded delivery: enough to check virtual-synchrony order
// consistency without retaining payloads.
type ObsMsg struct {
	MsgID  uint64
	Ring   totem.RingID
	Seq    uint64
	Hash   uint64
	Sender string
}

// Recorder captures one shard of one node incarnation's complete delivery
// sequence via the totem Observer hook. Shards record separately because
// ring ids are only unique within a shard: two shards of the same pool can
// both be on "epoch 3 at n1" while carrying unrelated sequence spaces.
type Recorder struct {
	Node  string
	Inc   int
	Shard int

	mu   sync.Mutex
	msgs []ObsMsg
}

func (r *Recorder) observe(d totem.Deliver) {
	h := fnv.New64a()
	h.Write(d.Payload)
	r.mu.Lock()
	r.msgs = append(r.msgs, ObsMsg{
		MsgID:  d.MsgID,
		Ring:   d.Ring,
		Seq:    d.Seq,
		Hash:   h.Sum64(),
		Sender: d.Sender,
	})
	r.mu.Unlock()
}

// Msgs returns a snapshot of the recorded sequence.
func (r *Recorder) Msgs() []ObsMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ObsMsg(nil), r.msgs...)
}

// Harness wires one replicated group (plus a client node) onto a simulated
// fabric and exposes fault-injection and invariant-checking operations.
type Harness struct {
	tb     testing.TB
	opts   Options
	Rng    *rand.Rand
	Fabric *netsim.Fabric
	Faults *fault.Notifier
	Nodes  []string // replica nodes
	Client string   // client node; never faulted
	Def    replication.GroupDef

	// store is the shared DR shipping target (nil unless Options.DR). It
	// is an interface field assigned only when enabled, so engines see a
	// true nil when disabled.
	store drstore.Store

	mu        sync.Mutex
	rings     map[string][]*totem.Ring
	engines   map[string]*replication.Engine
	servants  map[string]*Account
	logs      map[string]wal.Log
	incarn    map[string]int
	down      map[string]bool
	recorders []*Recorder

	proxy      *replication.Proxy
	ackedSum   int64
	ackedCount int64

	logDir        string
	baseGoroutine int
	closed        bool
}

// New builds and starts a harness: fabric, rings, engines, hosted group,
// client proxy.
func New(tb testing.TB, opts Options) *Harness {
	tb.Helper()
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	h := &Harness{
		tb:            tb,
		opts:          opts,
		Rng:           rand.New(rand.NewSource(opts.Seed)),
		Faults:        &fault.Notifier{},
		Client:        "client",
		incarn:        make(map[string]int),
		down:          make(map[string]bool),
		rings:         make(map[string][]*totem.Ring),
		engines:       make(map[string]*replication.Engine),
		servants:      make(map[string]*Account),
		logs:          make(map[string]wal.Log),
		baseGoroutine: runtime.NumGoroutine(),
	}
	for i := 0; i < opts.Replicas; i++ {
		h.Nodes = append(h.Nodes, fmt.Sprintf("n%d", i+1))
	}
	if opts.FileLogs {
		h.logDir = tb.TempDir()
	}
	if opts.DR {
		h.store = drstore.NewMemStore()
	}
	h.Fabric = netsim.NewFabric(netsim.Config{
		Latency: 50 * time.Microsecond,
		Jitter:  100 * time.Microsecond,
		Seed:    opts.Seed,
	})
	for _, n := range append(append([]string(nil), h.Nodes...), h.Client) {
		h.Fabric.AddNode(n)
	}
	h.Def = replication.GroupDef{
		ID:              1,
		Name:            "chaos-acct",
		TypeID:          "IDL:repro/ChaosAccount:1.0",
		Style:           opts.Style,
		CheckpointEvery: opts.CheckpointEvery,
	}
	var popts []replication.ProxyOption
	if opts.Style.IsLeaderFollower() {
		h.Def.ReadOnlyOps = []string{"get"}
		popts = append(popts, replication.WithLFFastPath("get"))
	}
	for _, n := range h.Nodes {
		h.startNode(n, false)
	}
	h.startNode(h.Client, false)
	h.proxy = h.engines[h.Client].Proxy(replication.GroupRef{ID: h.Def.ID}, popts...)
	h.WaitMembers(h.Nodes)
	tb.Cleanup(h.Close)
	return h
}

// logFor returns the node's persistent WAL, creating it on first use. File
// logs are reopened per incarnation (recovery from disk); memory logs are
// one shared instance per node (recovery from the retained record slice).
func (h *Harness) logFor(node string) wal.Log {
	if h.logDir != "" {
		l, err := wal.OpenFileLog(filepath.Join(h.logDir, node+".wal"))
		if err != nil {
			h.tb.Fatalf("open file log for %s: %v", node, err)
		}
		h.mu.Lock()
		h.logs[node] = l
		h.mu.Unlock()
		return l
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	l, ok := h.logs[node]
	if !ok {
		l = &wal.MemLog{}
		h.logs[node] = l
	}
	return l
}

// openLogForRead returns a node's WAL for a read-only replay check without
// disturbing the live instance: file logs are opened as a separate handle
// (released by the returned func), memory logs are shared and safe.
func (h *Harness) openLogForRead(node string) (wal.Log, func()) {
	if h.logDir != "" {
		l, err := wal.OpenFileLog(filepath.Join(h.logDir, node+".wal"))
		if err != nil {
			h.tb.Fatalf("open file log for %s: %v", node, err)
		}
		return l, func() { _ = l.Close() }
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.logs[node], func() {}
}

// startNode boots one node: ring + engine, and (for replica nodes) a hosted
// servant — fresh for the initial boot, recovered from the node's WAL on
// restart.
func (h *Harness) startNode(node string, fromLog bool) {
	h.tb.Helper()
	h.mu.Lock()
	h.incarn[node]++
	inc := h.incarn[node]
	h.mu.Unlock()

	universe := append(append([]string(nil), h.Nodes...), h.Client)
	rings := make([]*totem.Ring, 0, h.opts.Shards)
	for shard := 0; shard < h.opts.Shards; shard++ {
		rec := &Recorder{Node: node, Inc: inc, Shard: shard}
		h.mu.Lock()
		h.recorders = append(h.recorders, rec)
		h.mu.Unlock()
		ring, err := totem.NewRing(h.Fabric, totem.Config{
			Node:              node,
			Universe:          universe,
			Port:              totem.ShardPort(ringPort, shard),
			HeartbeatInterval: 4 * time.Millisecond,
			StrictInvariants:  true,
			Faults:            h.Faults,
			Observer:          rec.observe,
		})
		if err != nil {
			totem.StopPool(rings)
			h.tb.Fatalf("ring %s shard %d: %v", node, shard, err)
		}
		rings = append(rings, ring)
	}
	eng, err := replication.NewEngine(replication.Config{
		Node:          node,
		Rings:         rings,
		Notifier:      h.Faults,
		CallTimeout:   10 * time.Second,
		RetryInterval: 120 * time.Millisecond,
		LogFactory:    func(replication.GroupDef) wal.Log { return h.logFor(node) },
		DR:            h.store,
	})
	if err != nil {
		totem.StopPool(rings)
		h.tb.Fatalf("engine %s: %v", node, err)
	}
	eng.Start()

	h.mu.Lock()
	h.rings[node] = rings
	h.engines[node] = eng
	h.down[node] = false
	h.mu.Unlock()

	if node == h.Client {
		return
	}
	acct := &Account{}
	if fromLog {
		err = eng.HostReplicaFromLog(h.Def, acct, h.logFor(node))
	} else {
		err = eng.HostReplica(h.Def, acct, true)
	}
	if err != nil {
		h.tb.Fatalf("host on %s: %v", node, err)
	}
	h.mu.Lock()
	h.servants[node] = acct
	h.mu.Unlock()
}

// Invoke performs one acknowledged "add" through the client proxy and
// accounts for it. Any error is a harness failure: schedules are designed to
// keep a functioning majority at all times.
func (h *Harness) Invoke(amount int32) {
	h.tb.Helper()
	if _, err := h.proxy.Invoke("add", cdr.Long(amount)); err != nil {
		h.tb.Fatalf("seed %d: invoke failed under schedule: %v", h.opts.Seed, err)
	}
	h.mu.Lock()
	h.ackedSum += int64(amount)
	h.ackedCount++
	h.mu.Unlock()
}

// burst issues n acknowledged writes back to back with no pacing — used
// to leave a leader-follower order stream in flight when a fault hits.
func (h *Harness) burst(n int) {
	h.tb.Helper()
	for i := 0; i < n; i++ {
		h.Invoke(1)
	}
}

// Get performs one read through the client proxy and checks
// read-your-writes: the returned balance must equal the acknowledged sum.
// For LEADER_FOLLOWER groups the read may be served from a leased replica,
// which must never lag the session's own acknowledged writes.
func (h *Harness) Get() {
	h.tb.Helper()
	out, err := h.proxy.Invoke("get")
	if err != nil {
		h.tb.Fatalf("seed %d: read failed under schedule: %v", h.opts.Seed, err)
	}
	h.mu.Lock()
	want := h.ackedSum
	h.mu.Unlock()
	if got := out[0].AsLongLong(); got != want {
		h.tb.Fatalf("seed %d: stale read: balance %d, acked sum %d", h.opts.Seed, got, want)
	}
}

// Leader returns the group's current leader/primary as seen from a live
// replica.
func (h *Harness) Leader() string {
	h.tb.Helper()
	return h.authoritative()
}

// Acked returns the sum and count of acknowledged operations.
func (h *Harness) Acked() (sum, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ackedSum, h.ackedCount
}

// Crash fails a replica node: its fabric links sever and its local stack
// stops (the process is gone). The node's WAL survives for Restart.
func (h *Harness) Crash(node string) {
	h.tb.Helper()
	h.mu.Lock()
	if h.down[node] {
		h.mu.Unlock()
		return
	}
	h.down[node] = true
	rings, eng := h.rings[node], h.engines[node]
	h.mu.Unlock()
	h.Fabric.CrashNode(node)
	eng.Stop()
	totem.StopPool(rings)
	if l, ok := h.logs[node]; ok && h.logDir != "" {
		_ = l.Close() // file handle dies with the "process"
	}
}

// Restart boots a crashed replica node with a fresh servant recovered from
// its write-ahead log.
func (h *Harness) Restart(node string) {
	h.tb.Helper()
	h.mu.Lock()
	if !h.down[node] {
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	h.Fabric.RestartNode(node)
	h.startNode(node, true)
}

// DownNodes lists currently crashed replica nodes.
func (h *Harness) DownNodes() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, n := range h.Nodes {
		if h.down[n] {
			out = append(out, n)
		}
	}
	return out
}

// LiveReplicas lists replica nodes that are currently up.
func (h *Harness) LiveReplicas() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, n := range h.Nodes {
		if !h.down[n] {
			out = append(out, n)
		}
	}
	return out
}

// Store returns the shared DR store (nil unless Options.DR).
func (h *Harness) Store() drstore.Store { return h.store }

// Engine returns the node's current engine.
func (h *Harness) Engine(node string) *replication.Engine {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.engines[node]
}

// Servant returns the node's current servant instance.
func (h *Harness) Servant(node string) *Account {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.servants[node]
}

// Recorders snapshots all per-incarnation delivery recorders.
func (h *Harness) Recorders() []*Recorder {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Recorder(nil), h.recorders...)
}

// WaitMembers blocks until every listed node's replica reports exactly that
// membership and is done syncing.
func (h *Harness) WaitMembers(on []string) {
	h.tb.Helper()
	want := append([]string(nil), on...)
	sortStrings(want)
	h.waitFor(15*time.Second, fmt.Sprintf("membership %v", want), func() bool {
		for _, node := range on {
			st, ok := h.Engine(node).GroupStatus(h.Def.ID)
			if !ok || st.Syncing || !equalStrings(st.Members, want) {
				return false
			}
		}
		return true
	})
}

// waitFor polls cond until it holds or the deadline passes.
func (h *Harness) waitFor(d time.Duration, what string, cond func() bool) {
	h.tb.Helper()
	if h.poll(d, cond) {
		return
	}
	h.tb.Fatalf("seed %d: timeout waiting for %s", h.opts.Seed, what)
}

// poll is waitFor without the fatal: callers that can report richer
// diagnostics check the result themselves.
func (h *Harness) poll(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// Close stops every live node's engine and ring. Idempotent; registered as
// a test cleanup.
func (h *Harness) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	var engines []*replication.Engine
	var rings []*totem.Ring
	for n, isDown := range h.down {
		if isDown {
			continue
		}
		engines = append(engines, h.engines[n])
		rings = append(rings, h.rings[n]...)
	}
	h.mu.Unlock()
	for _, e := range engines {
		e.Stop()
	}
	totem.StopPool(rings)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
