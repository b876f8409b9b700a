package bench

import (
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/mproc"
	"repro/internal/orb"
	"repro/internal/replication"
	"repro/internal/transport/udp"
)

// E2mp — multi-process sharded throughput. PR 5's E2′ cell showed the
// in-process ceiling: R shards inside one process share one simulation
// (and, under `go test`, one global fabric lock), so aggregate throughput
// capped well below the idle-CPU headroom. Here the same workload runs
// with each replica node as a real OS process and the ring traffic on
// loopback UDP — the deployment shape of the source paper's system, with
// real sockets, real scheduling, and no shared fabric lock.
//
// The parent process is the client node of the universe; it hosts no
// replicas and drives the same clients×groups invoker pool as E2′.

// mpReplicaNodes is the replica-process count (3-way ACTIVE replication,
// like the E2′ cells it is compared against).
const mpReplicaNodes = 3

// mpConfig assembles the shared deployment Config for a multi-process
// run: the universe, freshly probed loopback peers, and the static group
// table every process derives identically.
func mpConfig(w ShardedWorkload) (mproc.Config, []string, error) {
	replicas := make([]string, 0, mpReplicaNodes)
	for i := 1; i <= mpReplicaNodes; i++ {
		replicas = append(replicas, fmt.Sprintf("n%d", i))
	}
	universe := append(append([]string(nil), replicas...), "client")

	starts, err := udp.PickBases(len(universe), w.Shards)
	if err != nil {
		return mproc.Config{}, nil, err
	}
	peers := make(map[string]udp.Peer, len(universe))
	for i, n := range universe {
		peers[n] = udp.Peer{Host: "127.0.0.1", Base: starts[i] - core.BaseRingPort}
	}

	groups := make([]mproc.GroupSpec, 0, w.Groups)
	for g := 0; g < w.Groups; g++ {
		groups = append(groups, mproc.GroupSpec{
			ID:     uint64(g + 1),
			Name:   fmt.Sprintf("mp-echo-%d", g),
			TypeID: EchoType,
			// Same explicit round-robin placement as E2′: the cell measures
			// transport scaling, not hash balance.
			Shard: g%w.Shards + 1,
			Hosts: replicas,
		})
	}
	return mproc.Config{
		Universe:      universe,
		Peers:         peers,
		Shards:        w.Shards,
		BasePort:      core.BaseRingPort,
		Heartbeat:     heartbeat,
		CallTimeout:   30 * time.Second,
		RetryInterval: 5 * time.Second,
		Groups:        groups,
	}, replicas, nil
}

// MPServants is the servant registry handed to `-role node` children
// (exported for cmd/ftbench's child entry point).
var MPServants = map[string]func() orb.Servant{
	EchoType: func() orb.Servant { return NewEchoServant() },
}

// RunMultiProc runs one multi-process cell: w.Replicas is fixed at 3 (the
// replica process count); the parent re-executes itself as the children,
// so the calling binary must dispatch `-role node` to mproc.ChildMain.
func RunMultiProc(w ShardedWorkload) (float64, error) {
	cfg, replicas, err := mpConfig(w)
	if err != nil {
		return 0, err
	}

	// The client node starts first so the children's full-universe
	// readiness check can pass; it hosts nothing, so it needs no servants.
	clientCfg := cfg
	clientCfg.Node = "client"
	client, err := mproc.StartNode(clientCfg, nil)
	if err != nil {
		return 0, err
	}
	defer client.Stop()

	children := make([]*mproc.Child, 0, len(replicas))
	defer func() { mproc.StopAll(children) }()
	for _, node := range replicas {
		c, err := mproc.Spawn(cfg, node)
		if err != nil {
			return 0, fmt.Errorf("spawn %s: %w", node, err)
		}
		children = append(children, c)
	}
	for _, c := range children {
		if err := c.AwaitReady(30 * time.Second); err != nil {
			return 0, err
		}
	}
	if err := client.WaitReady(30 * time.Second); err != nil {
		return 0, err
	}

	proxyFor := func(gid uint64) (*replication.Proxy, error) {
		shard := cfg.Groups[gid-1].Shard
		return client.Engine.Proxy(replication.GroupRef{ID: gid},
			replication.WithShard(shard-1)), nil
	}
	gids := make([]uint64, 0, len(cfg.Groups))
	for _, g := range cfg.Groups {
		gids = append(gids, g.ID)
	}
	// Warmup: one invocation per group takes reply-group joins and executor
	// spin-up off the clock (as in E2′).
	for _, gid := range gids {
		p, err := proxyFor(gid)
		if err != nil {
			return 0, err
		}
		if _, err := p.Invoke("echo", cdr.OctetSeq(payloadOf(256))); err != nil {
			return 0, fmt.Errorf("warmup group %d: %w", gid, err)
		}
	}
	return driveProxies(proxyFor, gids, w.Clients, w.PerClient)
}

// e2mpFloors are the full-scale ops/s minimums keyed by shard count, 0 for
// the 1-process baseline: each cell's value when the bound was set (5137
// ops/s baseline; 9503, 7835 and 5200 at R=1, 2 and 4) minus 40 %, rounded
// up. The cells ride a shared host where scheduler phasing moves them
// ±25 %; the floors catch a collapse (a cell halving), not drift.
var e2mpFloors = map[int]float64{0: 3083, 1: 5702, 2: 4702, 4: 3121}

// E2MPMultiProc regenerates the E2mp table: the in-process R=1 netsim
// baseline against multi-process loopback-UDP runs at increasing shard
// counts. At full scale it fails on a cell below its e2mpFloors entry.
func E2MPMultiProc(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E2mp",
		Title:   "Multi-process sharded throughput (ACTIVE/3, 8 groups, 1 sync client/grp, 256B echo)",
		Columns: []string{"deployment", "shards", "procs", "ops/s", "vs 1-proc R=1"},
		Notes: []string{
			"baseline: R=1, all nodes in one process over netsim (the PR 5 regime)",
			"mproc rows: each replica node a real OS process, rings on loopback UDP",
			"procs counts replica processes + the parent (client) process",
			"one synchronous client per group: the paper's CORBA twoway invocation shape",
			"each cell is best-of-3 (single-core host; scheduler noise dominates the spread)",
		},
	}
	perClient := scale.Invocations
	if perClient < 4 {
		perClient = 4
	}
	const groups, clients = 8, 1
	// cellTrials re-runs each cell and keeps the best: on a one-core host a
	// cell can lose >10% to scheduler phasing, and a rare mid-run ring
	// reformation (GC pause outlasting the fail timeout) costs a retry
	// backoff that halves the cell. Best-of-N reports what the deployment
	// can do rather than what the noisiest trial did.
	const cellTrials = 3
	bestOf := func(run func() (float64, error)) (float64, error) {
		var best float64
		for i := 0; i < cellTrials; i++ {
			thr, err := run()
			if err != nil {
				return 0, err
			}
			if thr > best {
				best = thr
			}
		}
		return best, nil
	}

	// The baseline is always the PR 5 regime — one process, netsim — even
	// when ftbench runs with -transport udp, so the ratio stays comparable
	// across invocations.
	saved := TransportFactory
	TransportFactory = nil
	base, err := bestOf(func() (float64, error) {
		return RunSharded(ShardedWorkload{
			Shards: 1, Groups: groups, Replicas: 3,
			Clients: clients, PerClient: perClient,
		})
	})
	TransportFactory = saved
	if err != nil {
		return nil, fmt.Errorf("E2mp baseline: %w", err)
	}
	t.Rows = append(t.Rows, []string{"1-proc netsim", "1", "1",
		fmt.Sprintf("%.0f", base), "1.00x"})
	full := scale.Invocations >= FullScale.Invocations
	var bounds []bound
	if full {
		bounds = append(bounds, bound{metric: "1-process ops/s", got: base, limit: e2mpFloors[0], floor: true})
	}

	for _, shards := range []int{1, 2, 4} {
		w := ShardedWorkload{
			Shards: shards, Groups: groups, Replicas: 3,
			Clients: clients, PerClient: perClient,
		}
		thr, err := bestOf(func() (float64, error) { return RunMultiProc(w) })
		if err != nil {
			return nil, fmt.Errorf("E2mp R=%d: %w", shards, err)
		}
		t.Rows = append(t.Rows, []string{"mproc udp", fmt.Sprint(shards),
			fmt.Sprint(mpReplicaNodes + 1), fmt.Sprintf("%.0f", thr),
			fmt.Sprintf("%.2fx", thr/base)})
		if full {
			bounds = append(bounds, bound{metric: fmt.Sprintf("R=%d ops/s", shards), got: thr, limit: e2mpFloors[shards], floor: true})
		}
	}
	return t, checkBounds("e2mp", bounds...)
}
