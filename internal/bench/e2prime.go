package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/orb"
	"repro/internal/replication"
)

// E2′ — sharded-transport throughput. The single-ring transport caps
// aggregate throughput at one token rotation no matter how many independent
// groups exist; the sharded pool gives each group its own token (R rings,
// groups hash-routed across them). Expected shape: for G independent groups,
// aggregate throughput grows with the shard count until the host is
// CPU-bound; for a single group it stays flat (one group can never use more
// than one ring — per-group total order is the invariant FT-CORBA needs).

// ShardedWorkload parameterizes one E2′ cell (exported so bench_test.go
// drives the same workload as the table).
type ShardedWorkload struct {
	Shards    int // rings per node
	Groups    int // independent ACTIVE groups
	Replicas  int // replicas per group
	Clients   int // concurrent invokers per group
	PerClient int // operations per invoker
}

// RunSharded builds a fresh sharded domain, drives every group
// concurrently, and returns aggregate completed operations per second.
func RunSharded(w ShardedWorkload) (float64, error) {
	d, err := newShardedDomain(w)
	if err != nil {
		return 0, err
	}
	defer d.Stop()
	gids, err := createShardedGroups(d, w)
	if err != nil {
		return 0, err
	}
	return driveSharded(d, gids, w.Clients, w.PerClient)
}

func newShardedDomain(w ShardedWorkload) (*core.Domain, error) {
	names := []string{"n1", "n2", "n3", "n4", "client"}
	tp, err := optionalTransport(names)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDomain(core.Options{
		Nodes:         names,
		Net:           netConfig(),
		Transport:     tp,
		Heartbeat:     heartbeat,
		Shards:        w.Shards,
		CallTimeout:   30 * time.Second,
		RetryInterval: 5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	if err := d.WaitReady(15 * time.Second); err != nil {
		d.Stop()
		return nil, err
	}
	if err := d.RegisterFactory(EchoType, func() orb.Servant { return NewEchoServant() }, names[:4]...); err != nil {
		d.Stop()
		return nil, err
	}
	return d, nil
}

// createShardedGroups creates the workload's groups and touches each once.
func createShardedGroups(d *core.Domain, w ShardedWorkload) ([]uint64, error) {
	gids := make([]uint64, 0, w.Groups)
	for g := 0; g < w.Groups; g++ {
		_, gid, err := d.Create(fmt.Sprintf("shard-echo-%d", g), EchoType, &ftcorba.Properties{
			ReplicationStyle:      replication.Active,
			InitialNumberReplicas: w.Replicas,
			MembershipStyle:       ftcorba.MembershipApplication,
			// Round-robin placement rather than the hash route: the cell
			// measures transport scaling, so it should not inherit hash
			// imbalance noise across the small group count.
			Shard: g%w.Shards + 1,
		})
		if err != nil {
			return nil, err
		}
		if err := d.WaitGroupReady(gid, w.Replicas, 15*time.Second); err != nil {
			return nil, err
		}
		gids = append(gids, gid)
	}
	// Warmup: touch every group once so reply-group joins and executor
	// spin-up are off the clock.
	for _, gid := range gids {
		p, err := d.Proxy("client", gid)
		if err != nil {
			return nil, err
		}
		if _, err := p.Invoke("echo", cdr.OctetSeq(payloadOf(256))); err != nil {
			return nil, err
		}
	}
	return gids, nil
}

// driveSharded runs clients×len(gids) concurrent invokers and returns
// aggregate ops/s.
func driveSharded(d *core.Domain, gids []uint64, clients, perClient int) (float64, error) {
	return driveProxies(func(gid uint64) (*replication.Proxy, error) {
		return d.Proxy("client", gid)
	}, gids, clients, perClient)
}

// driveProxies is the transport-agnostic drive loop shared by the
// in-process (E2′) and multi-process (E2mp) cells: clients×len(gids)
// concurrent invokers against whatever proxy construction the deployment
// provides, returning aggregate ops/s.
func driveProxies(proxyFor func(gid uint64) (*replication.Proxy, error), gids []uint64, clients, perClient int) (float64, error) {
	arg := cdr.OctetSeq(payloadOf(256))
	errCh := make(chan error, len(gids)*clients)
	var wg sync.WaitGroup
	start := time.Now()
	for _, gid := range gids {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(gid uint64) {
				defer wg.Done()
				proxy, err := proxyFor(gid)
				if err != nil {
					errCh <- err
					return
				}
				for i := 0; i < perClient; i++ {
					if _, err := proxy.Invoke("echo", arg); err != nil {
						errCh <- fmt.Errorf("group %d: %w", gid, err)
						return
					}
				}
			}(gid)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		return 0, err
	}
	return float64(len(gids)*clients*perClient) / elapsed.Seconds(), nil
}

// E2PrimeSharding regenerates the E2′ table: aggregate throughput vs shard
// count for 8 independent groups, plus the single-group control row per
// shard count (expected flat — one group still rides one token).
func E2PrimeSharding(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E2'",
		Title:   "Aggregate throughput vs transport shards (ACTIVE/3, 256B echo)",
		Columns: []string{"shards", "groups", "clients/grp", "ops/s", "vs R=1"},
		Notes: []string{
			"groups=8: independent groups round-robined across shards (each shard its own token)",
			"groups=1: control — a single group cannot use more than one ring",
			"clients/grp=2: latency-bound regime (token-hold waits dominate)",
			"clients/grp=8: the host CPU saturates — sharding cannot add cycles",
		},
	}
	perClient := scale.Invocations / 8
	if perClient < 4 {
		perClient = 4
	}
	cells := []struct{ groups, clients int }{{8, 2}, {8, 8}, {1, 2}}
	for _, c := range cells {
		var base float64
		for _, shards := range []int{1, 2, 4} {
			thr, err := RunSharded(ShardedWorkload{
				Shards: shards, Groups: c.groups, Replicas: 3,
				Clients: c.clients, PerClient: perClient,
			})
			if err != nil {
				return nil, fmt.Errorf("E2' R=%d G=%d: %w", shards, c.groups, err)
			}
			if shards == 1 {
				base = thr
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(shards), fmt.Sprint(c.groups), fmt.Sprint(c.clients),
				fmt.Sprintf("%.0f", thr), fmt.Sprintf("%.2fx", thr/base),
			})
		}
	}
	return t, nil
}
